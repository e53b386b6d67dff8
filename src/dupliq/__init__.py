"""dupliq: duplicate-question detection at desk scale.

Library layout:

* :mod:`dupliq.corpus` - question-pair TSV loading, statistics, cleaning,
  stratified splitting
* :mod:`dupliq.textops` - normalization, tokenization, basic pair features
* :mod:`dupliq.fuzzy` - the seven indel-based fuzzy match scores
* :mod:`dupliq.embed` - word-vector loading, per-question bags, frozen
  embedding rows, transport distance, vector distances and moments
* :mod:`dupliq.featmat` - the 28-column feature matrix and its CSV format
* :mod:`dupliq.tfidf` - word/char TF-IDF models and pair vectors
* :mod:`dupliq.learn` - seven classifiers, metrics, importance, grid search
* :mod:`dupliq.neural` - layer primitives, the four toy-scale architectures,
  training and gradient verification
* :mod:`dupliq.cli` - the ``dupliq`` command-line pipeline
"""

__version__ = "0.1.0"
