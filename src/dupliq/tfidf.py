"""Word- and character-level TF-IDF vectorization and pair matrices.

Terms are word n-grams over normalized text (word analyzer) or raw
lowercased character n-grams including spaces (char analyzer).  Document
frequency is counted once per document, idf(t) = ln((1+N)/(1+df(t))) + 1,
and transformed vectors are L2-normalized raw counts times idf.  The
vocabulary cap keeps the highest-df terms, ties broken lexicographically.

:func:`transform` turns a list of texts into one CSR matrix in a single
pass: the column ids of every known term go into one array, CSR's
duplicate summing counts them, and the weights and row norms are applied
to the data array in place.  :func:`pair_vectors` transforms the two
questions of each pair as adjacent rows and reads the pair matrix off the
same arrays, the second question's columns shifted by the vocabulary size.

A fitted model is expected to be trained on the deduplicated union of the
training split's question texts; that preparation is the caller's job
(see :func:`fit_corpus`).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from ._files import read_document

FORMAT_VERSION = 1
# ``fit``'s idf, ln((1 + N) / (1 + df)) + 1, is at least 1 and below this
# for any corpus of fewer than 2^64 documents
MAX_IDF = 1.0 + 64 * math.log(2)


@dataclass
class TfidfModel:
    analyzer: str  # "word" or "char"
    ngram_range: tuple[int, int]
    max_features: int | None
    vocabulary: dict[str, int]
    idf: np.ndarray  # aligned with vocabulary's column indices

    @property
    def dim(self) -> int:
        return len(self.vocabulary)


def _word_terms(text: str, lo: int, hi: int) -> list[str]:
    from .textops import normalize_text, tokenize

    tokens = tokenize(normalize_text(text))
    terms = []
    for n in range(lo, hi + 1):
        for i in range(len(tokens) - n + 1):
            terms.append(" ".join(tokens[i : i + n]))
    return terms


def _char_terms(text: str, lo: int, hi: int) -> list[str]:
    text = text.lower()
    terms = []
    for n in range(lo, hi + 1):
        for i in range(len(text) - n + 1):
            terms.append(text[i : i + n])
    return terms


def analyze(text: str, analyzer: str, ngram_range: tuple[int, int]) -> list[str]:
    lo, hi = ngram_range
    if lo < 1 or hi < lo:
        raise ValueError(f"bad ngram_range {ngram_range}")
    if analyzer == "word":
        return _word_terms(text, lo, hi)
    if analyzer == "char":
        return _char_terms(text, lo, hi)
    raise ValueError(f"unknown analyzer {analyzer!r}")


def fit_corpus(question1: list[str], question2: list[str]) -> list[str]:
    """Deduplicated union of the two question columns, order of first use."""
    seen = dict.fromkeys(question1)
    seen.update(dict.fromkeys(question2))
    return list(seen)


def fit(
    corpus: list[str],
    analyzer: str = "char",
    ngram_range: tuple[int, int] = (1, 3),
    max_features: int | None = 50000,
) -> TfidfModel:
    """Learn vocabulary and idf weights from a corpus of documents; the
    vocabulary keeps the ``max_features`` terms of highest document
    frequency (all of them when None)."""
    if not corpus:
        raise ValueError("empty corpus")
    if max_features is not None and max_features < 1:
        raise ValueError(f"max_features must be at least 1, got {max_features}")
    df: Counter = Counter()
    for doc in corpus:
        df.update(set(analyze(doc, analyzer, ngram_range)))
    terms = sorted(df)
    if max_features is not None and len(terms) > max_features:
        terms = sorted(terms, key=lambda t: (-df[t], t))[:max_features]
        terms = sorted(terms)
    n_docs = len(corpus)
    vocabulary = {t: i for i, t in enumerate(terms)}
    idf = np.array(
        [math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in terms], dtype=np.float64
    )
    return TfidfModel(
        analyzer=analyzer,
        ngram_range=(int(ngram_range[0]), int(ngram_range[1])),
        max_features=max_features,
        vocabulary=vocabulary,
        idf=idf,
    )


def transform(model: TfidfModel, texts: list[str]) -> sp.csr_matrix:
    """Texts to the rows of an L2-normalized tf-idf matrix, in one pass.

    Each text is analyzed once; unknown terms are ignored, and a text with
    no known term gives an empty row.
    """
    vocabulary = model.vocabulary
    cols: list[int] = []
    indptr = [0]
    for text in texts:
        for term in analyze(text, model.analyzer, model.ngram_range):
            col = vocabulary.get(term)
            if col is not None:
                cols.append(col)
        indptr.append(len(cols))
    X = sp.csr_matrix(
        (np.ones(len(cols)), np.asarray(cols, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(texts), model.dim),
    )
    X.sum_duplicates()  # sorts each row's columns and sums the term counts
    X.data *= model.idf[X.indices]
    # np.linalg.norm of each row slice, as for a row on its own: a vectorized
    # sum of squares (np.add.reduceat) can round the norm differently
    for start, end in zip(X.indptr[:-1].tolist(), X.indptr[1:].tolist()):
        if end > start:
            X.data[start:end] /= np.linalg.norm(X.data[start:end])
    return X


def pair_vectors(model: TfidfModel, q1s: list[str], q2s: list[str]) -> sp.csr_matrix:
    """Row i is the vector of ``q1s[i]`` followed by that of ``q2s[i]``
    shifted by ``dim``: a matrix of width 2 * dim for the classifiers."""
    if len(q1s) != len(q2s):
        raise ValueError(f"{len(q1s)} first questions against {len(q2s)} second ones")
    X = transform(model, [q for pair in zip(q1s, q2s) for q in pair])
    # rows 2i and 2i+1 hold pair i's halves, already adjacent in the arrays
    second = np.repeat(np.arange(X.shape[0]) % 2, np.diff(X.indptr))
    return sp.csr_matrix(
        (X.data, X.indices + model.dim * second, X.indptr[::2]),
        shape=(len(q1s), 2 * model.dim),
    )


def pair_column_names(model: TfidfModel) -> list[str]:
    """Names of the ``2 * dim`` pair-vector columns: each term of the first
    question, then each of the second."""
    terms = sorted(model.vocabulary, key=model.vocabulary.__getitem__)
    return [f"q1:{t}" for t in terms] + [f"q2:{t}" for t in terms]


def pair_vector(model: TfidfModel, q1: str, q2: str) -> sp.csr_matrix:
    """One pair as a one-row matrix (``pair_vectors`` of one pair)."""
    return pair_vectors(model, [q1], [q2])


def stack(rows: list[sp.csr_matrix]) -> sp.csr_matrix:
    """Stack one-row pair matrices into one CSR matrix."""
    return sp.vstack(rows, format="csr")


def save_model(model: TfidfModel, path: str | Path) -> None:
    terms = sorted(model.vocabulary.items(), key=lambda kv: kv[1])
    doc = {
        "format_version": FORMAT_VERSION,
        "analyzer": model.analyzer,
        "ngram_range": list(model.ngram_range),
        "max_features": model.max_features,
        "terms": [[t, i, float(model.idf[i])] for t, i in terms],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False, sort_keys=True)


def load_model(path: str | Path) -> TfidfModel:
    """Rebuild a model saved by :func:`save_model`; a document that is not a
    valid model raises ValueError naming the file."""
    return read_document(path, FORMAT_VERSION, "TF-IDF model", _model_from_doc)


def _model_from_doc(doc: dict) -> TfidfModel:
    terms = doc["terms"]
    if not isinstance(terms, list) or not all(isinstance(t, list) and len(t) == 3 for t in terms):
        raise ValueError("terms is not a list of [term, id, idf] triples")
    vocabulary = {t: int(i) for t, i, _ in terms}
    if len(vocabulary) != len(terms) or sorted(vocabulary.values()) != list(range(len(terms))):
        raise ValueError(f"the term ids are not the numbers 0 to {len(terms) - 1}, each once")
    idf = np.zeros(len(vocabulary))
    for t, _, w in terms:
        idf[vocabulary[t]] = w
    if not ((idf >= 1.0) & (idf <= MAX_IDF)).all():
        raise ValueError(f"an idf is not a number in [1, {MAX_IDF:.2f}]")
    model = TfidfModel(
        analyzer=doc["analyzer"],
        ngram_range=tuple(doc["ngram_range"]),
        max_features=doc["max_features"],
        vocabulary=vocabulary,
        idf=idf,
    )
    analyze("", model.analyzer, model.ngram_range)  # refuses an unknown analyzer or range
    return model
