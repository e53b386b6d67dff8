import math

import numpy as np
import pytest
import scipy.sparse as sp

from dupliq.sparse_io import load_sparse_features, save_sparse_features
from dupliq.tfidf import (
    SparseVec,
    analyze,
    fit,
    fit_corpus,
    load_model,
    pair_vector,
    save_model,
    stack,
    transform,
)


def test_analyze_word_and_char():
    assert analyze("How do I?", "word", (1, 1)) == ["how", "do", "i"]
    assert analyze("ab c", "char", (2, 2)) == ["ab", "b ", " c"]
    assert analyze("ab", "char", (1, 2)) == ["a", "b", "ab"]
    with pytest.raises(ValueError):
        analyze("x", "word", (2, 1))
    with pytest.raises(ValueError):
        analyze("x", "subword", (1, 1))


def test_fit_idf_hand_computed():
    model = fit(["a b", "b c"], analyzer="word", ngram_range=(1, 1), max_features=None)
    assert set(model.vocabulary) == {"a", "b", "c"}
    b = model.vocabulary["b"]
    assert model.idf[b] == pytest.approx(math.log(3 / 3) + 1.0, abs=1e-15)
    a = model.vocabulary["a"]
    assert model.idf[a] == pytest.approx(math.log(3 / 2) + 1.0, rel=1e-12)


def test_fit_char_vocabulary():
    model = fit(["ab"], analyzer="char", ngram_range=(1, 2), max_features=None)
    assert set(model.vocabulary) == {"a", "b", "ab"}


def test_fit_max_features_by_df():
    model = fit(["a b", "b c"], analyzer="word", ngram_range=(1, 1), max_features=1)
    assert set(model.vocabulary) == {"b"}
    # tie on df broken lexicographically
    model2 = fit(["a b", "b c"], analyzer="word", ngram_range=(1, 1), max_features=2)
    assert set(model2.vocabulary) == {"a", "b"}


def test_fit_empty_corpus():
    with pytest.raises(ValueError):
        fit([], analyzer="word", ngram_range=(1, 1))


def test_identical_documents_idf_one():
    model = fit(["same text"] * 5, analyzer="word", ngram_range=(1, 1), max_features=None)
    assert np.allclose(model.idf, 1.0)


def test_transform_single_term_unit():
    model = fit(["cat", "dog"], analyzer="word", ngram_range=(1, 1), max_features=None)
    vec = transform(model, "cat")
    assert vec.entries == [(model.vocabulary["cat"], 1.0)]


def test_transform_unknown_text():
    model = fit(["cat"], analyzer="word", ngram_range=(1, 1), max_features=None)
    vec = transform(model, "elephant zebra")
    assert len(vec.indices) == 0


def test_transform_hand_values():
    model = fit(["a b", "b c"], analyzer="word", ngram_range=(1, 1), max_features=None)
    vec = transform(model, "b c")
    idf_b = model.idf[model.vocabulary["b"]]
    idf_c = model.idf[model.vocabulary["c"]]
    norm = math.hypot(idf_b, idf_c)
    dense = vec.to_dense()
    assert dense[model.vocabulary["b"]] == pytest.approx(idf_b / norm, rel=1e-12)
    assert dense[model.vocabulary["c"]] == pytest.approx(idf_c / norm, rel=1e-12)


def test_transform_l2_normalized():
    corpus = ["the cat sat", "a dog ran fast", "cat and dog play"]
    model = fit(corpus, analyzer="char", ngram_range=(1, 3), max_features=None)
    for text in corpus + ["cats dogs playing"]:
        vec = transform(model, text)
        if len(vec.values):
            assert np.linalg.norm(vec.values) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(vec.indices) > 0)
        assert np.all(vec.values != 0)


def test_pair_vector_layout():
    model = fit(["cat", "dog"], analyzer="word", ngram_range=(1, 1), max_features=None)
    v = pair_vector(model, "cat", "cat")
    i = model.vocabulary["cat"]
    assert v.dim == 2 * model.dim
    assert v.entries == [(i, 1.0), (i + model.dim, 1.0)]

    upper = pair_vector(model, "zebra", "dog")
    assert all(idx >= model.dim for idx in upper.indices)

    ab = pair_vector(model, "cat", "dog")
    ba = pair_vector(model, "dog", "cat")
    swapped = sorted(
        [(i - model.dim if i >= model.dim else i + model.dim, v) for i, v in ba.entries]
    )
    assert swapped == ab.entries


def test_pair_vector_against_straight_line_oracle():
    corpus = ["ab", "bc"]
    model = fit(corpus, analyzer="char", ngram_range=(1, 1), max_features=None)
    # vocabulary: a(df1) b(df2) c(df1); idf = ln(3/(1+df))+1
    idf_a = math.log(3 / 2) + 1
    idf_b = math.log(3 / 3) + 1
    v = pair_vector(model, "ab", "b")
    norm1 = math.hypot(idf_a, idf_b)
    want_first = {0: idf_a / norm1, 1: idf_b / norm1}
    want_second = {4: 1.0}
    got = dict(v.entries)
    assert got.pop(4) == pytest.approx(want_second[4], abs=1e-12)
    for k, val in want_first.items():
        assert got[k] == pytest.approx(val, rel=1e-12)


def test_fit_corpus_dedupes_preserving_order():
    q1 = ["what is x", "how to y", "what is x"]
    q2 = ["how to y", "what is z", "what is z"]
    assert fit_corpus(q1, q2) == ["what is x", "how to y", "what is z"]


def test_stack_matrix():
    vs = [
        SparseVec(4, np.array([0, 2]), np.array([1.0, 2.0])),
        SparseVec(4, np.array([], dtype=int), np.array([])),
        SparseVec(4, np.array([3]), np.array([0.5])),
    ]
    m = stack(vs)
    assert m.shape == (3, 4)
    assert m[0, 2] == 2.0
    assert m[1].nnz == 0


def test_model_roundtrip(tmp_path):
    model = fit(
        ["the cat sat", "a dog ran"], analyzer="char", ngram_range=(1, 2), max_features=20
    )
    path = tmp_path / "tfidf.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.vocabulary == model.vocabulary
    assert np.allclose(loaded.idf, model.idf)
    assert loaded.analyzer == model.analyzer
    assert loaded.ngram_range == model.ngram_range
    text = "the dog sat"
    assert transform(loaded, text).entries == transform(model, text).entries


def test_sparse_features_roundtrip_and_corrupt_files(tmp_path):
    X = sp.random(6, 5, density=0.4, format="csr", random_state=3)
    labels = np.array([0, 1, 1, 0, 1, 0])
    path = tmp_path / "x.npz"
    save_sparse_features(path, X, labels)
    got, got_labels = load_sparse_features(path)
    assert (got != X).nnz == 0
    assert got_labels.tolist() == labels.tolist()

    arrays = {
        "data": X.data, "indices": X.indices, "indptr": X.indptr,
        "shape": np.array(X.shape), "labels": labels,
    }
    bad_indices = X.indices.copy()
    bad_indices[0] = 5
    broken = {
        "cut.npz": None,
        "missing.npz": {k: v for k, v in arrays.items() if k != "indptr"},
        "column.npz": {**arrays, "indices": bad_indices},
        "indptr.npz": {**arrays, "indptr": X.indptr[:-2]},
        "labels.npz": {**arrays, "labels": labels[:-1]},
    }
    for name, blob in broken.items():
        bad = tmp_path / name
        if blob is None:
            bad.write_bytes(path.read_bytes()[:-20])
        else:
            np.savez(bad, **blob)
        with pytest.raises(ValueError, match=name):
            load_sparse_features(bad)
