import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dupliq.sparse_io import load_sparse_features, save_sparse_features
from dupliq.tfidf import (
    analyze,
    fit,
    fit_corpus,
    load_model,
    pair_vector,
    pair_vectors,
    save_model,
    stack,
    transform,
)

from oracles import tfidf_oracle


def row_entries(X, i):
    """Row i of a CSR matrix as (column, value) pairs in stored order."""
    lo, hi = X.indptr[i], X.indptr[i + 1]
    return [(int(j), float(v)) for j, v in zip(X.indices[lo:hi], X.data[lo:hi])]


def assert_csr_equal(a, b):
    assert a.shape == b.shape
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, part), getattr(b, part)), part


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


@pytest.mark.parametrize("max_features", [0, -1])
def test_fit_refuses_max_features_below_one(max_features):
    with pytest.raises(ValueError, match="max_features must be at least 1"):
        fit(["a b", "b c"], analyzer="word", ngram_range=(1, 1), max_features=max_features)


def test_fit_empty_corpus():
    with pytest.raises(ValueError):
        fit([], analyzer="word", ngram_range=(1, 1))


def test_identical_documents_idf_one():
    model = fit(["same text"] * 5, analyzer="word", ngram_range=(1, 1), max_features=None)
    assert np.allclose(model.idf, 1.0)


def test_fit_corpus_dedupes_preserving_order():
    q1 = ["what is x", "how to y", "what is x"]
    q2 = ["how to y", "what is z", "what is z"]
    assert fit_corpus(q1, q2) == ["what is x", "how to y", "what is z"]


def test_transform_single_term_unit():
    model = fit(["cat", "dog"], analyzer="word", ngram_range=(1, 1), max_features=None)
    X = transform(model, ["cat"])
    assert X.shape == (1, model.dim)
    assert row_entries(X, 0) == [(model.vocabulary["cat"], 1.0)]


def test_transform_unknown_text():
    model = fit(["cat"], analyzer="word", ngram_range=(1, 1), max_features=None)
    X = transform(model, ["elephant zebra", "", "cat"])
    assert X.shape == (3, model.dim)
    assert X.indptr.tolist() == [0, 0, 0, 1]
    assert transform(model, []).shape == (0, model.dim)


def test_transform_hand_values():
    model = fit(["a b", "b c"], analyzer="word", ngram_range=(1, 1), max_features=None)
    idf_b = model.idf[model.vocabulary["b"]]
    idf_c = model.idf[model.vocabulary["c"]]
    norm = math.hypot(idf_b, idf_c)
    dense = transform(model, ["b c"]).toarray()[0]
    assert dense[model.vocabulary["b"]] == pytest.approx(idf_b / norm, rel=1e-12)
    assert dense[model.vocabulary["c"]] == pytest.approx(idf_c / norm, rel=1e-12)
    # a repeated term counts twice: "b c b" weighs b by 2 * idf
    dense = transform(model, ["b c b"]).toarray()[0]
    norm = math.hypot(2 * idf_b, idf_c)
    assert dense[model.vocabulary["b"]] == pytest.approx(2 * idf_b / norm, rel=1e-12)
    assert dense[model.vocabulary["c"]] == pytest.approx(idf_c / norm, rel=1e-12)


def test_transform_l2_normalized():
    corpus = ["the cat sat", "a dog ran fast", "cat and dog play"]
    model = fit(corpus, analyzer="char", ngram_range=(1, 3), max_features=None)
    X = transform(model, corpus + ["cats dogs playing", "", "xyz"])
    for i in range(X.shape[0]):
        values = X.data[X.indptr[i] : X.indptr[i + 1]]
        if len(values):
            assert np.linalg.norm(values) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(X.indices[X.indptr[i] : X.indptr[i + 1]]) > 0)
    assert np.all(X.data != 0)


def test_pair_vector_layout():
    model = fit(["cat", "dog"], analyzer="word", ngram_range=(1, 1), max_features=None)
    i = model.vocabulary["cat"]
    v = pair_vector(model, "cat", "cat")
    assert v.shape == (1, 2 * model.dim)
    assert row_entries(v, 0) == [(i, 1.0), (i + model.dim, 1.0)]

    X = pair_vectors(model, ["zebra", "cat", "dog"], ["dog", "dog", "cat"])
    assert X.shape == (3, 2 * model.dim)
    assert all(j >= model.dim for j, _ in row_entries(X, 0))

    swapped = sorted(
        (j - model.dim if j >= model.dim else j + model.dim, v) for j, v in row_entries(X, 2)
    )
    assert swapped == row_entries(X, 1)


def test_pair_vectors_empty_and_mismatched():
    model = fit(["cat", "dog"], analyzer="word", ngram_range=(1, 1), max_features=None)
    X = pair_vectors(model, [], [])
    assert X.shape == (0, 2 * model.dim) and X.nnz == 0
    with pytest.raises(ValueError):
        pair_vectors(model, ["cat"], [])


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
    got = dict(row_entries(v, 0))
    assert got.pop(4) == pytest.approx(want_second[4], abs=1e-12)
    for k, val in want_first.items():
        assert got[k] == pytest.approx(val, rel=1e-12)


# Texts from a few characters, so terms repeat; "?" and the emoji are not
# word characters, and U+20000 is a letter outside the BMP.
_TEXT = st.lists(
    st.sampled_from(["a", "b", "ab", "B", " ", " ", "?", "\U0001f600", "\U00020000"]),
    max_size=10,
).map("".join)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([("word", (1, 1)), ("word", (1, 2)), ("char", (1, 2)), ("char", (2, 3))]),
    st.lists(_TEXT, min_size=1, max_size=6),
    st.lists(st.tuples(_TEXT, _TEXT), max_size=6),
)
def test_pair_vectors_match_oracle(config, corpus, pairs):
    analyzer, ngram = config
    model = fit(corpus, analyzer=analyzer, ngram_range=ngram, max_features=None)
    q1s = [q1 for q1, _ in pairs]
    q2s = [q2 for _, q2 in pairs]
    X = pair_vectors(model, q1s, q2s)
    assert X.shape == (len(pairs), 2 * model.dim)
    assert np.all(X.data != 0)
    for i, (q1, q2) in enumerate(pairs):
        want = tfidf_oracle(q1, analyzer, ngram, model.vocabulary, model.idf)
        want.update(
            (col + model.dim, v)
            for col, v in tfidf_oracle(q2, analyzer, ngram, model.vocabulary, model.idf).items()
        )
        got = row_entries(X, i)
        assert [j for j, _ in got] == sorted(want)
        for j, v in got:
            assert v == pytest.approx(want[j], rel=1e-12), (i, j)
    if pairs:
        assert_csr_equal(stack([pair_vector(model, q1, q2) for q1, q2 in pairs]), X)


def test_stack_matrix():
    model = fit(["cat", "dog"], analyzer="word", ngram_range=(1, 1), max_features=None)
    rows = [pair_vector(model, "cat", "dog"), pair_vector(model, "zebra", ""), pair_vector(model, "dog", "dog")]
    m = stack(rows)
    assert m.shape == (3, 2 * model.dim)
    assert m[0, model.vocabulary["cat"]] == 1.0
    assert m[1].nnz == 0
    assert_csr_equal(m, pair_vectors(model, ["cat", "zebra", "dog"], ["dog", "", "dog"]))


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
    texts = ["the dog sat", "", "tac"]
    assert_csr_equal(pair_vectors(loaded, texts, texts[::-1]), pair_vectors(model, texts, texts[::-1]))


def test_sparse_features_roundtrip_and_corrupt_files(tmp_path):
    X = sp.random(6, 5, density=0.4, format="csr", random_state=3)
    labels = np.array([0, 1, 1, 0, 1, 0])
    path = tmp_path / "x.npz"
    save_sparse_features(path, X, labels)
    got, got_labels, got_names = load_sparse_features(path)
    assert (got != X).nnz == 0
    assert got_labels.tolist() == labels.tolist()
    assert got_names is None
    names = ["q1:a", "q1:\U00020000", "q2:a", "q2:b", "q2:c"]
    save_sparse_features(tmp_path / "named.npz", X, labels, column_names=names)
    assert load_sparse_features(tmp_path / "named.npz")[2] == names
    save_sparse_features(tmp_path / "names.npz", X, labels, column_names=names[:-1])
    with pytest.raises(ValueError, match="names.npz"):
        load_sparse_features(tmp_path / "names.npz")
    # the file keeps the name it is given, whatever its suffix
    save_sparse_features(tmp_path / "x.sparse", X, labels)
    assert not (tmp_path / "x.sparse.npz").exists()
    assert (tmp_path / "x.sparse").read_bytes() == path.read_bytes()

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
