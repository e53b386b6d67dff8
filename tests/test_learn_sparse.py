import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from dupliq.learn import ClassifierSpec, evaluate, train
from dupliq.learn._models import _row_norms
from dupliq.learn._tree import ColumnEntries, TreePack, gini, grow_tree, newton, residual

from oracles import grow_tree_dense, knn_distances_oracle, tree_apply_dense


def tree_apply(tree, X):
    return TreePack([tree]).leaf_values(X)[:, 0]


def sparse_dataset(n=120, d=15, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d)) * (rng.random((n, d)) < density)
    y = (X[:, 0] + X[:, 1] * 0.5 + 0.2 * rng.random(n) > 0.35).astype(np.int64)
    if len(np.unique(y)) < 2:
        y[:2] = [0, 1]
    return X, y


def grow_both(X, y, kind, max_depth, min_samples_leaf=1, lam=1.0):
    n = len(y)
    counts = np.ones(n, dtype=np.int64)
    p = np.random.default_rng(42).uniform(0.2, 0.8, size=n)
    if kind == "gini":
        criterion = gini(np.ones(n), y)
    elif kind == "grad":
        criterion = newton(p - y, p * (1 - p), lam, 0.0)
    else:
        criterion = residual(y - p, np.ones(n), p * (1 - p))
    settings = dict(max_depth=max_depth, min_samples_leaf=min_samples_leaf, max_features=None)
    dense = grow_tree_dense(X, criterion, counts, rng=np.random.default_rng(0), **settings)
    [sparse], [leaves] = grow_tree(
        ColumnEntries(sp.csr_matrix(X)), criterion, counts[None], rngs=[np.random.default_rng(0)], **settings
    )
    assert np.array_equal(leaves, tree_apply(sparse, X))
    return dense, sparse


@pytest.mark.parametrize("criterion", ["gini", "grad", "residual"])
@pytest.mark.parametrize("depth", [1, 3, 6])
def test_sparse_builder_matches_dense(criterion, depth):
    X, y = sparse_dataset()
    dense, sparse = grow_both(X, y, criterion, max_depth=depth)
    dense_pred = tree_apply_dense(dense, X)
    sparse_pred = tree_apply(sparse, sp.csr_matrix(X))
    assert np.array_equal(dense_pred, sparse_pred)
    assert dense.n_nodes == sparse.n_nodes


def test_sparse_apply_matches_dense_apply():
    X, y = sparse_dataset(seed=5)
    dense, _ = grow_both(X, y, "gini", max_depth=5)
    X2, _ = sparse_dataset(seed=6)
    want = tree_apply_dense(dense, X2)
    assert np.array_equal(want, tree_apply(dense, sp.csr_matrix(X2)))
    assert np.array_equal(want, tree_apply(dense, X2))


def test_sparse_rejects_negative_values():
    X = sp.csr_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="nonnegative"):
        ColumnEntries(X)


def test_min_samples_leaf_respected_sparse():
    X, y = sparse_dataset()
    _, tree = grow_both(X, y, "gini", max_depth=8, min_samples_leaf=10)
    leaves = tree.feature < 0
    assert (tree.n_node[leaves] >= 10).all()


def test_all_kinds_train_on_sparse():
    X, y = sparse_dataset(n=150, d=25, seed=2)
    Xs = sp.csr_matrix(X)
    for kind in ("knn", "decision_tree", "random_forest", "extra_trees", "adaboost", "gbm", "xgb"):
        hp = {"seed": 0}
        if kind in ("random_forest", "extra_trees", "gbm", "xgb"):
            hp["n_estimators"] = 10
        if kind == "adaboost":
            hp["n_estimators"] = 10
        model = train(ClassifierSpec(kind, hp), Xs, y)
        p = model.predict_proba(Xs)
        assert p.shape == (150,)
        assert np.all((0 <= p) & (p <= 1))
        m = evaluate(model, Xs, y)
        assert m.accuracy >= 0.65, kind  # learnable signal on feature 0/1


def test_sparse_dense_same_predictions_decision_tree():
    X, y = sparse_dataset(n=100, d=10, seed=3)
    spec = ClassifierSpec("decision_tree", {"max_depth": 6, "min_samples_leaf": 2})
    dense_model = train(spec, X, y)
    sparse_model = train(spec, sp.csr_matrix(X), y)
    assert np.array_equal(
        dense_model.predict_proba(X), sparse_model.predict_proba(sp.csr_matrix(X))
    )


def test_sparse_dense_same_predictions_boosters():
    X, y = sparse_dataset(n=100, d=10, seed=4)
    for kind in ("gbm", "xgb"):
        spec = ClassifierSpec(kind, {"n_estimators": 12, "max_depth": 3})
        dense_model = train(spec, X, y)
        sparse_model = train(spec, sp.csr_matrix(X), y)
        assert np.array_equal(
            dense_model.predict_proba(X),
            sparse_model.predict_proba(sp.csr_matrix(X)),
        ), kind


def test_knn_sparse_cosine():
    # rows 0/1 point the same direction, row 2 is orthogonal
    X = sp.csr_matrix(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]]))
    y = np.array([1, 1, 0])
    model = train(ClassifierSpec("knn", {"k": 1}), X, y)
    assert model.metric == "cosine"
    test = sp.csr_matrix(np.array([[5.0, 0.1], [0.1, 5.0]]))
    assert np.array_equal(model.predict(test), [1, 0])


def test_knn_sparse_scale_invariant():
    rng = np.random.default_rng(7)
    X = sp.csr_matrix(np.abs(rng.random((40, 6)) * (rng.random((40, 6)) < 0.5)))
    y = (rng.random(40) < 0.5).astype(int)
    y[:2] = [0, 1]
    model = train(ClassifierSpec("knn", {"k": 3}), X, y)
    scaled = sp.csr_matrix(X.toarray() * 7.3)
    assert np.array_equal(model.predict_proba(X), model.predict_proba(scaled))


def test_knn_sparse_distances_match_oracle_bit_for_bit():
    # many stored columns a row, so that summing them in another order
    # would change low bits
    X, y = sparse_dataset(n=50, d=200, density=0.4, seed=11)
    Q, _ = sparse_dataset(n=30, d=200, density=0.4, seed=12)
    Q[3] = 0.0  # a query row of zero norm
    model = train(ClassifierSpec("knn", {"k": 3}), sp.csr_matrix(X), y)
    want = knn_distances_oracle(model, sp.csr_matrix(Q))
    assert model._distances(sp.csr_matrix(Q)).tobytes() == want.tobytes()
    one_row = np.vstack([model._distances(sp.csr_matrix(Q[r : r + 1])) for r in range(len(Q))])
    assert one_row.tobytes() == want.tobytes()


@given(
    seed=st.integers(0, 2**16),
    n_rows=st.integers(0, 6),
    n_cols=st.integers(1, 400),
    density=st.floats(0.0, 1.0),
)
def test_knn_row_norms_equal_scipys_bit_for_bit(seed, n_rows, n_cols, density):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < density)
    dense[rng.random(dense.shape) < 0.1] = 1e-170  # its square underflows to 0
    X = sp.csr_matrix(dense)
    X.data[rng.random(X.nnz) < 0.1] = 0.0  # stored zeros
    want = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
    assert _row_norms(X).tobytes() == want.tobytes()
    # each entry stored twice as halves, in shuffled order within its row
    rows = np.repeat(np.arange(n_rows), np.diff(X.indptr))
    order = rng.permutation(2 * X.nnz)
    order = order[np.argsort(np.tile(rows, 2)[order], kind="stable")]
    doubled = sp.csr_matrix(
        (np.tile(X.data / 2, 2)[order], np.tile(X.indices, 2)[order], 2 * X.indptr), shape=X.shape
    )
    assert not doubled.has_canonical_format or X.nnz == 0
    np.testing.assert_allclose(_row_norms(doubled), want, rtol=1e-14)


@pytest.mark.parametrize("n_train, d", [(60, 30), (12, 80)])
def test_knn_sparse_batch_in_chunks_equals_one_chunk(monkeypatch, n_train, d):
    import dupliq.learn._models as models

    X, y = sparse_dataset(n=n_train, d=d, density=0.2, seed=9)
    Q, _ = sparse_dataset(n=45, d=d, density=0.2, seed=10)
    model = train(ClassifierSpec("knn", {"k": 4}), sp.csr_matrix(X), y)
    whole = model.predict_proba(sp.csr_matrix(Q))
    # room for 2 query rows of the wider of n_train distances and d columns
    monkeypatch.setattr(models, "DISTANCE_FLOATS", 2 * max(n_train, d) + 1)
    seen = []
    real = models.KnnModel._distances
    monkeypatch.setattr(models.KnnModel, "_distances", lambda self, b: seen.append(b.shape[0]) or real(self, b))
    chunked = model.predict_proba(sp.csr_matrix(Q))
    assert seen == [2] * 22 + [1]
    assert chunked.tobytes() == whole.tobytes()


def test_xgb_gamma_prunes_splits():
    X, y = sparse_dataset(n=120, d=8, seed=8)
    loose = train(ClassifierSpec("xgb", {"n_estimators": 5, "gamma": 0.0}), X, y)
    tight = train(ClassifierSpec("xgb", {"n_estimators": 5, "gamma": 1e9}), X, y)
    n_splits_loose = sum((t.feature >= 0).sum() for t in loose.trees)
    n_splits_tight = sum((t.feature >= 0).sum() for t in tight.trees)
    assert n_splits_tight == 0
    assert n_splits_loose > 0
