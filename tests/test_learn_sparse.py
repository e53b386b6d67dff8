import numpy as np
import pytest
import scipy.sparse as sp

from dupliq.learn import ClassifierSpec, evaluate, train
from dupliq.learn._sparse import SparseColumns, grow_tree_sparse
from dupliq.learn._tree import TreePack, gini_is_pure, gini_score, make_grad_score

from oracles import grow_tree_dense, tree_apply_dense


def tree_apply(tree, X):
    return TreePack([tree]).leaf_values(X)[:, 0]


def sparse_dataset(n=120, d=15, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d)) * (rng.random((n, d)) < density)
    y = (X[:, 0] + X[:, 1] * 0.5 + 0.2 * rng.random(n) > 0.35).astype(np.int64)
    if len(np.unique(y)) < 2:
        y[:2] = [0, 1]
    return X, y


def grow_both(X, y, criterion, max_depth, min_samples_leaf=1, lam=1.0):
    n = len(y)
    counts = np.ones(n, dtype=np.int64)
    if criterion == "gini":
        a = y.astype(float)
        b = np.ones(n)
        kwargs = dict(
            score_fn=gini_score,
            leaf_value_fn=lambda rows: y[rows].mean(),
            min_gain=-np.inf,
            purity_fn=gini_is_pure,
        )
    else:
        rng_margin = np.random.default_rng(42)
        p = rng_margin.uniform(0.2, 0.8, size=n)
        a = p - y
        b = p * (1 - p)
        kwargs = dict(
            score_fn=make_grad_score(lam),
            leaf_value_fn=lambda rows: -a[rows].sum() / (b[rows].sum() + lam),
            score_scale=0.5,
        )
    dense = grow_tree_dense(
        X, a=a, b=b, counts=counts,
        max_depth=max_depth, min_samples_leaf=min_samples_leaf,
        max_features=None, rng=np.random.default_rng(0), **kwargs,
    )
    sparse, leaves = grow_tree_sparse(
        SparseColumns(sp.csr_matrix(X)), a=a, b=b, counts=counts,
        max_depth=max_depth, min_samples_leaf=min_samples_leaf,
        max_features=None, rng=np.random.default_rng(0), **kwargs,
    )
    assert np.array_equal(leaves, tree_apply(sparse, X))
    return dense, sparse


@pytest.mark.parametrize("criterion", ["gini", "grad"])
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
        SparseColumns(X)


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


def test_xgb_gamma_prunes_splits():
    X, y = sparse_dataset(n=120, d=8, seed=8)
    loose = train(ClassifierSpec("xgb", {"n_estimators": 5, "gamma": 0.0}), X, y)
    tight = train(ClassifierSpec("xgb", {"n_estimators": 5, "gamma": 1e9}), X, y)
    n_splits_loose = sum((t.feature >= 0).sum() for t in loose.trees)
    n_splits_tight = sum((t.feature >= 0).sum() for t in tight.trees)
    assert n_splits_tight == 0
    assert n_splits_loose > 0
