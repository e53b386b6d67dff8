"""Property tests: every tree kind against the dense oracle builder, and
every kind's probabilities against the slow predict oracle.

The oracle (``oracles.grow_tree_dense``) grows node by node and column by
column on the dense view of the input.  It stands in for the library
builder inside the unchanged model code, so both sides run the same
boosting, reweighting and sampling loops on the same criteria and must
agree exactly.
``oracles.predict_proba_oracle`` adds the trees' leaves one tree at a time
and ranks knn neighbours from a scipy sparse product; a model's
probabilities must equal it bit for bit, one row at a time as in a batch.
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import dupliq.learn._models as models
from dupliq.learn import ClassifierSpec, train
from dupliq.learn._tree import TreePack

from oracles import grow_tree_dense, predict_proba_oracle, tree_apply_dense

SIGNED = [-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 1.5, 3.0]
NONNEGATIVE = [0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 2.0]


@contextmanager
def oracle_builder(X):
    """Route the model code's tree growing through the oracle."""
    dense = X.toarray() if sp.issparse(X) else np.asarray(X, dtype=np.float64)

    def grow(entries, criterion, counts, max_depth, min_samples_leaf, max_features, rngs, random_thresholds=False):
        # one tree at a time, each on its own rows of the batch's criterion
        n = dense.shape[0]
        trees, leaves = [], np.empty(counts.shape)
        for t, rng in enumerate(rngs):
            rows = slice(t * n, (t + 1) * n)
            one = replace(
                criterion, a=criterion.a[rows], b=criterion.b[rows], h=None if criterion.h is None else criterion.h[rows]
            )
            tree = grow_tree_dense(
                dense, one, counts[t], max_depth, min_samples_leaf, max_features, rng, random_thresholds
            )
            trees.append(tree)
            leaves[t] = tree_apply_dense(tree, dense)
        leaves[counts == 0] = np.nan
        return trees, leaves

    real = models.grow_tree
    models.grow_tree = grow
    try:
        yield
    finally:
        models.grow_tree = real


@st.composite
def datasets(draw, values, sparse):
    n = draw(st.integers(4, 24))
    d = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(st.sampled_from(values), min_size=n * d, max_size=n * d))).reshape(n, d)
    if draw(st.booleans()):
        X = np.column_stack([X, X[:, draw(st.integers(0, d - 1))]])
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[:2] = [0, 1]
    return (sp.csr_matrix(X) if sparse else X), y


@st.composite
def wide_sparse_datasets(draw):
    """Up to 40 nonnegative columns, most of them empty or nearly so: the
    columns a forest node samples often hold no entry among its rows."""
    n = draw(st.integers(4, 24))
    d = draw(st.integers(5, 40))
    cells = draw(st.lists(st.integers(0, n * d - 1), max_size=n * d // 5))
    X = np.zeros(n * d)
    X[cells] = draw(st.lists(st.sampled_from(NONNEGATIVE[3:]), min_size=len(cells), max_size=len(cells)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[:2] = [0, 1]
    return sp.csr_matrix(X.reshape(n, d)), y


def hyperparameters(kind):
    if kind == "knn":
        return st.fixed_dictionaries({"k": st.integers(1, 6)})
    common = {"seed": st.integers(0, 3), "max_depth": st.integers(1, 4), "min_samples_leaf": st.integers(1, 3)}
    if kind == "adaboost":
        return st.fixed_dictionaries({"seed": st.integers(0, 3), "n_estimators": st.integers(1, 4)})
    if kind in ("gbm", "xgb"):
        common["n_estimators"] = st.integers(1, 4)
    if kind in ("random_forest", "extra_trees"):
        common["n_estimators"] = st.integers(1, 5)
        common["max_features"] = st.sampled_from(["sqrt", 1, 2, None])
    if kind == "random_forest":
        common["bootstrap"] = st.booleans()
    return st.fixed_dictionaries(common)


def assert_engine_matches_oracle(kind, hp, X, y):
    """Both builders grow the same trees: every node's feature, threshold,
    children, value and row count, bit for bit; gains to rounding."""
    spec = ClassifierSpec(kind, hp)
    engine = train(spec, X, y)
    with oracle_builder(X):
        oracle = train(spec, X, y)
    assert len(engine.trees) == len(oracle.trees)
    for got, want in zip(engine.trees, oracle.trees):
        for field in ("feature", "threshold", "left", "right", "value", "n_node"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        np.testing.assert_allclose(got.gain, want.gain, rtol=1e-9)
    assert np.array_equal(engine.predict_proba(X), oracle.predict_proba(X))


def check_kind(kind):
    @given(data=st.data())
    def check(data):
        shape = data.draw(st.sampled_from(["dense", "sparse", "wide_sparse"]))
        if shape == "wide_sparse":
            X, y = data.draw(wide_sparse_datasets())
        else:
            X, y = data.draw(datasets(NONNEGATIVE if shape == "sparse" else SIGNED, shape == "sparse"))
        assert_engine_matches_oracle(kind, data.draw(hyperparameters(kind)), X, y)

    return check


test_decision_tree_matches_oracle = check_kind("decision_tree")
test_adaboost_matches_oracle = check_kind("adaboost")
test_gbm_matches_oracle = check_kind("gbm")
test_xgb_matches_oracle = check_kind("xgb")
test_random_forest_matches_oracle = check_kind("random_forest")
test_extra_trees_matches_oracle = check_kind("extra_trees")


@given(data=st.data())
def test_packed_routing_matches_row_by_row(data):
    X, y = data.draw(datasets(NONNEGATIVE, sparse=False))
    hp = data.draw(hyperparameters("gbm"))
    model = train(ClassifierSpec("gbm", hp), X, y)
    want = np.column_stack([tree_apply_dense(t, X) for t in model.trees])
    pack = TreePack(model.trees)
    assert np.array_equal(pack.leaf_values(X), want)
    assert np.array_equal(pack.leaf_values(sp.csr_matrix(X)), want)


def check_predict(kind):
    @given(data=st.data())
    def check(data):
        sparse = data.draw(st.booleans())
        values = NONNEGATIVE if sparse else SIGNED
        X, y = data.draw(datasets(values, sparse))
        model = train(ClassifierSpec(kind, data.draw(hyperparameters(kind))), X, y)
        n = data.draw(st.integers(1, 12))
        Q = np.array(data.draw(st.lists(st.sampled_from(values), min_size=n * X.shape[1], max_size=n * X.shape[1])))
        Q = Q.reshape(n, X.shape[1])
        for query in (X, sp.csr_matrix(Q) if sparse else Q):
            batch = model.predict_proba(query)
            assert batch.tobytes() == predict_proba_oracle(model, query).tobytes()
            one_row = np.array([model.predict_proba(query[r : r + 1])[0] for r in range(query.shape[0])])
            assert one_row.tobytes() == batch.tobytes()

    return check


test_knn_predict_matches_oracle = check_predict("knn")
test_adaboost_predict_matches_oracle = check_predict("adaboost")
test_xgb_predict_matches_oracle = check_predict("xgb")
test_gbm_predict_matches_oracle = check_predict("gbm")
test_decision_tree_predict_matches_oracle = check_predict("decision_tree")
test_random_forest_predict_matches_oracle = check_predict("random_forest")
test_extra_trees_predict_matches_oracle = check_predict("extra_trees")
