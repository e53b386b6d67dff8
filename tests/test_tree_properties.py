"""Property tests: every tree kind against the dense oracle builder.

The oracle (``oracles.grow_tree_dense``) grows node by node and column by
column on the dense view of the input.  It stands in for the library
builder inside the unchanged model code, so both sides run the same
boosting, reweighting and sampling loops and must agree exactly.
"""

from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import dupliq.learn._models as models
from dupliq.learn import ClassifierSpec, train
from dupliq.learn._tree import TreePack

from oracles import grow_tree_dense, tree_apply_dense

SIGNED = [-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 1.5, 3.0]
NONNEGATIVE = [0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 2.0]


@contextmanager
def oracle_builder(X):
    """Route the model code's tree growing through the oracle."""
    dense = X.toarray() if sp.issparse(X) else np.asarray(X, dtype=np.float64)

    def grow(sc, **kwargs):
        tree = grow_tree_dense(dense, **kwargs)
        leaves = tree_apply_dense(tree, dense)
        leaves[np.asarray(kwargs["counts"]) == 0] = np.nan
        return tree, leaves

    real = models.grow_tree_sparse
    models.grow_tree_sparse = grow
    try:
        yield
    finally:
        models.grow_tree_sparse = real


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


def hyperparameters(kind):
    common = {"seed": st.integers(0, 3), "max_depth": st.integers(1, 4), "min_samples_leaf": st.integers(1, 3)}
    if kind == "adaboost":
        return st.fixed_dictionaries({"seed": st.integers(0, 3), "n_estimators": st.integers(1, 4)})
    if kind in ("gbm", "xgb"):
        common["n_estimators"] = st.integers(1, 4)
    if kind in ("random_forest", "extra_trees"):
        common["n_estimators"] = st.integers(1, 3)
        common["max_features"] = st.sampled_from(["sqrt", 1, 2, None])
    if kind == "random_forest":
        common["bootstrap"] = st.booleans()
    return st.fixed_dictionaries(common)


def tree_nodes(model):
    return [t.n_nodes for t in model.trees]


def assert_engine_matches_oracle(kind, hp, X, y):
    spec = ClassifierSpec(kind, hp)
    engine = train(spec, X, y)
    with oracle_builder(X):
        oracle = train(spec, X, y)
    assert tree_nodes(engine) == tree_nodes(oracle)
    assert np.array_equal(engine.predict_proba(X), oracle.predict_proba(X))


def check_kind(kind):
    @given(data=st.data())
    def check(data):
        sparse = data.draw(st.booleans())
        X, y = data.draw(datasets(NONNEGATIVE if sparse else SIGNED, sparse))
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
