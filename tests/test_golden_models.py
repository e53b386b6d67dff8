"""Golden model files: the sha256 of every tree kind's saved model, trained
on small fixed dense and sparse data.

A change to the tree builder or to a training loop that means to keep
every model bit for bit must leave these hashes as they are.  A change
that moves one on purpose updates it here and says why in CHANGES.md.
The hashes also pin numpy's float arithmetic (the boosters' ``np.exp``,
for one), so another numpy build may move them.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from dupliq.learn import ClassifierSpec, _models, _tree, save_model, train


def dense_data():
    """Signed, integer-count and 0-100 score columns, with many ties."""
    rng = np.random.default_rng(20)
    n = 80
    X = np.column_stack([
        rng.normal(size=n),
        rng.integers(0, 6, size=n).astype(np.float64),
        np.round(rng.uniform(0, 100, size=n)),
        rng.normal(size=n) * (rng.random(n) < 0.5),
    ])
    y = (X[:, 0] + X[:, 1] / 3 + rng.normal(scale=0.7, size=n) > 1).astype(np.int64)
    return X, y


def sparse_data():
    """Nonnegative columns with about 15% of their entries stored."""
    rng = np.random.default_rng(21)
    n, d = 80, 30
    X = rng.random((n, d)) * (rng.random((n, d)) < 0.15)
    y = (X[:, 0] + X[:, 1] + 0.3 * rng.random(n) > 0.4).astype(np.int64)
    return sp.csr_matrix(X), y


def wide_sparse_data():
    """A wide, mostly empty matrix: about 3% of 60 x 200 entries stored, so
    most columns a forest node samples hold no entry among its rows."""
    rng = np.random.default_rng(22)
    n, d = 60, 200
    X = np.round(rng.random((n, d)) * 4 + 0.5, 1) * (rng.random((n, d)) < 0.03)
    y = (X[:, :20].sum(axis=1) + 0.5 * rng.random(n) > 0.6).astype(np.int64)
    return sp.csr_matrix(X), y


DATA = {"dense": dense_data, "sparse": sparse_data, "wide_sparse": wide_sparse_data}

# 14 of 200 columns per node, where most sampled columns are empty
WIDE_FOREST = {"n_estimators": 8, "max_depth": 6, "min_samples_leaf": 1, "max_features": 14}

SPECS = {
    "decision_tree": ("decision_tree", {"max_depth": 6, "min_samples_leaf": 2}),
    "random_forest": ("random_forest", {"n_estimators": 8, "max_depth": 6, "min_samples_leaf": 2}),
    "extra_trees": ("extra_trees", {"n_estimators": 8, "max_depth": 6, "min_samples_leaf": 2}),
    "adaboost": ("adaboost", {"n_estimators": 15}),
    "xgb": ("xgb", {"n_estimators": 15, "max_depth": 3, "lambda": 2.0, "gamma": 0.05}),
    "gbm": ("gbm", {"n_estimators": 15, "max_depth": 3, "min_samples_leaf": 3}),
    "xgb_subsample": ("xgb", {"n_estimators": 15, "max_depth": 3, "subsample": 0.7}),
    "gbm_subsample": ("gbm", {"n_estimators": 15, "max_depth": 3, "subsample": 0.7}),
    "random_forest_14": ("random_forest", WIDE_FOREST),
    "extra_trees_14": ("extra_trees", WIDE_FOREST),
}

GOLDEN = {
    ("dense", "decision_tree"): "dd17887ebdfba085259cb4e99af296e3c57c28efaafb1365b1f56e67e2cdb76c",
    ("dense", "random_forest"): "40c1a17fb8af0d3fc8609d27f2c0bacd5b641966ea092c75d6cdd59df18d1aaa",
    ("dense", "extra_trees"): "3716b2da430b2b4e87e3fde71d814ffb7d5614f06114bc37cca500c4f9a1b972",
    ("dense", "adaboost"): "ca1143157b4df5f6e3e72c39b09ce3fc0555940700e29193f47787307419b0c6",
    ("dense", "xgb"): "bd214256356d2b47db9d5593bcb010993396c97a7a735df359c172256d26fa4a",
    ("dense", "gbm"): "af250a06813255fd04c0a006581c544289b8e1122a208595a6a0c1155e17ee5b",
    ("dense", "xgb_subsample"): "c4ea7509d253b461906aaacc917bff936cf11e9cbaca3af0fba9161a8ddb9c4d",
    ("dense", "gbm_subsample"): "b0473cabd1f791400144a072a5dfcfb1cc56e5b18678b3e71203e015d3fa7b76",
    ("sparse", "decision_tree"): "e23eb64e8c07bc2315f3d5d1b44895618994e21ff7f3ac0376e0f5c716d83695",
    ("sparse", "random_forest"): "f85deafc17377760bdf169458432819d31f52a2d8eb3e6906202b71e83ff6592",
    ("sparse", "extra_trees"): "cf35dd70dc5a63d7f4c167bdf0020a7187d8b109b7cf1386089cda2a07663884",
    ("sparse", "adaboost"): "33a420d2c8b98c1004dfc2f8ae6b3038f8cbf8a2ad7d85a72f0459dd70eee43c",
    ("sparse", "xgb"): "bc73d8b52f2d1f36705b867d132f3d9ae3c66c8c9bb6766c081400e4d7fe9caf",
    ("sparse", "gbm"): "6284ee2242df145ec77a7097eb35777e75b91dc7be70cd65b1dc277201ffcecd",
    ("sparse", "xgb_subsample"): "ff7f32e85f0848db97c23e0fb2e330cf68413f315b74c9584d22612ebd7fe41c",
    ("sparse", "gbm_subsample"): "011e2f920a037d0e3e6bb01e6ad3554c8263bbe53e963ef0cb0844e06c106520",
    ("wide_sparse", "random_forest_14"): "aa133b3dcddb30ec3e05c81c78ec701a761e4c26446126404d208f4d114cf0c5",
    ("wide_sparse", "extra_trees_14"): "814497d805437e2ed7213b3f991642b64b0bf35ec170d5208b4e668889c10d35",
}


def saved_model_sha256(data: str, name: str, directory) -> str:
    X, y = DATA[data]()
    kind, hp = SPECS[name]
    path = directory / f"{data}.{name}.json"
    save_model(train(ClassifierSpec(kind, {"seed": 3, **hp}), X, y), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("data, name", sorted(GOLDEN))
def test_saved_model_matches_golden_sha256(tmp_path, data, name):
    assert saved_model_sha256(data, name, tmp_path) == GOLDEN[data, name]


FORESTS = sorted((data, name) for data, name in GOLDEN if "forest" in name or "extra" in name)


@pytest.mark.parametrize("data, name", FORESTS)
def test_forest_does_not_depend_on_how_its_trees_are_batched(tmp_path, monkeypatch, data, name):
    """Each tree draws from its own stream and sums over its own entries, so
    one tree per batch, or batches of three with a shorter last one, save
    the same bytes as the default batches, which hold every tree here."""
    X, y = DATA[data]()
    kind, hp = SPECS[name]
    columns = hp.get("max_features") or max(1, int(np.sqrt(X.shape[1])))
    assert _tree.trees_per_batch(X.shape[0], columns) >= hp["n_estimators"]
    want = saved_model_sha256(data, name, tmp_path)
    for per_batch in (1, 3):
        monkeypatch.setattr(_tree, "LEVEL_ENTRIES", per_batch * X.shape[0] * columns)
        assert _tree.trees_per_batch(X.shape[0], columns) == per_batch
        assert saved_model_sha256(data, name, tmp_path) == want, per_batch


@pytest.mark.parametrize("data, name", FORESTS)
def test_forest_does_not_depend_on_how_its_draws_and_gathers_are_chunked(tmp_path, monkeypatch, data, name):
    """With every tree in one batch, drawing the column keys one or two
    nodes at a time (a pass of two may span two trees) leaves each stream's
    values those of one array, and gathering a level's entries in windows
    of that size keeps their order: the saved bytes are the default's."""
    X, y = DATA[data]()
    want = saved_model_sha256(data, name, tmp_path)
    monkeypatch.setattr(_models, "trees_per_batch", lambda n_rows, n_cols: 1000)
    for nodes_per_pass in (1, 2):
        monkeypatch.setattr(_tree, "LEVEL_ENTRIES", nodes_per_pass * X.shape[1])
        assert saved_model_sha256(data, name, tmp_path) == want, nodes_per_pass
