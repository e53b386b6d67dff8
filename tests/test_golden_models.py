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
    ("dense", "decision_tree"): "9220ca12ee9e388178a3ed5191493444886c41019b19c93ec777f1544d0a5314",
    ("dense", "random_forest"): "6bf03235e3fc25e4a621d2713c39041fb89323a5e598057ac6c65fa62af6022a",
    ("dense", "extra_trees"): "5834c59ce8628c615f754acf48b0220031c2e49f201845e6df864150178256b8",
    ("dense", "adaboost"): "f811ab2a6dda6ef268e2dda0b0ad87414cdda6212d2a7ec94a367064f8f1c41a",
    ("dense", "xgb"): "123f1f56926668e9b1ed48be00a855633089dbdae637f53d08a1fe0896b83ba1",
    ("dense", "gbm"): "e8d547347df1e48b6baa95e680e2aecd50bfa3cec8f1e2af01a7252d94b29a59",
    ("dense", "xgb_subsample"): "b26d4c44dee4daa2273c3f70b6bdbfc2c0fdb28bc20018d16d5f878d35ae39a4",
    ("dense", "gbm_subsample"): "53a079c3c41bdfa86a1bdc1fbe5aebf41aa3f837a61185758308b51d24329fd7",
    ("sparse", "decision_tree"): "6b847cb923b1a50f82e1b54576d0284f9ac6772e33c6198092f6d085d93b0afd",
    ("sparse", "random_forest"): "3a1bcef796c97348c81d25dba747b7741adeb7dae2254b888994a96bb36c92e6",
    ("sparse", "extra_trees"): "890a578234f0c7fbb38dd7dbf35a2af9fd4230a21b715ecce02d7ee964b87e11",
    ("sparse", "adaboost"): "e7ee7d452fa368abfad082617c698a06ad8c18e942a02030170c7fb224318f9c",
    ("sparse", "xgb"): "113116c27793569c0904479b05b0a93b678f46972d5a5d80cf136c724621ef2d",
    ("sparse", "gbm"): "0101c08f725c222f4a47af3d5a648abeb72800402d0dc6a4df030a03122db095",
    ("sparse", "xgb_subsample"): "7658851a67a91599f252c08688367e740aad2401b800ea463328cd9bfa0924dc",
    ("sparse", "gbm_subsample"): "908a0722af64f065049a695b6ac70a180d75b939cc53695af9f7e72a0908d6e8",
    ("wide_sparse", "random_forest_14"): "1d470865d75d2935fdeac227e1bc0f38c0e23063412a48134d9063e1a285ca85",
    ("wide_sparse", "extra_trees_14"): "63967c967e51a2605987412bd28b39688b3803301eb8b1dc1329a5657fffdf8f",
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
