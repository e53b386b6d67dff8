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
    ("dense", "decision_tree"): "d446bc16cf581a842fcbafda2701f04ac43bc8ecdc8afc81eb617b2758b24bb6",
    ("dense", "random_forest"): "3af0b4fdd43cef38488acd74ed9670782a95a299cf96e739e583fe3f3ff68125",
    ("dense", "extra_trees"): "f052019572d8f634f7c36e2c0e62f3a2d54c364488d47f45de76e8f3570445e6",
    ("dense", "adaboost"): "2b9649d088bdc8941da139bccbc233b9cd8f819236ff21f12362d9cf8f252ee6",
    ("dense", "xgb"): "d9414d78d93831bea528cd103715d78357980c965c0715ce7e4f12cb30334afd",
    ("dense", "gbm"): "2abd1322fc20ac2634345d6aee84c8f588d83f228e7984cda7118d462aa6a23f",
    ("dense", "xgb_subsample"): "e1ba98c9f6756320ebdf0c4fc22b2e96ad72ed85a7c8cd917fb8a39898b96960",
    ("dense", "gbm_subsample"): "f59062a12d57a96cb51623d0ee1486de695be65bdbbaa4fd907ed7326c3227d7",
    ("sparse", "decision_tree"): "3fa0c8624140e7ab73d00c212e8df305c39f9744859c01dd3309fbf60c32470a",
    ("sparse", "random_forest"): "7f8ad0d9bc975608f6739d1fe8c454b83570950bcad52d792d7808e09f54b9c7",
    ("sparse", "extra_trees"): "6c977a6cd2a4c4b5c0a5f84dcd8e57118446746e450e0516fbd6f20742265aee",
    ("sparse", "adaboost"): "99d86c00ba98fe09109f2ccd19d735b704a36b3816cc59d7d30451f37d7f5c16",
    ("sparse", "xgb"): "f351dc352a658a59cdfbfc868258ca9b8abd9178bc0b51f0419a853e5b8dca53",
    ("sparse", "gbm"): "5a52eb77c64a92b460c78a1554281db095f9d7c5f5977d0890d54733d606cf7a",
    ("sparse", "xgb_subsample"): "465c605b1cc6c1576fea0cf9209a3f005faaa4b9035c44c00f2bf479d69c1fc2",
    ("sparse", "gbm_subsample"): "27ac22914c206e8019c89a6fbaa0ea6992a76c8196a8deaba852206b930510b7",
    ("wide_sparse", "random_forest_14"): "4bec4ab18915102b10b93c52ddae46894ac0733ba5716dc313aaff21be565e98",
    ("wide_sparse", "extra_trees_14"): "1fef2f01501ed2df8f913487f13a99d9926b45120e9707ed11cdf4d85ec1eb7a",
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
