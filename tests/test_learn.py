import hashlib
import json
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from dupliq.learn import (
    DEFAULT_HYPERPARAMETERS,
    KINDS,
    ClassifierSpec,
    _permute_sparse_column,
    compute_metrics,
    evaluate,
    feature_importance,
    grid_search,
    load_model,
    log_loss,
    save_model,
    train,
)

from dupliq.learn._models import _sigmoid
from dupliq.learn import _tree
from dupliq.learn._tree import TreePack

from oracles import best_stump_accuracy, tree_apply_dense


def separable_data(n=60, seed=0):
    """Two clusters split cleanly by feature 0."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, 2))
    y = (X[:, 0] >= 0.5).astype(np.int64)
    X[:, 0] += np.where(y == 1, 1.0, -1.0)  # widen the margin
    return X, y


XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def spec_for(kind, **hp):
    overrides = {"seed": 0}
    overrides.update(hp)
    return ClassifierSpec(kind, overrides)


# ------------------------------------------------------------------ train

def test_every_kind_fits_separable_data():
    X, y = separable_data()
    for kind in KINDS:
        hp = {}
        if kind == "knn":
            hp["k"] = 1
        if kind in ("decision_tree", "random_forest", "extra_trees"):
            hp.update(max_depth=None, min_samples_leaf=1)
        if kind in ("gbm", "xgb"):
            hp.update(n_estimators=50, max_depth=3, min_samples_leaf=1)
        model = train(spec_for(kind, **hp), X, y)
        acc = np.mean(model.predict(X) == y)
        assert acc == 1.0, kind


def test_xor_depth_two_vs_stump():
    model = train(spec_for("decision_tree", max_depth=2, min_samples_leaf=1), XOR_X, XOR_Y)
    assert np.array_equal(model.predict(XOR_X), XOR_Y)
    stump = train(spec_for("decision_tree", max_depth=1, min_samples_leaf=1), XOR_X, XOR_Y)
    stump_acc = np.mean(stump.predict(XOR_X) == XOR_Y)
    # exhaustive stump enumeration: every split leaves both sides 50/50,
    # so no stump beats 0.5 (comfortably under the 0.75 bound)
    assert best_stump_accuracy(XOR_X.tolist(), XOR_Y.tolist()) == 0.5
    assert stump_acc <= 0.75


def test_xgb_infinite_lambda_predicts_prior():
    X, y = separable_data(40)
    model = train(spec_for("xgb", n_estimators=10, **{"lambda": 1e12}), X, y)
    p = model.predict_proba(X)
    assert np.allclose(p, y.mean(), atol=1e-4)


def test_train_input_validation():
    X, y = separable_data(20)
    with pytest.raises(ValueError, match="single class"):
        train(spec_for("decision_tree"), X, np.zeros(20, dtype=int))
    bad = X.copy()
    bad[3, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        train(spec_for("decision_tree"), bad, y)
    with pytest.raises(ValueError, match="unknown classifier"):
        train(ClassifierSpec("svm"), X, y)


def test_deterministic_for_fixed_seed():
    X, y = separable_data(80, seed=3)
    y = (np.sin(X.sum(axis=1) * 5) > 0).astype(int)  # noisy labels
    if len(np.unique(y)) < 2:
        y[0] = 1 - y[0]
    for kind in KINDS:
        m1 = train(spec_for(kind, seed=7), X, y)
        m2 = train(spec_for(kind, seed=7), X, y)
        assert np.array_equal(m1.predict_proba(X), m2.predict_proba(X)), kind


# --------------------------------------------------------------- predict

def test_knn_k1_memorizes_training_points():
    X, y = separable_data(30, seed=1)
    model = train(spec_for("knn", k=1), X, y)
    p = model.predict_proba(X)
    assert set(np.unique(p)) <= {0.0, 1.0}
    assert np.array_equal(p, y.astype(float))


def test_knn_ties_take_the_lowest_training_index():
    # rows 4 and 6 are the same point, labelled 0 and 1; every other row is
    # one farther point, so the nearest distance ties only between them
    X = np.full((8, 3), -2.0)
    X[[4, 6], 1] = 0.0
    y = np.array([0, 1, 0, 1, 0, 1, 1, 0])
    model = train(spec_for("knn", k=1), X, y)
    assert model.predict_proba(X[4:5])[0] == 0.0
    assert model.predict_proba(X[6:7])[0] == 0.0
    # k=2 takes rows 4 and 6; k=3 adds row 0, the lowest of the farther ones
    assert train(spec_for("knn", k=2), X, y).predict_proba(X[4:5])[0] == 0.5
    assert train(spec_for("knn", k=3), X, y).predict_proba(X[4:5])[0] == pytest.approx(1 / 3)


def test_gbm_zero_rounds_is_prior():
    X, y = separable_data(30)
    model = train(spec_for("gbm", n_estimators=0), X, y)
    assert np.allclose(model.predict_proba(X), y.mean())


def test_gbm_zero_learning_rate_stages_constant():
    X, y = separable_data(30)
    model = train(spec_for("gbm", n_estimators=8, learning_rate=0.0), X, y)
    prior = train(spec_for("gbm", n_estimators=0), X, y)
    # the margin never moves, so every round grows the first round's tree
    assert len(model.trees) == 8
    assert all(t.to_dict() == model.trees[0].to_dict() for t in model.trees)
    assert np.array_equal(model.predict_proba(X), prior.predict_proba(X))


def test_fixture_tree_walked_by_hand():
    # one split on feature 1 at 0.5: left leaf prob 0.25, right leaf 1.0
    X = np.array([[9.0, 0.0], [9.0, 0.1], [9.0, 0.2], [9.0, 0.3], [9.0, 1.0]])
    y = np.array([0, 0, 0, 1, 1])
    model = train(spec_for("decision_tree", max_depth=1, min_samples_leaf=1), X, y)
    (tree,) = model.trees
    assert tree.feature[0] == 1
    left, right = tree.left[0], tree.left[0] + 1
    got = {
        "threshold": float(tree.threshold[0]),
        "left": float(tree.value[left]),
        "right": float(tree.value[right]),
    }
    # best gini split separates {0,0,0,1} from {1}? enumerate by hand:
    # split at 0.65 -> left (0,0,0,1) gini .375, right (1) gini 0 -> dec .075
    # split at 0.15 -> left (0,0) 0, right (0,1,1) .444 -> dec .2133...
    # split at 0.25 -> left (0,0,0) 0, right (1,1) 0 -> decrease = .48 (best)
    assert got["threshold"] == pytest.approx(0.25)
    assert got["left"] == 0.0
    assert got["right"] == 1.0
    assert np.array_equal(model.predict(X), y)


def test_predict_width_mismatch():
    X, y = separable_data(20)
    model = train(spec_for("decision_tree"), X, y)
    with pytest.raises(ValueError, match="features"):
        model.predict_proba(X[:, :1])


# -------------------------------------------------------------- evaluate

def test_evaluate_perfect():
    X, y = separable_data(24)
    model = train(spec_for("knn", k=1), X, y)
    m = evaluate(model, X, y)
    assert m.accuracy == 1.0
    assert m.f1 == 1.0
    assert m.log_loss == pytest.approx(-math.log(1.0 - 1e-15), abs=1e-18)


def test_log_loss_constant_half_is_ln2():
    y = np.array([0, 1, 1, 0, 1])
    assert log_loss(y, np.full(5, 0.5)) == math.log(2.0)


def test_log_loss_hand_value():
    got = log_loss(np.array([1, 0]), np.array([0.9, 0.2]))
    assert got == pytest.approx(-(math.log(0.9) + math.log(0.8)) / 2.0, abs=1e-12)
    assert got == pytest.approx(0.1643, abs=5e-5)


def test_f1_harmonic_identity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        y = rng.integers(0, 2, size=40)
        p = rng.random(40)
        m = compute_metrics(y, p)
        if m.precision + m.recall > 0:
            want = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert abs(m.f1 - want) < 1e-12


def test_log_loss_clip_monotonicity():
    # clipping exists to bound the penalty of wrong extreme predictions;
    # with one present, shrinking epsilon never decreases the loss
    y = np.array([1, 0, 1])
    p = np.array([0.0, 1.0, 0.5])
    losses = [log_loss(y, p, eps) for eps in (1e-3, 1e-6, 1e-9, 1e-15)]
    assert all(a <= b for a, b in zip(losses, losses[1:]))


def test_evaluate_empty_set():
    X, y = separable_data(10)
    model = train(spec_for("knn"), X, y)
    with pytest.raises(ValueError):
        evaluate(model, X[:0], y[:0])


# ------------------------------------------------------------ importance

def test_single_informative_feature_native():
    X, y = separable_data(40)
    X = np.column_stack([X[:, 0]])  # single feature dataset
    model = train(spec_for("decision_tree", max_depth=3, min_samples_leaf=1), X, y)
    report = feature_importance(model, X, y, feature_names=["only"])
    assert report.method == "native_gain"
    assert report.ranked[0] == ("only", 1.0)


def test_noise_feature_permutation_near_zero():
    rng = np.random.default_rng(5)
    X, y = separable_data(60)
    X = np.column_stack([X[:, 0], rng.normal(size=60)])
    model = train(spec_for("knn", k=3), X, y)
    report = feature_importance(
        model, X, y, feature_names=["signal", "noise"], n_repeats=20, seed=1
    )
    assert report.method == "permutation"
    weights = dict(report.ranked)
    assert weights["signal"] > 0.5
    assert weights["noise"] < 0.15


def test_importance_needs_a_repeat():
    X, y = separable_data(20)
    model = train(spec_for("knn", k=3), X, y)
    with pytest.raises(ValueError, match="n_repeats must be at least 1, got 0"):
        feature_importance(model, X, y, n_repeats=0)


def test_sparse_permutation_importance_equals_dense():
    rng = np.random.default_rng(6)
    X = sp.random(40, 7, density=0.35, format="csr", random_state=6)
    y = (X[:, 0].toarray().ravel() + X[:, 3].toarray().ravel() > 0.4).astype(np.int64)
    model = train(spec_for("knn", k=3), X, y)
    dense = feature_importance(model, X.toarray(), y, n_repeats=4, seed=2)
    sparse = feature_importance(model, X, y, n_repeats=4, seed=2)
    assert sparse.ranked == dense.ranked
    assert sparse.ranked[0][1] > 0.0

    # the permuted column lands in the inverse-permuted rows, the rest stays
    Xc = X.tocsc()
    for f in range(X.shape[1]):
        perm = rng.permutation(X.shape[0])
        want = X.toarray()
        want[:, f] = want[perm, f]
        got = _permute_sparse_column(Xc, f, perm)
        assert got.format == "csr" and got.has_sorted_indices
        assert np.array_equal(got.toarray(), want)


def test_duplicated_column_gain_conserved_xgb():
    X, y = separable_data(50, seed=2)
    spec = spec_for("xgb", n_estimators=10, max_depth=2)
    single = train(spec, X, y)
    w_single = dict(
        feature_importance(single, X, y, feature_names=["a", "b"]).ranked
    )
    X_dup = np.column_stack([X[:, 0], X[:, 0], X[:, 1]])
    dup = train(spec, X_dup, y)
    w_dup = dict(
        feature_importance(dup, X_dup, y, feature_names=["a1", "a2", "b"]).ranked
    )
    assert w_dup["a1"] + w_dup["a2"] == pytest.approx(w_single["a"], abs=1e-9)
    assert w_dup["b"] == pytest.approx(w_single["b"], abs=1e-9)
    # tied gains go to the lowest column, so the copy is never chosen
    assert w_dup["a2"] == 0.0


def test_duplicated_column_never_split_on():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(120, 4))
    y = (X[:, 0] + 0.5 * X[:, 2] + 0.3 * rng.normal(size=120) > 0).astype(int)
    X_dup = np.column_stack([X, X[:, 0]])
    for kind in ("decision_tree", "adaboost", "gbm", "xgb"):
        hp = {} if kind == "decision_tree" else {"n_estimators": 20}
        model = train(spec_for(kind, **hp), X_dup, y)
        assert all((t.feature != 4).all() for t in model.trees), kind
        plain = train(spec_for(kind, **hp), X, y)
        assert np.array_equal(plain.predict_proba(X), model.predict_proba(X_dup)), kind


def test_native_weights_sum_to_one():
    X, y = separable_data(60, seed=6)
    for kind in ("decision_tree", "random_forest", "extra_trees", "adaboost", "gbm", "xgb"):
        model = train(spec_for(kind, n_estimators=5) if kind != "decision_tree" else spec_for(kind), X, y)
        report = feature_importance(model, X, y)
        total = sum(w for _, w in report.ranked)
        assert total == pytest.approx(1.0, abs=1e-9), kind
        assert all(w >= 0 for _, w in report.ranked)
        assert [w for _, w in report.ranked] == sorted(
            (w for _, w in report.ranked), reverse=True
        )


# ------------------------------------------------------------ grid search

def test_grid_single_spec():
    X, y = separable_data(40)
    spec = spec_for("decision_tree")
    best, table = grid_search([spec], X, y, val_fraction=0.25, seed=0)
    assert best == spec
    assert len(table) == 1


def test_grid_prefers_depth_three_on_xor():
    # replicate the xor pattern enough for a validation slice
    reps = 12
    X = np.tile(XOR_X, (reps, 1)) + np.random.default_rng(0).normal(
        scale=0.01, size=(4 * reps, 2)
    )
    y = np.tile(XOR_Y, reps)
    grid = [
        spec_for("decision_tree", max_depth=1, min_samples_leaf=1),
        spec_for("decision_tree", max_depth=3, min_samples_leaf=1),
    ]
    best, table = grid_search(grid, X, y, val_fraction=0.25, seed=1)
    assert best.hyperparameters["max_depth"] == 3
    accs = [row["val_accuracy"] for row in table]
    assert accs[1] > accs[0]


def test_grid_tie_breaks_to_first():
    X, y = separable_data(40)
    grid = [
        spec_for("decision_tree", max_depth=4, min_samples_leaf=1),
        spec_for("decision_tree", max_depth=5, min_samples_leaf=1),
    ]
    best, table = grid_search(grid, X, y, val_fraction=0.25, seed=0)
    assert table[0]["val_accuracy"] == table[1]["val_accuracy"] == 1.0
    assert best is grid[0]

    with pytest.raises(ValueError):
        grid_search([], X, y)


# ------------------------------------------------------------ invariants

def test_forest_one_tree_equals_plain_tree():
    X, y = separable_data(80, seed=9)
    y = (X[:, 0] * 3 + X[:, 1] > 1.2).astype(int)
    if len(np.unique(y)) < 2:
        y[0] = 1 - y[0]
    tree = train(spec_for("decision_tree", max_depth=6, min_samples_leaf=2), X, y)
    forest = train(
        spec_for(
            "random_forest",
            n_estimators=1,
            bootstrap=False,
            max_features=None,
            max_depth=6,
            min_samples_leaf=2,
        ),
        X,
        y,
    )
    assert np.array_equal(tree.predict_proba(X), forest.predict_proba(X))


def test_unlimited_tree_fits_consistent_data():
    rng = np.random.default_rng(11)
    X = rng.random((64, 3))
    y = rng.integers(0, 2, 64)
    model = train(spec_for("decision_tree", max_depth=None, min_samples_leaf=1), X, y)
    assert np.mean(model.predict(X) == y) == 1.0


# ----------------------------------------------------------- persistence

def test_save_load_roundtrip_tree_kinds(tmp_path):
    X, y = separable_data(50, seed=12)
    for kind in ("decision_tree", "random_forest", "extra_trees", "adaboost", "gbm", "xgb"):
        spec = spec_for(kind, n_estimators=4) if kind != "decision_tree" else spec_for(kind)
        model = train(spec, X, y)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.allclose(loaded.predict_proba(X), model.predict_proba(X)), kind


def test_load_rejects_corrupt_trees(tmp_path):
    X, y = separable_data(50, seed=14)
    model = train(spec_for("decision_tree", max_depth=3, min_samples_leaf=1), X, y)
    path = tmp_path / "tree.json"
    save_model(model, path)
    good = path.read_text()
    internal = int(np.flatnonzero(model.trees[0].feature >= 0)[-1])

    def corrupt(edit):
        doc = json.loads(good)
        edit(doc["state"]["trees"][0])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="corrupt tree"):
            load_model(path)

    corrupt(lambda t: t["value"].pop())
    corrupt(lambda t: t["feature"].__setitem__(0, 2))
    corrupt(lambda t: t["feature"].__setitem__(0, -2))
    corrupt(lambda t: t["left"].__setitem__(internal, len(t["left"]) - 1))
    corrupt(lambda t: t["left"].__setitem__(0, len(t["left"])))


def test_load_rejects_malformed_documents(tmp_path):
    X, y = separable_data(30, seed=15)
    model = train(spec_for("decision_tree", max_depth=2), X, y)
    path = tmp_path / "tree.json"
    save_model(model, path)
    good = path.read_text()

    def malformed(edit, match):
        doc = json.loads(good)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match) as info:
            load_model(path)
        assert str(path) in str(info.value)

    malformed(lambda d: d["state"]["trees"][0].pop("gain"), "gain")
    malformed(lambda d: d.pop("n_features"), "n_features")
    malformed(lambda d: d.update(state=[]), "cannot load model: state is not an object")
    malformed(lambda d: d["state"]["trees"][0].update(value={"a": 1}), "cannot load model")
    malformed(lambda d: d["state"]["trees"][0]["value"].pop(), "corrupt tree")
    malformed(lambda d: d["hyperparameters"].update(max_depth="abc"), "max_depth='abc'")
    malformed(lambda d: d["hyperparameters"].update(max_depht=3), "max_depht")
    malformed(lambda d: d.update(hyperparameters=[3]), "not an object")
    malformed(lambda d: d.update(kind="svm"), "unknown classifier kind 'svm'")
    malformed(lambda d: d.update(column_names=["a"]), "column_names")
    malformed(lambda d: d.update(column_names=list(range(d["n_features"]))), "column_names")
    malformed(lambda d: d.update(format_version=1), "model format version 1; this dupliq reads version 2")
    path.write_text(json.dumps([json.loads(good)]))
    with pytest.raises(ValueError, match=r"model format version \(none\); this dupliq reads version 2"):
        load_model(path)


def test_load_rejects_an_alpha_per_stump_mismatch(tmp_path):
    X, y = separable_data(30, seed=15)
    y[:3] = 1 - y[:3]  # not separable by one stump, so boosting keeps several
    path = tmp_path / "adaboost.json"
    save_model(train(spec_for("adaboost", n_estimators=4), X, y), path)
    doc = json.loads(path.read_text())
    assert len(doc["state"]["alphas"]) > 1
    doc["state"]["alphas"].pop()
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="alphas") as info:
        load_model(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("kind", KINDS)
def test_predict_rejects_nan_and_inf(kind):
    X, y = separable_data(40, seed=16)
    Xs = sp.csr_matrix(np.abs(X))
    for train_X in (X, Xs):
        model = train(spec_for(kind), train_X, y)
        for bad_value in (np.nan, np.inf, -np.inf):
            bad = np.abs(X[:3]).copy()
            bad[1, 0] = bad_value
            for given in (bad, sp.csr_matrix(bad)):
                with pytest.raises(ValueError, match="NaN or infinity"):
                    model.predict_proba(given)
        assert model.predict_proba(train_X[:3]).shape == (3,)


def test_packed_predict_matches_tree_by_tree():
    X, y = separable_data(80, seed=15)
    y = (np.sin(4 * X.sum(axis=1)) > 0).astype(int)
    for kind in ("random_forest", "adaboost", "gbm", "xgb"):
        model = train(spec_for(kind, n_estimators=15), X, y)
        leaves = np.column_stack([tree_apply_dense(t, X) for t in model.trees])
        assert np.array_equal(TreePack(model.trees).leaf_values(X), leaves), kind
        if kind in ("gbm", "xgb"):
            want = np.full(len(X), model.base_margin)
            for t in range(len(model.trees)):
                want += model.hyperparameters["learning_rate"] * leaves[:, t]
            assert np.array_equal(model.predict_proba(X), _sigmoid(want)), kind
        one_by_one = [model.predict_proba(X[i : i + 1])[0] for i in range(len(X))]
        assert np.array_equal(one_by_one, model.predict_proba(X)), kind


def test_save_load_knn_reference(tmp_path):
    from dupliq.featmat import FeatureMatrix, save_matrix

    X, y = separable_data(30, seed=13)
    m = FeatureMatrix(["f0", "f1"], X, y)
    feat_path = tmp_path / "train.csv"
    save_matrix(m, feat_path)
    model = train(spec_for("knn", k=3), X, y)
    path = tmp_path / "knn.json"
    with pytest.raises(ValueError):
        save_model(model, path)
    save_model(model, path, train_data_path=str(feat_path))
    loaded = load_model(path)
    assert np.allclose(loaded.predict_proba(X), model.predict_proba(X))
    # the training file's hash is required
    doc = json.loads(path.read_text())
    del doc["state"]["train_sha256"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: cannot load model: missing key 'train_sha256'"):
        load_model(path)


# ------------------------------------------------------- saved model bytes

def pinned_matrices():
    """A fixed signed dense matrix and a fixed nonnegative sparse one, with
    their labels."""
    rng = np.random.default_rng(40)
    X = np.round(rng.normal(size=(48, 5)), 3)
    y = (X[:, 0] + X[:, 1] * X[:, 2] + 0.5 * rng.normal(size=48) > 0).astype(np.int64)
    S = np.round(rng.random((48, 12)), 3) * (rng.random((48, 12)) < 0.3)
    S[:, 0] += 0.5 * y
    return {"dense": X, "sparse": sp.csr_matrix(S)}, y


def pinned_model(kind, X, y):
    hp = {"seed": 3}
    if "n_estimators" in DEFAULT_HYPERPARAMETERS[kind]:
        hp["n_estimators"] = 6
    return train(ClassifierSpec(kind, hp), X, y)


def saved_model_bytes(tmp_path, kind, X, y) -> bytes:
    model = pinned_model(kind, X, y)
    path = tmp_path / f"{kind}.json"
    if kind != "knn":
        save_model(model, path)
        return path.read_bytes()
    # a knn model names its training file by absolute path and sha256
    (tmp_path / "train.csv").write_text("f0\n")
    save_model(model, path, train_data_path=str(tmp_path / "train.csv"))
    doc = json.loads(path.read_text())
    del doc["state"]["train_data"], doc["state"]["train_sha256"]
    return json.dumps(doc, sort_keys=True).encode()


# sha256 of the saved models of pinned_model on pinned_matrices(), in model
# format 2, where a tree's right children are its left ones plus one and are
# not stored; knn's without its training file's path and sha256
MODEL_SHA256 = {
    ("knn", "dense"): "61eee21a070e05abfb9acffaf76dd4be2f03527e7402bc67f5d055a8d476e3c0",
    ("knn", "sparse"): "65ffa7e9b1c4e7bacd25a9284d2bbef07450ecd5cdfdf3b778bce31050126368",
    ("adaboost", "dense"): "82bb4734d50a4d7671b0195c92217c9d93336e364b688b038096b0221138b2f3",
    ("adaboost", "sparse"): "e339af3635518e9dd9f41beca970ae27455059cd3c4f7a44fe44de2500ef0bfe",
    ("xgb", "dense"): "dd0c48293882fa665cbc72bea8c76617fa8b6e879358e8410b6b740f4e5d6590",
    ("xgb", "sparse"): "d087174bfeb22ebc798bbe0d714dbc0af17cb4c7e7befb3c4f0647f96a0668b1",
    ("gbm", "dense"): "1921f39202417a137eb01da008d6dd0163f958a0501ef0f5441631ac41d89dd1",
    ("gbm", "sparse"): "0c10a4a1244ab418e4b9544a4f0cf22e6a0864a652fb9d48246ac4681368df80",
    ("decision_tree", "dense"): "4116d79e3c652fae4f0e50d1663f270f3606a6fc9ac50ce21000f4bd5ab9e5c0",
    ("decision_tree", "sparse"): "79772b7cddf2168aab5d622b690423a0679d1070e446381651ac189cf1fb1c24",
    ("random_forest", "dense"): "29d78274bd53755fe3d8a22ec683a7433711c0fcdd9b07966354f68a0fbdf549",
    ("random_forest", "sparse"): "886ce31cb4d4de92378275e78d437d9c77cf4b123bbae7f7ae7a45e54c609be7",
    ("extra_trees", "dense"): "e638dabc409e444f87c7a4fb4be0e68adb27c66b996cf4284eccdaa4c52d4fb6",
    ("extra_trees", "sparse"): "9aace652ee349ed2f08938a8fd9768cbc1b2083eb9a56804c41b2d80b93ac684",
}


@pytest.mark.parametrize("layout", ["dense", "sparse"])
@pytest.mark.parametrize("kind", KINDS)
def test_saved_model_bytes_are_stable(tmp_path, kind, layout):
    matrices, y = pinned_matrices()
    digest = hashlib.sha256(saved_model_bytes(tmp_path, kind, matrices[layout], y)).hexdigest()
    assert digest == MODEL_SHA256[kind, layout]


@pytest.mark.parametrize("layout", ["dense", "sparse"])
@pytest.mark.parametrize("kind", KINDS)
def test_load_then_save_reproduces_the_file(tmp_path, kind, layout):
    """A loaded model saves the bytes it was loaded from, column names too;
    knn names a real training file, which the load re-reads and re-hashes."""
    from dupliq.featmat import FeatureMatrix, save_matrix
    from dupliq.sparse_io import save_sparse_features

    matrices, y = pinned_matrices()
    X = matrices[layout]
    names = [f"f{j}" for j in range(X.shape[1])]
    train_file = None
    if kind == "knn":
        train_file = str(tmp_path / ("train.csv" if layout == "dense" else "train.npz"))
        if layout == "dense":
            save_matrix(FeatureMatrix(names, X, y), train_file)
        else:
            save_sparse_features(train_file, X, y, names)
    first, again = tmp_path / "model.json", tmp_path / "again.json"
    save_model(pinned_model(kind, X, y), first, train_file, names)
    loaded = load_model(first)
    save_model(loaded, again, train_file, loaded.column_names)
    assert again.read_bytes() == first.read_bytes()


# ------------------------------------------------------- hyperparameters

BAD_HYPERPARAMETERS = [
    ("decision_tree", "max_depht", 3),
    ("decision_tree", "n_estimators", 1),
    ("extra_trees", "bootstrap", True),
    ("knn", "seed", -1),
    ("knn", "seed", "0"),
    ("knn", "k", 0),
    ("knn", "k", True),
    ("knn", "k", 2.0),
    ("random_forest", "n_estimators", 0),
    ("random_forest", "n_estimators", -3),
    ("extra_trees", "n_estimators", 0),
    ("adaboost", "n_estimators", -1),
    ("xgb", "n_estimators", 1.5),
    ("decision_tree", "max_depth", -1),
    ("decision_tree", "max_depth", "abc"),
    ("gbm", "min_samples_leaf", 0),
    ("random_forest", "max_features", "log2"),
    ("random_forest", "max_features", 0),
    ("random_forest", "bootstrap", 1),
    ("xgb", "learning_rate", math.inf),
    ("xgb", "learning_rate", math.nan),
    ("xgb", "learning_rate", None),
    ("gbm", "subsample", 0),
    ("gbm", "subsample", 1.5),
    ("xgb", "lambda", -1),
    ("xgb", "gamma", -0.5),
    ("xgb", "gamma", False),
]

GOOD_HYPERPARAMETERS = [
    ("adaboost", "n_estimators", 0),
    ("gbm", "n_estimators", 0),
    ("random_forest", "n_estimators", 1),
    ("decision_tree", "max_depth", None),
    ("decision_tree", "max_depth", 0),
    ("random_forest", "max_features", None),
    ("random_forest", "max_features", 3),
    ("random_forest", "bootstrap", False),
    ("xgb", "learning_rate", -0.1),
    ("gbm", "subsample", 1),
    ("xgb", "lambda", 0),
    ("knn", "k", np.int64(2)),
]


@pytest.mark.parametrize("kind, name, value", BAD_HYPERPARAMETERS)
def test_resolved_refuses_bad_hyperparameters(kind, name, value):
    spec = ClassifierSpec(kind, {name: value})
    with pytest.raises(ValueError) as info:
        spec.resolved()
    message = str(info.value)
    assert kind in message and name in message and repr(value) in message
    with pytest.raises(ValueError):
        ClassifierSpec.from_dict(spec.to_dict())


@pytest.mark.parametrize("kind, name, value", GOOD_HYPERPARAMETERS)
def test_resolved_takes_allowed_hyperparameters(kind, name, value):
    hp = ClassifierSpec(kind, {name: value}).resolved()
    assert hp == {**DEFAULT_HYPERPARAMETERS[kind], name: value}


def test_from_dict_refuses_what_is_not_a_spec():
    for entry in (["xgb"], "xgb", {"hyperparameters": {}}, {"kind": "xgb", "hyperparameters": [3]},
                  {"kind": "xgb", "hyperparams": {}}):
        with pytest.raises(ValueError, match="kind, hyperparameters"):
            ClassifierSpec.from_dict(entry)
    with pytest.raises(ValueError, match="unknown classifier kind 'svm'"):
        ClassifierSpec.from_dict({"kind": "svm"})


@pytest.mark.parametrize("kind", ["random_forest", "extra_trees"])
def test_forest_grows_its_trees_in_one_level_pass_per_batch(monkeypatch, kind):
    """A 100-tree forest of depth 12 searches each level of a batch of trees
    in one pass: at most 13 passes a batch, not 13 a tree."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(300, 16))
    y = (X[:, 0] + X[:, 1] + rng.normal(scale=0.5, size=300) > 0).astype(np.int64)
    calls = []
    search = _tree._best_splits
    monkeypatch.setattr(_tree, "_best_splits", lambda *args: calls.append(1) or search(*args))
    model = train(ClassifierSpec(kind, {"n_estimators": 100, "max_depth": 12, "min_samples_leaf": 1}), X, y)
    assert len(model.trees) == 100
    per_batch = _tree.trees_per_batch(300, 4)
    assert 1 < per_batch < 100
    assert len(calls) <= math.ceil(100 / per_batch) * 13
