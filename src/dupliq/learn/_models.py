"""The seven classifier kinds over dense or sparse feature matrices.

Dense input is a float ndarray; sparse input is any scipy.sparse matrix
with nonnegative values (zeros are real zeros to the tree splitters, and
the nearest-neighbour model switches from euclidean to cosine distance).
Every kind is deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ._sparse import SparseColumns, grow_tree_sparse
from ._tree import Tree, TreePack, gini_is_pure, gini_score, make_grad_score

KINDS = (
    "knn",
    "decision_tree",
    "random_forest",
    "extra_trees",
    "adaboost",
    "gbm",
    "xgb",
)

DEFAULT_HYPERPARAMETERS: dict[str, dict] = {
    "knn": {"k": 5, "seed": 0},
    "decision_tree": {"max_depth": 12, "min_samples_leaf": 10, "seed": 0},
    "random_forest": {
        "n_estimators": 100,
        "max_depth": 12,
        "min_samples_leaf": 10,
        "max_features": "sqrt",
        "bootstrap": True,
        "seed": 0,
    },
    "extra_trees": {
        "n_estimators": 100,
        "max_depth": 12,
        "min_samples_leaf": 10,
        "max_features": "sqrt",
        "seed": 0,
    },
    "adaboost": {"n_estimators": 50, "seed": 0},
    "gbm": {
        "n_estimators": 200,
        "learning_rate": 0.1,
        "max_depth": 4,
        "min_samples_leaf": 1,
        "subsample": 1.0,
        "seed": 0,
    },
    "xgb": {
        "n_estimators": 200,
        "learning_rate": 0.1,
        "max_depth": 4,
        "min_samples_leaf": 1,
        "subsample": 1.0,
        "lambda": 1.0,
        "gamma": 0.0,
        "seed": 0,
    },
}


def _is_sparse(X) -> bool:
    return sp.issparse(X)


def _validate_training_input(X, y):
    y = np.asarray(y)
    n = X.shape[0]
    if n != len(y):
        raise ValueError(f"X has {n} rows but y has {len(y)} labels")
    if n < 2:
        raise ValueError("need at least 2 training rows")
    classes = np.unique(y)
    if not np.isin(classes, [0, 1]).all():
        raise ValueError("labels must be 0 or 1")
    if len(classes) < 2:
        raise ValueError("training labels contain a single class")
    _check_finite(X, "training")
    return y.astype(np.int64)


def _check_finite(X, what: str) -> None:
    if not np.all(np.isfinite(X.data if _is_sparse(X) else X)):
        raise ValueError(f"{what} features contain NaN or infinity")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class _BaseModel:
    kind: str = ""
    # the training matrix's column names, when the saved model records them
    column_names: list[str] | None = None

    def __init__(self, hyperparameters: dict, n_features: int):
        self.hyperparameters = hyperparameters
        self.n_features = n_features

    def _check_input(self, X):
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"input has {X.shape[1]} features, model expects {self.n_features}"
            )
        _check_finite(X, "input")

    def predict_proba(self, X) -> np.ndarray:
        raise NotImplementedError

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)

    def native_importance(self) -> np.ndarray | None:
        """Normalized split-gain importance; None for non-tree models."""
        return None

    def _state_dict(self) -> dict:
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "hyperparameters": self.hyperparameters,
            "n_features": self.n_features,
            "state": self._state_dict(),
        }


def _normalized_gains(trees: list[Tree], n_features: int, weights=None) -> np.ndarray:
    total = np.zeros(n_features)
    for i, tree in enumerate(trees):
        w = 1.0 if weights is None else weights[i]
        total += w * tree.feature_gains(n_features)
    s = total.sum()
    return total / s if s > 0 else total


class KnnModel(_BaseModel):
    kind = "knn"

    def __init__(self, hyperparameters, n_features, X, y):
        super().__init__(hyperparameters, n_features)
        self.k = int(hyperparameters["k"])
        if self.k < 1:
            raise ValueError("k must be >= 1")
        self.sparse = _is_sparse(X)
        self.metric = "cosine" if self.sparse else "euclidean"
        if self.sparse:
            self._train = sp.csr_matrix(X, dtype=np.float64)
            norms = np.sqrt(np.asarray(self._train.multiply(self._train).sum(axis=1)).ravel())
            inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
            self._train_unit = sp.diags(inv) @ self._train
        else:
            self._train = np.asarray(X, dtype=np.float64)
            self._sq = (self._train**2).sum(axis=1)
        self.y = np.asarray(y, dtype=np.int64)

    def predict_proba(self, X) -> np.ndarray:
        self._check_input(X)
        k = min(self.k, len(self.y))
        out = np.empty(X.shape[0])
        # bound the dense distance block to ~2M floats
        chunk = max(1, 2_000_000 // max(len(self.y), 1))
        for start in range(0, X.shape[0], chunk):
            block = X[start : start + chunk]
            d = self._distances(block)
            # neighbours ordered by (distance, train index) for determinism
            if k < d.shape[1]:
                part = np.argpartition(d, k - 1, axis=1)[:, :k]
            else:
                part = np.broadcast_to(np.arange(d.shape[1]), (d.shape[0], d.shape[1]))
            rows = np.arange(d.shape[0])[:, None]
            order = np.lexsort((part, d[rows, part]), axis=1)
            neighbours = part[rows, order][:, :k]
            out[start : start + chunk] = self.y[neighbours].mean(axis=1)
        return out

    def _distances(self, block) -> np.ndarray:
        if self.sparse:
            block = sp.csr_matrix(block, dtype=np.float64)
            norms = np.sqrt(np.asarray(block.multiply(block).sum(axis=1)).ravel())
            inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
            unit = sp.diags(inv) @ block
            sims = (unit @ self._train_unit.T).toarray()
            return 1.0 - sims
        block = np.asarray(block, dtype=np.float64)
        sq = (block**2).sum(axis=1)
        d2 = sq[:, None] + self._sq[None, :] - 2.0 * block @ self._train.T
        return np.sqrt(np.maximum(d2, 0.0))

    def _state_dict(self) -> dict:
        return {"metric": self.metric, "k": self.k}


class DecisionTreeModel(_BaseModel):
    kind = "decision_tree"

    def __init__(self, hyperparameters, n_features, tree: Tree):
        super().__init__(hyperparameters, n_features)
        self.tree = tree
        self._pack = TreePack([tree])

    @classmethod
    def train(cls, hp, X, y, sc):
        n = X.shape[0]
        a = y.astype(np.float64)
        b = np.ones(n)
        counts = np.ones(n, dtype=np.int64)
        rng = np.random.default_rng(hp["seed"])
        tree, _ = grow_tree_sparse(
            sc,
            a=a,
            b=b,
            counts=counts,
            score_fn=gini_score,
            leaf_value_fn=lambda rows: y[rows].mean(),
            max_depth=hp["max_depth"],
            min_samples_leaf=hp["min_samples_leaf"],
            max_features=None,
            rng=rng,
            min_gain=-np.inf,
            purity_fn=gini_is_pure,
        )
        return cls(hp, X.shape[1], tree)

    def predict_proba(self, X) -> np.ndarray:
        self._check_input(X)
        return self._pack.leaf_values(X)[:, 0]

    def native_importance(self) -> np.ndarray:
        return _normalized_gains([self.tree], self.n_features)

    def _state_dict(self) -> dict:
        return {"tree": self.tree.to_dict()}


class ForestModel(_BaseModel):
    """Random forest and extra trees; probability is the mean of the
    per-tree leaf probabilities, so one tree without bootstrap reduces to
    the plain decision tree."""

    def __init__(self, kind, hyperparameters, n_features, trees: list[Tree]):
        super().__init__(hyperparameters, n_features)
        self.kind = kind
        self.trees = trees
        self._pack = TreePack(trees)

    @classmethod
    def train(cls, kind, hp, X, y, sc):
        n, n_features = X.shape
        rng = np.random.default_rng(hp["seed"])
        max_features = hp.get("max_features", "sqrt")
        if max_features == "sqrt":
            max_features = max(1, int(np.sqrt(n_features)))
        bootstrap = bool(hp.get("bootstrap", False)) if kind == "random_forest" else False
        random_thresholds = kind == "extra_trees"
        trees = []
        for _ in range(hp["n_estimators"]):
            if bootstrap:
                counts = rng.multinomial(n, np.full(n, 1.0 / n)).astype(np.int64)
            else:
                counts = np.ones(n, dtype=np.int64)
            w = counts.astype(np.float64)
            a = w * y
            leaf_fn = _weighted_mean_leaf(y, w)
            tree, _ = grow_tree_sparse(
                sc,
                a=a,
                b=w,
                counts=counts,
                score_fn=gini_score,
                leaf_value_fn=leaf_fn,
                max_depth=hp["max_depth"],
                min_samples_leaf=hp["min_samples_leaf"],
                max_features=max_features,
                rng=rng,
                random_thresholds=random_thresholds,
                min_gain=-np.inf,
                purity_fn=gini_is_pure,
            )
            trees.append(tree)
        return cls(kind, hp, n_features, trees)

    def predict_proba(self, X) -> np.ndarray:
        self._check_input(X)
        total = np.zeros(X.shape[0])
        for leaf in self._pack.leaf_values(X).T:
            total += leaf
        return total / len(self.trees)

    def native_importance(self) -> np.ndarray:
        return _normalized_gains(self.trees, self.n_features)

    def _state_dict(self) -> dict:
        return {"trees": [t.to_dict() for t in self.trees]}


def _weighted_mean_leaf(y, w):
    def leaf(rows):
        tw = w[rows].sum()
        return (w[rows] * y[rows]).sum() / tw if tw > 0 else 0.5

    return leaf


class AdaBoostModel(_BaseModel):
    """Discrete reweighting boosting over depth-1 stumps."""

    kind = "adaboost"

    def __init__(self, hyperparameters, n_features, stumps, alphas):
        super().__init__(hyperparameters, n_features)
        self.stumps = stumps
        self.alphas = alphas
        self._pack = TreePack(stumps)

    @classmethod
    def train(cls, hp, X, y, sc):
        n = X.shape[0]
        rng = np.random.default_rng(hp["seed"])
        w = np.full(n, 1.0 / n)
        counts = np.ones(n, dtype=np.int64)
        stumps: list[Tree] = []
        alphas: list[float] = []
        for _ in range(hp["n_estimators"]):
            stump, leaf = grow_tree_sparse(
                sc,
                a=w * y,
                b=w.copy(),
                counts=counts,
                score_fn=gini_score,
                leaf_value_fn=_weighted_mean_leaf(y, w),
                max_depth=1,
                min_samples_leaf=1,
                max_features=None,
                rng=rng,
                min_gain=-np.inf,
                purity_fn=gini_is_pure,
            )
            miss = (leaf >= 0.5) != y
            err = float(w[miss].sum())
            if err <= 0.0:
                stumps.append(stump)
                alphas.append(1.0)
                break
            if err >= 0.5:
                if not stumps:
                    stumps.append(stump)
                    alphas.append(1e-10)
                break
            alpha = float(np.log((1.0 - err) / err))
            stumps.append(stump)
            alphas.append(alpha)
            w = w * np.exp(alpha * miss)
            w /= w.sum()
        return cls(hp, X.shape[1], stumps, alphas)

    def predict_proba(self, X) -> np.ndarray:
        self._check_input(X)
        votes = np.zeros(X.shape[0])
        for leaf, alpha in zip(self._pack.leaf_values(X).T, self.alphas):
            votes += alpha * (leaf >= 0.5)
        total = sum(self.alphas)
        return votes / total if total > 0 else np.full(X.shape[0], 0.5)

    def native_importance(self) -> np.ndarray:
        return _normalized_gains(self.stumps, self.n_features, self.alphas)

    def _state_dict(self) -> dict:
        return {"stumps": [t.to_dict() for t in self.stumps], "alphas": self.alphas}


class BoostedTreesModel(_BaseModel):
    """Additive trees on logistic loss.

    kind "gbm": first-order residual fitting (variance-reduction splits)
    with a one-step Newton leaf value.  kind "xgb": second-order statistics
    with L2 leaf regularization lambda and split penalty gamma; the leaf
    weight is -G / (H + lambda) and the recorded split gain is
    0.5 * [GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)] - gamma.
    """

    def __init__(self, kind, hyperparameters, n_features, base_margin, trees):
        super().__init__(hyperparameters, n_features)
        self.kind = kind
        self.base_margin = base_margin
        self.trees = trees
        self._pack = TreePack(trees)

    @classmethod
    def train(cls, kind, hp, X, y, sc):
        n = X.shape[0]
        rng = np.random.default_rng(hp["seed"])
        lr = float(hp["learning_rate"])
        subsample = float(hp.get("subsample", 1.0))
        prior = y.mean()
        base_margin = float(np.log(prior / (1.0 - prior)))
        margin = np.full(n, base_margin)
        lam = float(hp.get("lambda", 0.0)) if kind == "xgb" else 0.0
        gamma = float(hp.get("gamma", 0.0)) if kind == "xgb" else 0.0
        score_fn = make_grad_score(lam)
        scale = 0.5 if kind == "xgb" else 1.0
        trees: list[Tree] = []
        for _ in range(hp["n_estimators"]):
            p = _sigmoid(margin)
            if subsample < 1.0:
                counts = (rng.random(n) < subsample).astype(np.int64)
                if counts.sum() < 2:
                    counts = np.ones(n, dtype=np.int64)
            else:
                counts = np.ones(n, dtype=np.int64)
            csel = counts.astype(np.float64)
            if kind == "xgb":
                g = (p - y) * csel
                h = p * (1.0 - p) * csel
                leaf_fn = _newton_leaf(g, h, lam)
                a, b = g, h
            else:
                r = (y - p) * csel
                h = p * (1.0 - p) * csel
                leaf_fn = _gbm_leaf(r, h)
                a, b = r, csel
            tree, leaf = grow_tree_sparse(
                sc,
                a=a,
                b=b,
                counts=counts,
                score_fn=score_fn,
                leaf_value_fn=leaf_fn,
                max_depth=hp["max_depth"],
                min_samples_leaf=hp["min_samples_leaf"],
                max_features=None,
                rng=rng,
                score_scale=scale,
                gain_penalty=gamma,
            )
            trees.append(tree)
            if lr != 0.0:
                if np.isnan(leaf).any():  # subsampled rows took no part in growing
                    leaf = TreePack([tree]).leaf_values(X)[:, 0]
                margin = margin + lr * leaf
        return cls(kind, hp, X.shape[1], base_margin, trees)

    def decision_margin(self, X, n_trees: int | None = None) -> np.ndarray:
        self._check_input(X)
        margin = np.full(X.shape[0], self.base_margin)
        lr = float(self.hyperparameters["learning_rate"])
        leaves = self._pack.leaf_values(X)
        for t in range(len(self.trees[:n_trees])):
            margin += lr * leaves[:, t]
        return margin

    def predict_proba(self, X, n_trees: int | None = None) -> np.ndarray:
        return _sigmoid(self.decision_margin(X, n_trees))

    def native_importance(self) -> np.ndarray:
        return _normalized_gains(self.trees, self.n_features)

    def _state_dict(self) -> dict:
        return {
            "base_margin": self.base_margin,
            "trees": [t.to_dict() for t in self.trees],
        }


def _newton_leaf(g, h, lam):
    def leaf(rows):
        return -g[rows].sum() / max(h[rows].sum() + lam, 1e-300)

    return leaf


def _gbm_leaf(r, h):
    def leaf(rows):
        denom = h[rows].sum()
        return r[rows].sum() / denom if denom > 1e-12 else 0.0

    return leaf


def train_model(kind: str, hyperparameters: dict, X, y) -> _BaseModel:
    if kind not in KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    y = _validate_training_input(X, y)
    hp = dict(DEFAULT_HYPERPARAMETERS[kind])
    hp.update(hyperparameters)
    if kind == "knn":
        return KnnModel(hp, X.shape[1], X, y)
    sc = SparseColumns(X)
    if kind == "decision_tree":
        return DecisionTreeModel.train(hp, X, y, sc)
    if kind in ("random_forest", "extra_trees"):
        return ForestModel.train(kind, hp, X, y, sc)
    if kind == "adaboost":
        return AdaBoostModel.train(hp, X, y, sc)
    return BoostedTreesModel.train(kind, hp, X, y, sc)
