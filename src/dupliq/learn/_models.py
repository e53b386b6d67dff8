"""The seven classifier kinds over dense or sparse feature matrices.

Dense input is a float ndarray; sparse input is any scipy.sparse matrix
with nonnegative values (zeros are real zeros to the tree splitters, and
the nearest-neighbour model switches from euclidean to cosine distance).
Every kind is deterministic for a fixed seed.

This module alone decides a kind: its hyperparameters and defaults
(``DEFAULT_HYPERPARAMETERS``), their allowed values, and its class
(``MODEL_CLASS``), which trains it and writes and reads its saved state.
One class per way of combining trees, each keeping them in ``.trees``:
``ForestModel`` averages leaf probabilities (a decision_tree is a forest
of one tree grown on every column without bootstrap), ``AdaBoostModel``
takes a weighted vote of stumps, and ``BoostedTreesModel`` adds leaf
values to a logistic margin.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
import scipy.sparse as sp

from ._sparse import SparseColumns, grow_tree_sparse
from ._tree import Tree, TreePack, gini_is_pure, gini_score, make_grad_score

# floats per knn distance block, and per dense query block of a sparse one
DISTANCE_FLOATS = 2_000_000

# in the order of the paper's result tables
DEFAULT_HYPERPARAMETERS: dict[str, dict] = {
    "knn": {"k": 5, "seed": 0},
    "adaboost": {"n_estimators": 50, "seed": 0},
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
    "gbm": {
        "n_estimators": 200,
        "learning_rate": 0.1,
        "max_depth": 4,
        "min_samples_leaf": 1,
        "subsample": 1.0,
        "seed": 0,
    },
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
}

KINDS = tuple(DEFAULT_HYPERPARAMETERS)


def _int(low):
    return lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= low


def _number(test):
    return lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and test(v)


# name -> (test of a value, what it asks for); np.random.default_rng takes
# no negative seed
_ALLOWED = {
    "seed": (_int(0), "an integer >= 0"),
    "k": (_int(1), "an integer >= 1"),
    "n_estimators": (_int(0), "an integer >= 0"),
    "max_depth": (lambda v: v is None or _int(0)(v), "null or an integer >= 0"),
    "min_samples_leaf": (_int(1), "an integer >= 1"),
    "max_features": (lambda v: v in (None, "sqrt") or _int(1)(v), 'null, "sqrt" or an integer >= 1'),
    "bootstrap": (lambda v: isinstance(v, bool), "true or false"),
    "learning_rate": (_number(math.isfinite), "a finite number"),
    "subsample": (_number(lambda v: 0 < v <= 1), "a number in (0, 1]"),
    "lambda": (_number(lambda v: v >= 0), "a number >= 0"),
    "gamma": (_number(lambda v: v >= 0), "a number >= 0"),
}


def check_hyperparameters(kind, hp) -> None:
    """Raise ValueError unless ``kind`` is a classifier kind and ``hp``
    maps some of its hyperparameter names to allowed values."""
    if kind not in KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    if not isinstance(hp, dict):
        raise ValueError(f"{kind} hyperparameters are not an object: {hp!r}")
    names = DEFAULT_HYPERPARAMETERS[kind]
    for name, value in hp.items():
        if name not in names:
            raise ValueError(f"{kind} has no hyperparameter {name!r} (given {value!r}); it has {', '.join(names)}")
        test, wanted = _ALLOWED[name]
        if name == "n_estimators" and MODEL_CLASS[kind] is ForestModel:
            test, wanted = _int(1), "an integer >= 1"  # a forest of no trees averages nothing
        if not test(value):
            raise ValueError(f"{kind} hyperparameter {name}={value!r} is not {wanted}")


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
    if not np.all(np.isfinite(X.data if sp.issparse(X) else X)):
        raise ValueError(f"{what} features contain NaN or infinity")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class _BaseModel:
    # the training matrix's column names, when the saved model records them
    column_names: list[str] | None = None

    def __init__(self, kind: str, hyperparameters: dict, n_features: int):
        self.kind = kind
        self.hyperparameters = hyperparameters
        self.n_features = n_features

    def _check_input(self, X):
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"input has {X.shape[1]} features, model expects {self.n_features}"
            )
        _check_finite(X, "input")

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)

    def native_importance(self) -> np.ndarray | None:
        """Normalized split-gain importance; None for non-tree models."""
        return None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "hyperparameters": self.hyperparameters,
            "n_features": self.n_features,
            "state": self._state_dict(),
        }


class _TreeModel(_BaseModel):
    """A model over ``.trees``, routed together as one ``TreePack``."""

    def __init__(self, kind, hyperparameters, n_features, trees: list[Tree]):
        super().__init__(kind, hyperparameters, n_features)
        self.trees = trees
        self._pack = TreePack(trees)

    def native_importance(self, weights=None) -> np.ndarray:
        total = np.zeros(self.n_features)
        for i, tree in enumerate(self.trees):
            w = 1.0 if weights is None else weights[i]
            total += w * tree.feature_gains(self.n_features)
        s = total.sum()
        return total / s if s > 0 else total


def _grow_gini(sc, y, w, counts, **settings):
    """One Gini tree over rows of weight ``w``; a leaf holds the weighted
    share of class 1.  Impure nodes split whenever a valid candidate
    exists, so the minimum gain is -inf."""

    def leaf(rows):
        tw = w[rows].sum()
        return (w[rows] * y[rows]).sum() / tw if tw > 0 else 0.5

    return grow_tree_sparse(
        sc,
        a=w * y,
        b=w,
        counts=counts,
        score_fn=gini_score,
        leaf_value_fn=leaf,
        min_gain=-np.inf,
        purity_fn=gini_is_pure,
        **settings,
    )


class KnnModel(_BaseModel):
    def __init__(self, kind, hyperparameters, n_features, X, y):
        super().__init__(kind, hyperparameters, n_features)
        self.k = int(hyperparameters["k"])
        self.sparse = sp.issparse(X)
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

    @classmethod
    def train(cls, kind, hp, X, y):
        return cls(kind, hp, X.shape[1], X, y)

    @classmethod
    def from_state(cls, kind, hp, n_features, state):
        return cls(kind, hp, n_features, *state["training"])  # (X, y) of the named training file

    def predict_proba(self, X) -> np.ndarray:
        self._check_input(X)
        k = min(self.k, len(self.y))
        out = np.empty(X.shape[0])
        chunk = max(1, DISTANCE_FLOATS // max(len(self.y), X.shape[1], 1))
        for start in range(0, X.shape[0], chunk):
            block = X[start : start + chunk] if chunk < X.shape[0] else X
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
            # A dense unit query keeps the sums of the sparse formula
            # ``sp.diags(inv) @ block @ self._train_unit.T`` bit for bit, with
            # no transpose of the training matrix.  CSR times dense adds each
            # train row's products in its stored column order, descending since
            # ``sp.diags(inv) @ X`` built it; the sparse product adds the shared
            # columns in the scaled query's stored order, descending too.  The
            # columns the query lacks only add exact zeros.
            unit_t = block.T.toarray(order="C")  # (n_cols, rows)
            unit_t *= inv
            return 1.0 - (self._train_unit @ unit_t).T
        block = np.asarray(block, dtype=np.float64)
        sq = (block**2).sum(axis=1)
        d2 = sq[:, None] + self._sq[None, :] - 2.0 * block @ self._train.T
        return np.sqrt(np.maximum(d2, 0.0))

    def _state_dict(self) -> dict:
        return {"metric": self.metric, "k": self.k}


class ForestModel(_TreeModel):
    """Random forest, extra trees and the decision tree; probability is
    the mean of the per-tree leaf probabilities."""

    @classmethod
    def train(cls, kind, hp, X, y):
        sc = SparseColumns(X)
        n, n_features = X.shape
        rng = np.random.default_rng(hp["seed"])
        if kind == "decision_tree":
            n_trees, max_features, bootstrap = 1, None, False
        else:
            n_trees, max_features = hp["n_estimators"], hp["max_features"]
            bootstrap = kind == "random_forest" and hp["bootstrap"]
        if max_features == "sqrt":
            max_features = max(1, int(np.sqrt(n_features)))
        trees = []
        for _ in range(n_trees):
            if bootstrap:
                counts = rng.multinomial(n, np.full(n, 1.0 / n)).astype(np.int64)
            else:
                counts = np.ones(n, dtype=np.int64)
            tree, _ = _grow_gini(
                sc,
                y,
                counts.astype(np.float64),
                counts,
                max_depth=hp["max_depth"],
                min_samples_leaf=hp["min_samples_leaf"],
                max_features=max_features,
                rng=rng,
                random_thresholds=kind == "extra_trees",
            )
            trees.append(tree)
        return cls(kind, hp, n_features, trees)

    @classmethod
    def from_state(cls, kind, hp, n_features, state):
        # decision-tree files saved before it became a one-tree forest hold "tree"
        saved = [state["tree"]] if kind == "decision_tree" and "tree" in state else state["trees"]
        if not saved:
            raise ValueError(f"a {kind} needs at least one tree")
        return cls(kind, hp, n_features, [Tree.from_dict(t, n_features) for t in saved])

    def predict_proba(self, X) -> np.ndarray:
        self._check_input(X)
        # accumulate adds left to right, the order of a per-tree loop
        leaves = self._pack.leaf_values(X)
        return np.add.accumulate(leaves, axis=1, out=leaves)[:, -1] / len(self.trees)

    def _state_dict(self) -> dict:
        return {"trees": [t.to_dict() for t in self.trees]}


class AdaBoostModel(_TreeModel):
    """Discrete reweighting boosting over depth-1 stumps."""

    def __init__(self, kind, hyperparameters, n_features, trees, alphas):
        super().__init__(kind, hyperparameters, n_features, trees)
        self.alphas = alphas

    @classmethod
    def train(cls, kind, hp, X, y):
        sc = SparseColumns(X)
        n = X.shape[0]
        rng = np.random.default_rng(hp["seed"])
        w = np.full(n, 1.0 / n)
        counts = np.ones(n, dtype=np.int64)
        stumps: list[Tree] = []
        alphas: list[float] = []
        for _ in range(hp["n_estimators"]):
            stump, leaf = _grow_gini(
                sc, y, w, counts, max_depth=1, min_samples_leaf=1, max_features=None, rng=rng
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
        return cls(kind, hp, X.shape[1], stumps, alphas)

    @classmethod
    def from_state(cls, kind, hp, n_features, state):
        trees = [Tree.from_dict(t, n_features) for t in state["stumps"]]
        alphas = list(state["alphas"])
        if len(alphas) != len(trees):
            raise ValueError(f"adaboost has {len(trees)} stumps but {len(alphas)} alphas")
        return cls(kind, hp, n_features, trees, alphas)

    def predict_proba(self, X) -> np.ndarray:
        self._check_input(X)
        total = sum(self.alphas)
        if not total > 0:
            return np.full(X.shape[0], 0.5)
        # each tree's vote alpha * (leaf >= 0.5), added left to right
        leaves = self._pack.leaf_values(X)
        votes = np.greater_equal(leaves, 0.5, out=leaves)
        votes *= self.alphas
        return np.add.accumulate(votes, axis=1, out=votes)[:, -1] / total

    def native_importance(self) -> np.ndarray:
        return super().native_importance(self.alphas)

    def _state_dict(self) -> dict:
        return {"stumps": [t.to_dict() for t in self.trees], "alphas": self.alphas}


class BoostedTreesModel(_TreeModel):
    """Additive trees on logistic loss.

    kind "gbm": first-order residual fitting (variance-reduction splits)
    with a one-step Newton leaf value.  kind "xgb": second-order statistics
    with L2 leaf regularization lambda and split penalty gamma; the leaf
    weight is -G / (H + lambda) and the recorded split gain is
    0.5 * [GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)] - gamma.
    """

    def __init__(self, kind, hyperparameters, n_features, base_margin, trees):
        super().__init__(kind, hyperparameters, n_features, trees)
        self.base_margin = base_margin

    @classmethod
    def train(cls, kind, hp, X, y):
        sc = SparseColumns(X)
        n = X.shape[0]
        rng = np.random.default_rng(hp["seed"])
        lr = float(hp["learning_rate"])
        subsample = float(hp["subsample"])
        prior = y.mean()
        base_margin = float(np.log(prior / (1.0 - prior)))
        margin = np.full(n, base_margin)
        lam = float(hp["lambda"]) if kind == "xgb" else 0.0
        gamma = float(hp["gamma"]) if kind == "xgb" else 0.0
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

    @classmethod
    def from_state(cls, kind, hp, n_features, state):
        trees = [Tree.from_dict(t, n_features) for t in state["trees"]]
        return cls(kind, hp, n_features, state["base_margin"], trees)

    def predict_proba(self, X) -> np.ndarray:
        self._check_input(X)
        lr = float(self.hyperparameters["learning_rate"])
        # [base_margin, lr * leaf_0, lr * leaf_1, ...], added left to right
        terms = np.empty((X.shape[0], len(self.trees) + 1))
        terms[:, 0] = self.base_margin
        np.multiply(self._pack.leaf_values(X), lr, out=terms[:, 1:])
        return _sigmoid(np.add.accumulate(terms, axis=1, out=terms)[:, -1])

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


MODEL_CLASS = {"knn": KnnModel, "adaboost": AdaBoostModel, "xgb": BoostedTreesModel, "gbm": BoostedTreesModel}
MODEL_CLASS.update(dict.fromkeys(("decision_tree", "random_forest", "extra_trees"), ForestModel))
