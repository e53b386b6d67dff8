"""The seven classifier kinds over dense or sparse feature matrices.

Dense input is a float ndarray; sparse input is any scipy.sparse matrix
with nonnegative values (zeros are real zeros to the tree splitters, and
the nearest-neighbour model switches from euclidean to cosine distance).
Every kind is deterministic for a fixed seed.

This module alone decides a kind: its hyperparameters and defaults
(``DEFAULT_HYPERPARAMETERS``), their allowed values, and its class
(``MODEL_CLASS``), which trains it and writes and reads its saved state.
``KnnModel`` saves its training rows and labels, so a saved knn needs no
other file, and reading them back applies training's checks.
One class per way of combining trees, each keeping them in ``.trees``:
``ForestModel`` averages leaf probabilities (a decision_tree is a forest
of one tree grown on every column without bootstrap), ``AdaBoostModel``
takes a weighted vote of stumps, and ``BoostedTreesModel`` adds leaf
values to a logistic margin.  Each grows its trees with ``_tree``'s
``grow_tree``, passing the split criterion of its kind: ``gini`` for the
forests and AdaBoost, ``newton`` for xgb and ``residual`` for gbm.  A
forest grows its trees in batches (``trees_per_batch``), one level of a
whole batch per pass.  Its trees draw from their own random streams,
spawned from the seed (``np.random.SeedSequence(seed).spawn``): tree t
draws its bootstrap counts, then its column samples and thresholds, from
stream t, so the forest does not depend on the batches.  AdaBoost and the
boosters grow one tree at a time, each round's on the last one's output.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
import scipy.sparse as sp

from ._tree import ColumnEntries, Tree, TreePack, gini, grow_tree, newton, residual, saved_array, trees_per_batch

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


def _row_norms(X: sp.csr_matrix) -> np.ndarray:
    """Euclidean norm of each row, bit for bit as scipy's
    ``sqrt(X.multiply(X).sum(axis=1))`` on canonical input: ``multiply``
    keeps each row's squares that are not 0 in stored order, and the sum
    takes one ``np.add.reduceat`` over the rows left non-empty."""
    if not X.has_canonical_format:
        X = X.copy()
        X.sum_duplicates()
    sq = X.data * X.data
    kept = sq != 0
    bounds = np.concatenate(([0], np.cumsum(kept)))[X.indptr]
    starts = bounds[:-1]
    nonempty = bounds[1:] > starts
    sums = np.zeros(X.shape[0])
    sums[nonempty] = np.add.reduceat(sq[kept], starts[nonempty])
    return np.sqrt(sums)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _probability_trees(saved: list, n_features: int) -> list[Tree]:
    # the saved trees of a forest or of AdaBoost, whose leaves are probabilities
    trees = [Tree.from_dict(t, n_features) for t in saved]
    if any(((t.value < 0) | (t.value > 1)).any() for t in trees):
        raise ValueError("a leaf value is not a probability in [0, 1]")
    return trees


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


class KnnModel(_BaseModel):
    """The share of label 1 among the k nearest training rows, by euclidean
    distance (dense) or cosine distance (sparse); it saves those rows."""

    def __init__(self, kind, hyperparameters, n_features, X, y):
        super().__init__(kind, hyperparameters, n_features)
        # no sum of squares either metric takes can overflow below this
        self._bound = math.sqrt(np.finfo(np.float64).max / (4 * max(n_features, 1)))
        self._check_magnitude(X, "training")
        self.k = int(hyperparameters["k"])
        self.sparse = sp.issparse(X)
        self.metric = "cosine" if self.sparse else "euclidean"
        if self.sparse:
            self._train = sp.csr_matrix(X, dtype=np.float64)
            norms = _row_norms(self._train)
            inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
            self._train_unit = sp.diags(inv) @ self._train
        else:
            # C order, as loaded, so that the BLAS product sums in one order
            self._train = np.ascontiguousarray(X, dtype=np.float64)
            self._sq = (self._train**2).sum(axis=1)
        self.y = np.asarray(y, dtype=np.int64)

    @classmethod
    def train(cls, kind, hp, X, y):
        return cls(kind, hp, X.shape[1], X, y)

    @classmethod
    def from_state(cls, kind, hp, n_features, state):
        labels = saved_array(state["labels"], "labels", "i")
        if state["metric"] == "cosine":
            csr = [saved_array(state[n], n, k) for n, k in zip(("data", "indices", "indptr"), ("if", "i", "i"))]
            X = sp.csr_matrix(tuple(csr), shape=(len(csr[2]) - 1, n_features))
            X.check_format(full_check=True)
        elif state["metric"] == "euclidean":
            X = saved_array(state["rows"], "rows", "if")
            if X.ndim != 2 or X.shape[1] != n_features:
                raise ValueError(f"knn rows are not rows of {n_features} values")
        else:
            raise ValueError(f"knn metric {state['metric']!r} is neither cosine nor euclidean")
        return cls(kind, hp, n_features, X, _validate_training_input(X, labels))

    def _check_magnitude(self, X, what: str) -> None:
        values = X.data if sp.issparse(X) else X
        if values.size and np.abs(values).max() > self._bound:
            raise ValueError(f"{what} features exceed {self._bound:.4g} in magnitude, where knn distances overflow")

    def predict_proba(self, X) -> np.ndarray:
        self._check_input(X)
        self._check_magnitude(X, "input")
        out = np.empty(X.shape[0])
        chunk = max(1, DISTANCE_FLOATS // max(len(self.y), X.shape[1], 1))
        for start in range(0, X.shape[0], chunk):
            block = X[start : start + chunk] if chunk < X.shape[0] else X
            # the k nearest by (distance, train index): a stable sort keeps
            # the lowest index first among equal distances
            neighbours = np.argsort(self._distances(block), axis=1, kind="stable")[:, : self.k]
            out[start : start + chunk] = self.y[neighbours].mean(axis=1)
        return out

    def _distances(self, block) -> np.ndarray:
        if self.sparse:
            block = sp.csr_matrix(block, dtype=np.float64)
            norms = _row_norms(block)
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
        if self.sparse:
            rows = {name: getattr(self._train, name).tolist() for name in ("data", "indices", "indptr")}
        else:
            rows = {"rows": self._train.tolist()}
        return {"metric": self.metric, **rows, "labels": self.y.tolist()}


class ForestModel(_TreeModel):
    """Random forest, extra trees and the decision tree; probability is
    the mean of the per-tree leaf probabilities."""

    @classmethod
    def train(cls, kind, hp, X, y):
        entries = ColumnEntries(X)
        n, n_features = X.shape
        if kind == "decision_tree":
            n_trees, max_features, bootstrap = 1, None, False
        else:
            n_trees, max_features = hp["n_estimators"], hp["max_features"]
            bootstrap = kind == "random_forest" and hp["bootstrap"]
        if max_features == "sqrt":
            max_features = max(1, int(np.sqrt(n_features)))
        # one stream per tree, so that a tree does not depend on the batch
        # it grows in
        streams = np.random.SeedSequence(hp["seed"]).spawn(n_trees)
        per_batch = trees_per_batch(n, min(max_features or n_features, n_features))
        trees = []
        for first in range(0, n_trees, per_batch):
            rngs = [np.random.default_rng(s) for s in streams[first : first + per_batch]]
            if bootstrap:
                counts = np.stack([rng.multinomial(n, np.full(n, 1.0 / n)) for rng in rngs]).astype(np.int64)
            else:
                counts = np.ones((len(rngs), n), dtype=np.int64)
            batch, _ = grow_tree(
                entries,
                gini(counts.ravel().astype(np.float64), np.tile(y, len(rngs))),
                counts,
                max_depth=hp["max_depth"],
                min_samples_leaf=hp["min_samples_leaf"],
                max_features=max_features,
                rngs=rngs,
                random_thresholds=kind == "extra_trees",
            )
            trees += batch
        return cls(kind, hp, n_features, trees)

    @classmethod
    def from_state(cls, kind, hp, n_features, state):
        if not state["trees"]:
            raise ValueError(f"a {kind} needs at least one tree")
        return cls(kind, hp, n_features, _probability_trees(state["trees"], n_features))

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
        entries = ColumnEntries(X)
        n = X.shape[0]
        rng = np.random.default_rng(hp["seed"])
        w = np.full(n, 1.0 / n)
        counts = np.ones((1, n), dtype=np.int64)
        stumps: list[Tree] = []
        alphas: list[float] = []
        for _ in range(hp["n_estimators"]):
            [stump], [leaf] = grow_tree(
                entries, gini(w, y), counts, max_depth=1, min_samples_leaf=1, max_features=None, rngs=[rng]
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
        trees = _probability_trees(state["stumps"], n_features)
        alphas = list(state["alphas"])
        if len(alphas) != len(trees):
            raise ValueError(f"adaboost has {len(trees)} stumps but {len(alphas)} alphas")
        # training weighs every stump by a positive alpha
        if not all(map(_number(lambda v: 0 < v < math.inf), alphas)) or not math.isfinite(sum(alphas)):
            raise ValueError("an adaboost alpha is not a finite number > 0, or their sum is not finite")
        return cls(kind, hp, n_features, trees, alphas)

    def predict_proba(self, X) -> np.ndarray:
        self._check_input(X)
        total = sum(self.alphas)
        if not total > 0:
            return np.full(X.shape[0], 0.5)
        # each tree's vote alpha * (leaf >= 0.5), added left to right
        votes = (self._pack.leaf_values(X) >= 0.5) * self.alphas
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
        entries = ColumnEntries(X)
        n = X.shape[0]
        rng = np.random.default_rng(hp["seed"])
        lr = float(hp["learning_rate"])
        subsample = float(hp["subsample"])
        prior = y.mean()
        base_margin = float(np.log(prior / (1.0 - prior)))
        margin = np.full(n, base_margin)
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
            h = p * (1.0 - p) * csel
            if kind == "xgb":
                criterion = newton((p - y) * csel, h, float(hp["lambda"]), float(hp["gamma"]))
            else:
                criterion = residual((y - p) * csel, csel, h)
            [tree], [leaf] = grow_tree(
                entries,
                criterion,
                counts[None],
                max_depth=hp["max_depth"],
                min_samples_leaf=hp["min_samples_leaf"],
                max_features=None,
                rngs=[rng],
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
        base_margin = state["base_margin"]
        if not _number(math.isfinite)(base_margin):
            raise ValueError(f"base_margin is not a finite number: {base_margin!r}")
        # a bound on every margin predict_proba sums, so that none overflows
        reach = sum(float(abs(t.value).max()) for t in trees)
        if not math.isfinite(abs(base_margin) + abs(hp["learning_rate"]) * reach):
            raise ValueError("the leaf values can take a margin past the float range")
        return cls(kind, hp, n_features, base_margin, trees)

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


MODEL_CLASS = {"knn": KnnModel, "adaboost": AdaBoostModel, "xgb": BoostedTreesModel, "gbm": BoostedTreesModel}
MODEL_CLASS.update(dict.fromkeys(("decision_tree", "random_forest", "extra_trees"), ForestModel))
