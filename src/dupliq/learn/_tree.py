"""Trees, split criteria and batch routing shared by every tree-based classifier.

One builder (``_sparse.grow_tree_sparse``) grows every tree; it serves all
split criteria through two per-row stat channels ``a`` and ``b`` plus an
integer occurrence count:

* Gini trees (``_models._grow_gini``, for forests and AdaBoost) use
  a = weight * label, b = weight; the per-side score is
  ``-a (b - a) / b`` (negative weighted impurity), so maximizing
  ``score_L + score_R - score_parent`` maximizes the impurity decrease.
* Second-order boosting uses a = gradient sum, b = hessian sum with score
  ``a^2 / (b + lambda)``; first-order boosting is the same with unit
  hessians and lambda 0 (variance reduction on residuals).

Recorded split gain is ``score_scale * raw_gain - gain_penalty`` (0.5 and
gamma for the regularized booster, 1 and 0 otherwise) and a candidate
counts only when that value exceeds ``min_gain``.

Tie rule.  Among a node's candidates, ``best`` is the largest gain; every
candidate with ``gain >= best - TIE_RTOL * (|best| + |parent score|)`` is
tied, and the tied candidate with the lowest column, then the lowest
threshold, wins.  Candidates whose gains are mathematically equal (two
columns inducing the same partition, for instance) thus never depend on
the order in which floats were summed.

Node numbering is level order: the root is 0, and the children of the
split nodes of one depth are numbered after that whole depth, left before
right, in the order of their parents.  Routing only needs every child
index to exceed its parent's, which preorder numbering (used by models
saved before the builder became level-wise) satisfies as well, so such
models still load and predict the same.  ``Tree.from_dict`` enforces it,
so a corrupt model cannot make routing loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

MIN_GAIN = 1e-12
TIE_RTOL = 1e-9
# (row, tree) pairs routed per pass; bounds the routing temporaries
ROUTE_PAIRS = 1 << 14


@dataclass
class Tree:
    feature: np.ndarray  # int, -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # leaf payload
    gain: np.ndarray  # recorded gain at internal nodes
    n_node: np.ndarray  # row count per node

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "gain": self.gain.tolist(),
            "n_node": self.n_node.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "Tree":
        """Rebuild a saved tree; raises ValueError unless every array has
        one entry per node, every feature id is in [-1, n_features) and
        every internal node's children come after it."""
        tree = cls(
            feature=np.asarray(d["feature"], dtype=np.int64),
            threshold=np.asarray(d["threshold"], dtype=np.float64),
            left=np.asarray(d["left"], dtype=np.int64),
            right=np.asarray(d["right"], dtype=np.int64),
            value=np.asarray(d["value"], dtype=np.float64),
            gain=np.asarray(d["gain"], dtype=np.float64),
            n_node=np.asarray(d["n_node"], dtype=np.int64),
        )
        n = tree.n_nodes
        arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value, tree.gain, tree.n_node)
        if n == 0 or any(arr.shape != (n,) for arr in arrays):
            raise ValueError("corrupt tree: node arrays are empty or differ in length")
        if ((tree.feature < -1) | (tree.feature >= n_features)).any():
            raise ValueError(f"corrupt tree: feature id outside [-1, {n_features})")
        internal = np.flatnonzero(tree.feature >= 0)
        for child in (tree.left[internal], tree.right[internal]):
            if ((child <= internal) | (child >= n)).any():
                raise ValueError("corrupt tree: a child index does not follow its parent")
        return tree

    def feature_gains(self, n_features: int) -> np.ndarray:
        out = np.zeros(n_features)
        internal = self.feature >= 0
        np.add.at(out, self.feature[internal], self.gain[internal])
        return out


def gini_score(a, b):
    # negative weighted impurity: -b * p * (1 - p) with p = a / b; an empty
    # side (b = 0, only reachable as an invalid candidate) scores 0
    return -(a * (b - a)) / np.maximum(b, 1e-300)


def gini_is_pure(a, b):
    return (a == 0.0) | (a == b)


def make_grad_score(lam: float):
    def grad_score(a, b):
        # saturated probabilities can drive the hessian sum to exactly 0
        return (a * a) / np.maximum(b + lam, 1e-300)

    return grad_score


class TreePack:
    """Several trees as one set of node arrays (child indices offset per
    tree), so that all (row, tree) pairs are routed together, one
    vectorized step per depth."""

    def __init__(self, trees: list[Tree]):
        sizes = [t.n_nodes for t in trees]
        offsets = np.cumsum([0] + sizes)
        self.roots = offsets[:-1]
        self.feature = np.concatenate([t.feature for t in trees] + [np.empty(0, np.int64)])
        self.threshold = np.concatenate([t.threshold for t in trees] + [np.empty(0)])
        self.value = np.concatenate([t.value for t in trees] + [np.empty(0)])
        self.left = np.concatenate([t.left + o for t, o in zip(trees, offsets)] + [np.empty(0, np.int64)])
        self.right = np.concatenate([t.right + o for t, o in zip(trees, offsets)] + [np.empty(0, np.int64)])

    def leaf_values(self, X) -> np.ndarray:
        """Leaf value of every row in every tree, shape (n_rows, n_trees)."""
        n, n_trees = X.shape[0], len(self.roots)
        out = np.empty((n, n_trees))
        if n == 0 or n_trees == 0:
            return out
        value_at = _value_lookup(X)
        step = max(1, ROUTE_PAIRS // n_trees)
        for start in range(0, n, step):
            stop = min(n, start + step)
            pair_row = np.repeat(np.arange(start, stop), n_trees)
            cur = np.tile(self.roots, stop - start)
            live = np.flatnonzero(self.feature[cur] >= 0)
            while live.size:
                node = cur[live]
                go_left = value_at(pair_row[live], self.feature[node]) < self.threshold[node]
                node = np.where(go_left, self.left[node], self.right[node])
                cur[live] = node
                live = live[self.feature[node] >= 0]
            out[start:stop] = self.value[cur].reshape(stop - start, n_trees)
        return out


def _value_lookup(X):
    """A function (rows, cols) -> X[rows, cols] for a dense or sparse X."""
    if not sp.issparse(X):
        X = np.asarray(X, dtype=np.float64)
        return lambda rows, cols: X[rows, cols]
    X = sp.csr_matrix(X)
    if not X.has_canonical_format:
        X = X.copy()
        X.sum_duplicates()
    n_cols = X.shape[1]
    keys = np.repeat(np.arange(X.shape[0], dtype=np.int64), np.diff(X.indptr)) * n_cols + X.indices
    data = X.data.astype(np.float64)

    def value_at(rows, cols):
        want = rows.astype(np.int64) * n_cols + cols
        if not len(keys):
            return np.zeros(len(want))
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[pos] == want, data[pos], 0.0)

    return value_at
