"""The tree builder, its split criteria, and batch routing.

``grow_tree`` grows every tree of every tree-based classifier, from dense
or sparse input, in the presorted, level-wise style of XGBoost's exact
greedy algorithm (Chen & Guestrin 2016, arXiv:1603.02754).  The matrix
becomes entry arrays sorted once by (column, value, row)
(``ColumnEntries``).  A sparse matrix keeps only its stored entries; the
others are implicit zeros, which go left of any positive threshold, so
its values must be nonnegative.  A dense matrix keeps every entry, so its
values may be signed.

The entries and the rows stay partitioned by node: each node owns one
contiguous block of each, in the (column, value, row) order, and a split
moves every block's left part before its right part without reordering
either.  One tree level then takes one vectorized pass over the entries
of its open nodes, grouped by (node, column), plus one call of the
criterion's ``leaf`` per new leaf.

Criteria.  A ``Criterion`` is all a tree optimizes: per-row stats ``a``
and ``b``, a per-side ``score`` of their sums, the ``leaf`` value of a
set of rows, and an optional ``is_pure`` test that keeps a node from
being searched.  A split's recorded gain,
``scale * (score_left + score_right - score_parent) - penalty``, must
exceed ``min_gain``, which is ``MIN_GAIN`` unless said otherwise.

* ``gini(w, y)`` (forests, decision_tree, AdaBoost): a = w * y, b = w;
  the score ``-a (b - a) / b`` is the negative weighted impurity, and a
  leaf is the weighted share of class 1.  Pure nodes stay leaves, and
  impure ones split on any valid candidate (``min_gain`` is -inf).
* ``newton(g, h, lam, gamma)`` (xgb): a = gradient, b = hessian, score
  ``a^2 / (b + lam)``, scale 0.5, penalty gamma, leaf ``-G / (H + lam)``.
* ``residual(r, weight, h)`` (gbm): score ``r^2 / weight``, which is
  variance reduction on the residuals, and leaf ``R / H``, one Newton step.

A leaf sums its own rows with ``.sum()``; the level's ``np.add.reduceat``
totals round differently and would change saved models.

Candidates of a (node, column) group: the midpoints between consecutive
distinct values, and for sparse input the zero boundary (zeros left,
stored values right) at half the smallest stored value.  Each child must
hold a count of at least ``max(min_samples_leaf, 1)``.

Tie rule.  Among a node's candidates, ``best`` is the largest gain; every
candidate with ``gain >= best - TIE_RTOL * (|best| + |parent score|)`` is
tied, and the tied candidate with the lowest column, then the lowest
threshold, wins.  Candidates whose gains are mathematically equal (two
columns inducing the same partition, for instance) thus never depend on
the order in which floats were summed.

A node is open, and searched, when it is above ``max_depth``, holds at
least two rows with a positive count, and is not pure.  Random draws come
level by level: one column sample per open node (when ``max_features`` is
below the column count), in node order, then one threshold per (open
node, sampled column) pair whose values in the node are not all equal
(extra trees), in (node, column) order.

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
from typing import Callable

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


@dataclass(frozen=True)
class Criterion:
    """What a tree optimizes; see the module docstring."""

    a: np.ndarray
    b: np.ndarray
    score: Callable  # (summed a, summed b) -> score of a side
    leaf: Callable  # training row indices -> leaf value
    is_pure: Callable | None = None  # (summed a, summed b) -> no split wanted
    min_gain: float = MIN_GAIN
    scale: float = 1.0
    penalty: float = 0.0


def _gini_score(a, b):
    # negative weighted impurity: -b * p * (1 - p) with p = a / b; an empty
    # side (b = 0, only reachable as an invalid candidate) scores 0
    return -(a * (b - a)) / np.maximum(b, 1e-300)


def _gini_is_pure(a, b):
    return (a == 0.0) | (a == b)


def gini(w: np.ndarray, y: np.ndarray) -> Criterion:
    """Gini impurity over rows of weight ``w`` and 0/1 label ``y``."""

    def leaf(rows):
        tw = w[rows].sum()
        return (w[rows] * y[rows]).sum() / tw if tw > 0 else 0.5

    return Criterion(w * y, w, _gini_score, leaf, is_pure=_gini_is_pure, min_gain=-np.inf)


def newton(g: np.ndarray, h: np.ndarray, lam: float, gamma: float) -> Criterion:
    """Second-order boosting on gradients ``g`` and hessians ``h``, with
    L2 leaf regularization ``lam`` and split penalty ``gamma``."""

    def score(a, b):
        # saturated probabilities can drive the hessian sum to exactly 0
        return (a * a) / np.maximum(b + lam, 1e-300)

    def leaf(rows):
        return -g[rows].sum() / max(h[rows].sum() + lam, 1e-300)

    return Criterion(g, h, score, leaf, scale=0.5, penalty=gamma)


def residual(r: np.ndarray, weight: np.ndarray, h: np.ndarray) -> Criterion:
    """First-order boosting: splits reduce the variance of the residuals
    ``r`` over rows of ``weight``; leaves take a Newton step on ``h``."""

    def score(a, b):
        return (a * a) / np.maximum(b, 1e-300)

    def leaf(rows):
        denom = h[rows].sum()
        return r[rows].sum() / denom if denom > 1e-12 else 0.0

    return Criterion(r, weight, score, leaf)


class ColumnEntries:
    """A feature matrix as entry arrays sorted by (column, value, row):
    the stored entries of a sparse matrix, whose values must then be
    nonnegative, or every entry of a dense one.  Row and column indices
    are stored as int32."""

    def __init__(self, X):
        if sp.issparse(X):
            X = sp.csc_matrix(X, copy=True)
            X.sum_duplicates()
            X.eliminate_zeros()
            if X.data.size and X.data.min() < 0:
                raise ValueError("sparse feature values must be nonnegative")
            cols = np.repeat(np.arange(X.shape[1]), np.diff(X.indptr))
            order = np.lexsort((X.data, cols))
            rows, cols, values = X.indices[order], cols[order], X.data[order]
        else:
            X = np.asarray(X, dtype=np.float64)
            order = np.argsort(X, axis=0, kind="stable")
            rows = order.T.ravel()
            cols = np.repeat(np.arange(X.shape[1]), X.shape[0])
            values = np.take_along_axis(X, order, axis=0).T.ravel()
        self.n_rows, self.n_cols = X.shape
        self.erow = rows.astype(np.int32)
        self.ecol = cols.astype(np.int32)
        self.evals = values.astype(np.float64)


def grow_tree(
    entries: ColumnEntries,
    criterion: Criterion,
    counts: np.ndarray,
    max_depth: int | None,
    min_samples_leaf: int,
    max_features: int | None,
    rng: np.random.Generator,
    random_thresholds: bool = False,
) -> tuple[Tree, np.ndarray]:
    """Grow one tree; returns it with each training row's leaf value (NaN
    for rows whose count is 0, which take no part in the growing)."""
    a, b = criterion.a, criterion.b
    min_leaf = max(int(min_samples_leaf), 1)
    counts = np.asarray(counts, dtype=np.int64)
    sample_cols = max_features is not None and max_features < entries.n_cols
    rows = np.flatnonzero(counts > 0)
    # working copies index with intp, which numpy gathers fastest
    keep = np.flatnonzero(counts.take(entries.erow) > 0)
    erow = entries.erow.take(keep).astype(np.intp)
    ecol, evals = entries.ecol.take(keep), entries.evals.take(keep)
    row_len = np.array([len(rows)])
    ent_len = np.array([len(erow)])
    row_value = np.full(entries.n_rows, np.nan)
    levels = []
    n_done = 0
    depth = 0
    while True:
        k = len(row_len)
        rstart = np.cumsum(row_len) - row_len
        tot_a = np.add.reduceat(a.take(rows), rstart)
        tot_b = np.add.reduceat(b.take(rows), rstart)
        tot_c = np.add.reduceat(counts.take(rows), rstart)
        open_ = row_len >= 2
        if max_depth is not None and depth >= max_depth:
            open_[:] = False
        if criterion.is_pure is not None:
            open_ &= ~criterion.is_pure(tot_a, tot_b)

        feature = np.full(k, -1, dtype=np.int64)
        threshold = np.zeros(k)
        gain = np.zeros(k)
        if open_.any():
            e_node = np.repeat(np.arange(k), ent_len)
            node, col, val, row = e_node, ecol, evals, erow
            if sample_cols or not open_.all():
                sel = open_[e_node]
                if sample_cols:
                    sampled = np.zeros((k, entries.n_cols), dtype=bool)
                    for i in np.flatnonzero(open_):
                        sampled[i, rng.choice(entries.n_cols, size=max_features, replace=False)] = True
                    sel &= sampled[e_node, ecol]
                idx = np.flatnonzero(sel)
                node, col, val, row = e_node.take(idx), ecol.take(idx), evals.take(idx), erow.take(idx)
            nodes, f, t, g = _best_splits(
                node, col, val, row, counts, (tot_a, tot_b, tot_c), criterion, min_leaf, rng, random_thresholds
            )
            feature[nodes], threshold[nodes], gain[nodes] = f, t, g
        split = feature >= 0

        value = np.zeros(k)
        for i in np.flatnonzero(~split):
            leaf_rows = rows[rstart[i] : rstart[i] + row_len[i]]
            value[i] = criterion.leaf(leaf_rows)
            row_value[leaf_rows] = value[i]
        left = np.full(k, -1, dtype=np.int64)
        left[split] = n_done + k + 2 * np.arange(split.sum())
        right = np.where(split, left + 1, -1)
        levels.append((feature, threshold, left, right, value, gain, tot_c))
        n_done += k
        depth += 1
        if not split.any():
            break

        # route the rows of split nodes; rows without a stored entry in the
        # split column hold an implicit zero
        row_left = np.zeros(entries.n_rows, dtype=bool)
        row_left[rows] = np.repeat(threshold > 0.0, row_len)
        on = np.flatnonzero(ecol == feature.take(e_node))
        row_left[erow.take(on)] = evals.take(on) < threshold.take(e_node.take(on))
        if not split.all():
            rows = rows.take(np.flatnonzero(np.repeat(split, row_len)))
            e_keep = np.flatnonzero(np.repeat(split, ent_len))
            erow, ecol, evals = erow.take(e_keep), ecol.take(e_keep), evals.take(e_keep)
        order, row_len = _left_first(row_left.take(rows), row_len[split])
        rows = rows.take(order)
        if max_depth is not None and depth >= max_depth:
            # the children are leaves: only their rows are needed
            erow, ecol, evals = erow[:0], ecol[:0], evals[:0]
            ent_len = np.zeros_like(row_len)
        else:
            order, ent_len = _left_first(row_left.take(erow), ent_len[split])
            erow, ecol, evals = erow.take(order), ecol.take(order), evals.take(order)

    feature, threshold, left, right, value, gain, n_node = (np.concatenate(c) for c in zip(*levels))
    tree = Tree(feature=feature, threshold=threshold, left=left, right=right, value=value, gain=gain, n_node=n_node)
    return tree, row_value


def _left_first(go_left: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable order that moves each block's left elements before its right
    ones (blocks are consecutive and ``lens`` long), and the lengths of the
    resulting halves: left and right of block 0, then of block 1, ..."""
    n_keys = 2 * len(lens)
    # 16-bit keys let numpy's stable sort run as a radix sort
    dtype = np.uint16 if n_keys <= 1 << 16 else np.int64
    key = np.repeat(np.arange(0, n_keys, 2, dtype=dtype), lens)
    key += ~go_left
    return np.argsort(key, kind="stable"), np.bincount(key, minlength=n_keys)


def _best_splits(node, col, val, row, counts, totals, criterion, min_leaf, rng, random_thresholds):
    """Best split per node from entries sorted by (node, column, value);
    ``totals`` holds each node's sums of a, b and counts.

    Returns (nodes, columns, thresholds, gains) for the nodes that split."""
    m = len(node)
    if m == 0:  # no entries to split on
        return node, col, val, val
    tot_a, tot_b, tot_c = totals
    score = criterion.score
    parent_score = score(tot_a, tot_b)
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(col[1:], col[:-1], out=first[1:])
    first[1:] |= node[1:] != node[:-1]
    gstart = np.flatnonzero(first)
    glen = np.diff(gstart, append=m)
    glast = gstart + glen - 1
    gnode = node.take(gstart)

    # running sums over the whole level; a group's own sums are differences
    ga, gb, gc = criterion.a.take(row), criterion.b.take(row), counts.take(row)
    ca, cb = np.cumsum(ga), np.cumsum(gb)
    before_a, before_b = ca[gstart] - ga[gstart], cb[gstart] - gb[gstart]
    # stats of each group's implicit zeros (none for dense input)
    zero_c = tot_c[gnode] - np.add.reduceat(gc, gstart)
    has_zero = zero_c > 0
    zero_a = np.where(has_zero, tot_a[gnode] - (ca[glast] - before_a), 0.0)
    zero_b = np.where(has_zero, tot_b[gnode] - (cb[glast] - before_b), 0.0)

    if random_thresholds:
        lo = np.where(has_zero, 0.0, val[gstart])
        hi = val[glast]
        ok = hi > lo
        thr = np.zeros(len(gstart))
        thr[ok] = rng.uniform(lo[ok], hi[ok])
        zeros_left = has_zero & (thr > 0.0)
        is_left = val < np.repeat(thr, glen)
        grp = np.repeat(np.arange(len(gstart)), glen)
        la = zero_a * zeros_left + np.bincount(grp, ga * is_left, len(gstart))
        lb = zero_b * zeros_left + np.bincount(grp, gb * is_left, len(gstart))
        lc = zero_c * zeros_left + np.bincount(grp, gc * is_left, len(gstart)).astype(np.int64)
        ok &= (lc >= min_leaf) & (tot_c[gnode] - lc >= min_leaf)
        cnode, ccol = gnode, col.take(gstart)
        node_a, node_b, node_score = tot_a[cnode], tot_b[cnode], parent_score[cnode]
    else:
        # one candidate just below each entry: the zeros and the group's
        # earlier entries go left, at the midpoint with the previous value
        # (0 for a group's first entry, valid only if the group has zeros);
        # the candidates are then in (node, column, threshold) order
        prev = np.empty(m)
        prev[1:] = val[:-1]
        prev[gstart] = 0.0
        ok = prev < val
        ok[gstart] &= has_zero
        la = ca - ga + np.repeat(zero_a - before_a, glen)
        lb = cb - gb + np.repeat(zero_b - before_b, glen)
        cnode, ccol = node, col
        node_len = np.bincount(gnode, glen, len(tot_a)).astype(np.int64)
        node_a, node_b, node_score = (np.repeat(x, node_len) for x in (tot_a, tot_b, parent_score))
        # with min_leaf 1 every such candidate leaves a row on each side
        if min_leaf > 1:
            cc = np.cumsum(gc)
            lc = cc - gc + np.repeat(zero_c - (cc[gstart] - gc[gstart]), glen)
            ok &= lc >= min_leaf
            ok &= np.repeat(tot_c, node_len) - lc >= min_leaf
    raw = score(la, lb) + score(node_a - la, node_b - lb) - node_score
    gains = criterion.scale * raw - criterion.penalty
    ok &= gains > criterion.min_gain
    pick = _pick_best(cnode, gains, np.flatnonzero(ok), parent_score)
    if not random_thresholds:
        thr = 0.5 * (prev + val)
    return cnode[pick], ccol[pick], thr[pick], gains[pick]


def _pick_best(node, gain, ok, parent_score):
    """Index of each node's winner under the tie rule; ``ok`` indexes the
    valid candidates, which are sorted by (node, column, threshold)."""
    if not len(ok):
        return ok
    cnode, cgain = node.take(ok), gain.take(ok)
    starts = np.flatnonzero(np.r_[True, cnode[1:] != cnode[:-1]])
    best = np.maximum.reduceat(cgain, starts)
    floor = best - TIE_RTOL * (np.abs(best) + np.abs(parent_score[cnode[starts]]))
    tied = np.flatnonzero(cgain >= np.repeat(floor, np.diff(starts, append=len(ok))))
    first = tied[np.r_[True, cnode[tied[1:]] != cnode[tied[:-1]]]]
    return ok[first]


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
