"""The tree builder, its split criteria, and batch routing.

``grow_tree`` grows every tree of every tree-based classifier, from dense
or sparse input, in the presorted, level-wise style of XGBoost's exact
greedy algorithm (Chen & Guestrin 2016, arXiv:1603.02754).  The matrix
becomes entry arrays sorted once by (column, value, row)
(``ColumnEntries``).  A sparse matrix keeps only its stored entries; the
others are implicit zeros, which go left of any positive threshold, so
its values must be nonnegative.  A dense matrix keeps every entry, so its
values may be signed.

Batches.  ``grow_tree`` grows a batch of trees together, one level of all
of them per pass: a forest's trees are independent (Breiman 2001), so
they share each level's fixed cost.  Boosters, AdaBoost and the decision
tree grow batches of one tree.  Row r of tree t is the virtual row ``t *
n_rows + r``, and nodes are keyed (tree, node), tree-major, so a batch is
grown as one tree over the virtual rows whose first level holds one root
per tree.  A forest batches as many trees as keep a level's entries
(rows times columns searched per node, over the batch) within
``LEVEL_ENTRIES``.

The rows stay partitioned by node: each node owns one contiguous block,
and a split moves a block's left rows before its right ones without
reordering either.  The trees share the matrix's entries, shifting a
stored row to the tree's virtual row, and no entries are carried from
level to level.  Each level gathers the ones it searches: per tree, the
column index's ranges of the columns any of its open nodes sampled (all
columns without sampling), less the entries whose row is in no open
node or whose node did not sample their column.  It gathers them a run
of ranges at a time, each run ending within one window of
``LEVEL_ENTRIES`` entries, so that its temporaries do not grow with the
batch's whole matrix.  (A lone tree that counts every row and searches
every column takes the matrix's arrays as they are.)  A stable sort on
the node key then puts them in (node, column, value, row) order.  The
level takes one vectorized pass over them, grouped by (node, column),
and one call of the criterion's ``leaf`` on its nodes' totals.  Each
winner's (node, column) group holds its rows' stored values in the split
column, so routing reads only those entries, about one per row.

Criteria.  A ``Criterion`` is all a tree optimizes: per-row stats ``a``
and ``b`` (and ``h``, which only leaves read), a per-side ``score`` of
the sums of a and b, a node's ``leaf`` value from its sums, and an
optional ``is_pure`` test that keeps a node from being searched.  Each
level sums the stats over each node's rows in row order
(``np.add.reduceat``) and takes every leaf from those totals.  A split's
recorded gain, ``scale * (score_left + score_right - score_parent) -
penalty``, must exceed ``min_gain``, which is ``MIN_GAIN`` unless said
otherwise.

* ``gini(w, y)`` (forests, decision_tree, AdaBoost): a = w * y, b = w;
  the score ``-a (b - a) / b`` is the negative weighted impurity, and a
  leaf ``A / B`` is the weighted share of class 1.  Pure nodes stay
  leaves, and impure ones split on any valid candidate (``min_gain`` is
  -inf).
* ``newton(g, h, lam, gamma)`` (xgb): a = gradient, b = hessian, score
  ``a^2 / (b + lam)``, scale 0.5, penalty gamma, leaf ``-A / (B + lam)``.
* ``residual(r, weight, h)`` (gbm): score ``r^2 / weight``, which is
  variance reduction on the residuals, and leaf ``R / H``, one Newton step.

A candidate's left sums are differences of one running sum over its
tree's entries of the level, in (node, column, value, row) order, and
not of one per group or per node; as each tree's running sum starts at
its own first entry, no tree's sums depend on its batch.

Candidates of a (node, column) group: the midpoints between consecutive
distinct values, and for sparse input the zero boundary (zeros left,
stored values right) at half the smallest stored value.  Extra trees
(Geurts, Ernst & Wehenkel 2006) have one candidate per group instead, a
uniform threshold between its lowest value (0 if it has zeros) and its
highest; the entries below it are the group's first ones.  Each child
must hold a count of at least ``max(min_samples_leaf, 1)``.

Tie rule.  Among a node's candidates, ``best`` is the largest gain; every
candidate with ``gain >= best - TIE_RTOL * (|best| + |parent score|)`` is
tied, and the tied candidate with the lowest column, then the lowest
threshold, wins.  Candidates whose gains are mathematically equal (two
columns inducing the same partition, for instance) thus never depend on
the order in which floats were summed.

A node is open, and searched, when it is above ``max_depth``, holds at
least two rows with a positive count, and is not pure.  Random draws:
each tree draws from its own stream (``rngs[t]``), so a tree is the same
whatever batch it grows in.  Its caller draws its bootstrap counts from
it first.  Then, level by level, when ``max_features`` is below the
column count, the tree draws one uniform key per (open node, column), in
node order (``LEVEL_ENTRIES`` at a time, which leaves the values those
of one array), and each open node searches the columns whose key is at most
its ``max_features``-th smallest; then, for extra trees, one threshold
per (open node, sampled column) pair whose values in the node are not
all equal, in (node, column) order.

Each tree numbers its own nodes in level order: the root is 0, and the
children of the split nodes of one depth are numbered after that whole
depth, left before right, in the order of their parents.  So a split
node's children are adjacent, and a tree stores only the left one; the
right is ``left + 1``.  ``Tree.from_dict`` checks that both follow their
parent, so a corrupt model cannot make routing loop.
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
# entries searched per level of a batch of trees (rows times columns
# searched per node, over the batch), and entries gathered or column keys
# drawn per pass; bounds the level temporaries
LEVEL_ENTRIES = 1 << 15


@dataclass
class Tree:
    feature: np.ndarray  # int, -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray  # int, the left child of an internal node; the right is left + 1
    value: np.ndarray  # leaf payload
    gain: np.ndarray  # recorded gain at internal nodes
    n_node: np.ndarray  # row count per node

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in _NODE_ARRAYS}

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "Tree":
        """Rebuild a saved tree; raises ValueError unless every array has
        one finite number per node (an integer where int64 is stored), every
        feature id is in [-1, n_features), and every internal node's
        children, ``left`` and ``left + 1``, come after it within the tree."""
        arrays = {}
        for name, kinds in _NODE_ARRAYS.items():
            arr = np.asarray(d[name])
            if arr.size and (arr.dtype.kind not in kinds or not np.isfinite(arr).all()):
                raise ValueError(f"corrupt tree: {name} is not all {'integers' if kinds == 'i' else 'finite numbers'}")
            arrays[name] = arr.astype(np.int64 if kinds == "i" else np.float64)
        tree = cls(**arrays)
        n = tree.n_nodes
        if n == 0 or any(getattr(tree, name).shape != (n,) for name in _NODE_ARRAYS):
            raise ValueError("corrupt tree: node arrays are empty or differ in length")
        if ((tree.feature < -1) | (tree.feature >= n_features)).any():
            raise ValueError(f"corrupt tree: feature id outside [-1, {n_features})")
        internal = np.flatnonzero(tree.feature >= 0)
        left = tree.left[internal]
        if ((left <= internal) | (left >= n - 1)).any():
            raise ValueError("corrupt tree: a node's children, left and left + 1, do not follow it within the tree")
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
    leaf: Callable  # (summed a, summed b, summed h or None) -> leaf values
    h: np.ndarray | None = None  # a per-row stat summed for ``leaf`` alone
    is_pure: Callable | None = None  # (summed a, summed b) -> no split wanted
    min_gain: float = MIN_GAIN
    scale: float = 1.0
    penalty: float = 0.0


# a tree's saved arrays, each with the numpy kinds of number it holds
_NODE_ARRAYS = {"feature": "i", "threshold": "if", "left": "i", "value": "if", "gain": "if", "n_node": "i"}


def _gini_score(a, b):
    # negative weighted impurity: -b * p * (1 - p) with p = a / b; an empty
    # side (b = 0, only reachable as an invalid candidate) scores 0
    return -(a * (b - a)) / np.maximum(b, 1e-300)


def _gini_is_pure(a, b):
    return (a == 0.0) | (a == b)


def _gini_leaf(a, b, _):
    return np.divide(a, b, out=np.full(len(a), 0.5), where=b > 0)


def gini(w: np.ndarray, y: np.ndarray) -> Criterion:
    """Gini impurity over rows of weight ``w`` and 0/1 label ``y``."""
    return Criterion(w * y, w, _gini_score, _gini_leaf, is_pure=_gini_is_pure, min_gain=-np.inf)


def newton(g: np.ndarray, h: np.ndarray, lam: float, gamma: float) -> Criterion:
    """Second-order boosting on gradients ``g`` and hessians ``h``, with
    L2 leaf regularization ``lam`` and split penalty ``gamma``."""

    def score(a, b):
        # saturated probabilities can drive the hessian sum to exactly 0
        return (a * a) / np.maximum(b + lam, 1e-300)

    def leaf(a, b, _):
        return -a / np.maximum(b + lam, 1e-300)

    return Criterion(g, h, score, leaf, scale=0.5, penalty=gamma)


def residual(r: np.ndarray, weight: np.ndarray, h: np.ndarray) -> Criterion:
    """First-order boosting: splits reduce the variance of the residuals
    ``r`` over rows of ``weight``; leaves take a Newton step on ``h``."""

    def score(a, b):
        return (a * a) / np.maximum(b, 1e-300)

    def leaf(a, _, h):
        return np.divide(a, h, out=np.zeros(len(a)), where=h > 1e-12)

    return Criterion(r, weight, score, leaf, h=h)


class ColumnEntries:
    """A feature matrix as entry arrays sorted by (column, value, row):
    the stored entries of a sparse matrix, whose values must then be
    nonnegative, or every entry of a dense one.  Rows are stored as intp,
    which numpy gathers fastest, and columns as int32.  ``colptr`` is the
    column index: column j's entries are ``colptr[j]:colptr[j + 1]``."""

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
        self.erow = rows.astype(np.intp)
        self.ecol = cols.astype(np.int32)
        self.evals = values.astype(np.float64)
        self.colptr = np.searchsorted(self.ecol, np.arange(self.n_cols + 1))


def trees_per_batch(n_rows: int, n_cols_searched: int) -> int:
    """How many trees ``grow_tree`` grows in one pass, when each node of a
    tree searches ``n_cols_searched`` columns of ``n_rows`` rows: as many
    as keep a level within ``LEVEL_ENTRIES`` entries, and at least one."""
    return max(1, LEVEL_ENTRIES // max(1, n_rows * n_cols_searched))


def grow_tree(
    entries: ColumnEntries,
    criterion: Criterion,
    counts: np.ndarray,
    max_depth: int | None,
    min_samples_leaf: int,
    max_features: int | None,
    rngs: list[np.random.Generator],
    random_thresholds: bool = False,
) -> tuple[list[Tree], np.ndarray]:
    """Grow a batch of trees together: tree t on the rows that
    ``counts[t]`` counts (shape (n_trees, n_rows); every tree counts at
    least one row), drawing from ``rngs[t]``.  The criterion's a and b are
    indexed by virtual row ``t * n_rows + row``.  Returns the trees and
    each (tree, training row)'s leaf value, NaN where the row's count is 0:
    it takes no part in that tree."""
    a, b = criterion.a, criterion.b
    ab = _pair(a, b)
    min_leaf = max(int(min_samples_leaf), 1)
    counts = np.asarray(counts, dtype=np.int64)
    n_trees, n_rows = counts.shape
    vcounts = counts.ravel()
    sample_cols = max_features is not None and max_features < entries.n_cols
    rows = np.flatnonzero(vcounts > 0)
    # the trees share the matrix's entries, each shifting their rows to its
    # virtual rows; a lone tree that counts every row needs no shift
    shift = None if n_trees == 1 and len(rows) == n_rows else np.arange(n_trees) * n_rows
    row_len = np.bincount(rows // n_rows, minlength=n_trees)
    node_tree = np.arange(n_trees)
    row_value = np.full(n_trees * n_rows, np.nan)
    levels = []
    n_done = 0
    depth = 0
    while True:
        k = len(row_len)
        rstart = np.cumsum(row_len) - row_len
        tot_a = np.add.reduceat(a.take(rows), rstart)
        tot_b = np.add.reduceat(b.take(rows), rstart)
        tot_c = np.add.reduceat(vcounts.take(rows), rstart)
        tot_h = None if criterion.h is None else np.add.reduceat(criterion.h.take(rows), rstart)
        open_ = row_len >= 2
        if max_depth is not None and depth >= max_depth:
            open_[:] = False
        if criterion.is_pure is not None:
            open_ &= ~criterion.is_pure(tot_a, tot_b)

        feature = np.full(k, -1, dtype=np.int64)
        threshold = np.zeros(k)
        gain = np.zeros(k)
        if open_.any():
            sampled = _sample_columns(rngs, node_tree, open_, entries.n_cols, max_features) if sample_cols else None
            lcol, lval, lrow, node_len = _level_entries(
                entries, shift, rows, row_len, open_, node_tree, sampled, n_trees * n_rows
            )
            nodes, f, t, g, wstart, wlen = _best_splits(
                lcol, lval, lrow, node_len, node_tree, ab, vcounts, (tot_a, tot_b, tot_c), criterion, min_leaf, rngs,
                random_thresholds,
            )
            feature[nodes], threshold[nodes], gain[nodes] = f, t, g
        split = feature >= 0

        value = np.where(split, 0.0, criterion.leaf(tot_a, tot_b, tot_h))
        # a row's last value is that of its leaf
        row_value[rows] = np.repeat(value, row_len)
        # nodes are numbered across the batch in level order here, and per
        # tree at the end
        left = np.full(k, -1, dtype=np.int64)
        left[split] = n_done + k + 2 * np.arange(split.sum())
        levels.append((node_tree, feature, threshold, left, value, gain, tot_c))
        n_done += k
        depth += 1
        if not split.any():
            break

        # route the rows of split nodes by their entries in the winning
        # groups; rows without a stored entry there hold an implicit zero
        row_left = np.zeros(n_trees * n_rows, dtype=bool)
        row_left[rows] = np.repeat(threshold > 0.0, row_len)
        on = _ranges(wstart, wlen)
        row_left[lrow.take(on)] = lval.take(on) < np.repeat(t, wlen)
        if not split.all():
            rows = rows.take(np.flatnonzero(np.repeat(split, row_len)))
        order, row_len = _left_first(row_left.take(rows), row_len[split])
        rows = rows.take(order)
        node_tree = np.repeat(node_tree[split], 2)

    # a stable sort by tree puts each tree's nodes in its own level order;
    # a node's number in its tree is then its place among them
    node_tree, feature, threshold, left, value, gain, n_node = (np.concatenate(c) for c in zip(*levels))
    order = np.argsort(node_tree, kind="stable")
    size = np.bincount(node_tree, minlength=n_trees)
    end = np.cumsum(size)
    number = np.empty_like(order)
    number[order] = np.arange(len(order)) - np.repeat(end - size, size)
    internal = feature >= 0
    left[internal] = number.take(left[internal])
    fields = [x.take(order) for x in (feature, threshold, left, value, gain, n_node)]
    trees = [Tree(*(x[e - n : e] for x in fields)) for n, e in zip(size, end)]
    return trees, row_value.reshape(n_trees, n_rows)


def _sample_columns(rngs, node_tree, open_, n_cols, max_features):
    """The columns each open node searches, as a (nodes + 1, n_cols) mask
    whose last row (for rows of no open node) is empty.  Each tree draws
    one uniform key per (open node, column) from its own stream, for all
    its open nodes in node order; a node takes the columns whose key is at
    most its ``max_features``-th smallest.  The keys are drawn and ranked
    ``LEVEL_ENTRIES`` at a time, which leaves each stream's draws as one
    array's."""
    nodes = np.flatnonzero(open_)
    otree = node_tree.take(nodes)
    sampled = np.zeros((len(open_) + 1, n_cols), dtype=bool)
    step = max(1, LEVEL_ENTRIES // n_cols)
    keys = np.empty((min(step, len(nodes)), n_cols))
    for lo in range(0, len(nodes), step):
        chunk = keys[: min(step, len(nodes) - lo)]
        for start, end in zip(*_runs(otree[lo : lo + len(chunk)])):
            rngs[otree[lo + start]].random(out=chunk[start:end])
        kth = np.partition(chunk, max_features - 1, axis=1)[:, max_features - 1 : max_features]
        sampled[nodes[lo : lo + len(chunk)]] = chunk <= kth
    return sampled


def _level_entries(entries, shift, rows, row_len, open_, node_tree, sampled, n_virtual):
    """The entries one level searches: those of the open nodes' rows, in
    the columns each node searches (``sampled[node]``; every column when
    ``sampled`` is None).  Tree t's virtual rows are the stored rows plus
    ``shift[t]``; with no shift, the batch is one tree that counts every
    row.  Returns the level's (column, value, virtual row) arrays, sorted
    by (node, column, value, row), and each node's number of entries."""
    ecol, evals, erow, colptr = entries.ecol, entries.evals, entries.erow, entries.colptr
    k = len(row_len)
    # 16-bit keys let numpy's stable sort run as a radix sort; rows of
    # closed nodes are keyed k
    row_node = np.full(n_virtual, k, dtype=np.uint16 if k < 1 << 16 else np.intp)
    row_node[rows] = np.repeat(np.where(open_, np.arange(k), k), row_len)
    if shift is None and sampled is None:
        if k == 1:  # the root of a lone tree: every entry is its own
            return ecol, evals, erow, np.array([len(erow)])
        key = row_node.take(erow)
        node_len = np.bincount(key, minlength=k + 1)[:k]
        # entries keyed k sort last, and are cut
        idx = np.argsort(key, kind="stable")[: node_len.sum()]
        return ecol.take(idx), evals.take(idx), erow.take(idx), node_len
    # tree by tree, the ranges of the columns its open nodes search
    if sampled is None:
        tree = np.unique(node_tree[open_])
        lo, hi = np.zeros_like(tree), np.full_like(tree, len(erow))
    else:
        # a tree's closed nodes sampled no column
        starts = _runs(node_tree)[0]
        i, col = np.nonzero(np.logical_or.reduceat(sampled[:k], starts, axis=0))
        tree = node_tree.take(starts.take(i))
        lo, hi = colptr.take(col), colptr.take(col + 1)
    vshift = np.zeros_like(tree) if shift is None else shift.take(tree)
    # gathered and filtered a run of ranges at a time, each run ending in
    # one window of LEVEL_ENTRIES entries, which bounds the temporaries
    lens = hi - lo
    parts = []
    for a, b in zip(*_runs(np.cumsum(lens) // LEVEL_ENTRIES)):
        n = lens[a:b]
        idx = _ranges(lo[a:b], n)
        vrow = erow.take(idx)
        vrow += np.repeat(vshift[a:b], n)
        key = row_node.take(vrow)
        if sampled is None:
            sel = np.flatnonzero(key < k)
        else:
            # sampled[key, col], as a take from the flat array, which is faster
            flat = key.astype(np.intp)
            flat *= sampled.shape[1]
            flat += np.repeat(col[a:b], n)
            sel = np.flatnonzero(sampled.ravel().take(flat))
        parts.append((idx.take(sel), vrow.take(sel), key.take(sel)))
    idx, vrow, key = (np.concatenate(x) for x in zip(*parts))
    if open_.sum() > 1:
        order = np.argsort(key, kind="stable")
        idx, vrow = idx.take(order), vrow.take(order)
    return ecol.take(idx), evals.take(idx), vrow, np.bincount(key, minlength=k)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The indices ``starts[i]:starts[i] + lens[i]`` for every i, in order."""
    ends = np.cumsum(lens)
    return np.repeat(starts - (ends - lens), lens) + np.arange(ends[-1] if len(ends) else 0)


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


def _best_splits(col, val, row, node_len, node_tree, ab, counts, totals, criterion, min_leaf, rngs, random_thresholds):
    """Best split per node from one level's entries: consecutive node
    blocks ``node_len`` long, each sorted by (column, value, row), whose
    nodes belong to trees ``node_tree``; ``ab`` holds each virtual row's a
    and b as one complex number, and ``totals`` each node's sums of a, b
    and counts.

    Returns (nodes, columns, thresholds, gains, group starts, group
    lengths) for the nodes that split, where a winner's group is the
    range of its node's entries in its column."""
    m = len(col)
    if m == 0:  # no entries to split on
        none = np.empty(0, dtype=np.intp)
        return none, none, val, val, none, none
    tot_a, tot_b, tot_c = totals
    score = criterion.score
    parent_score = score(tot_a, tot_b)
    nodes = np.flatnonzero(node_len)
    nstart = np.cumsum(node_len).take(nodes) - node_len.take(nodes)
    # a group is one (node, column): it starts where the column changes or
    # a node block starts
    first = _changes(col)
    first[nstart] = True
    gstart = np.flatnonzero(first)
    n_groups = len(gstart)
    glen = _lengths(gstart, m)
    glast = gstart + glen - 1
    node_first_group = np.searchsorted(gstart, nstart)
    gnode = np.repeat(nodes, _lengths(node_first_group, n_groups))

    # stats of each group's implicit zeros (none for dense input)
    # a group's count is its length when no row counts more than once
    unit_counts = counts.max() <= 1
    zero_c = tot_c[gnode] - (glen if unit_counts else np.add.reduceat(counts.take(row), gstart))
    has_zero = zero_c > 0
    # s holds a side's sums of a and b as the two parts of a complex number:
    # numpy adds and subtracts complex numbers part by part, so each part
    # rounds as it would alone, and one cumsum runs both running sums
    node_ab = _pair(tot_a, tot_b)[gnode]
    # each tree's running sums start at its first entry, so that a tree's
    # sums do not depend on the trees grown beside it
    ntree = node_tree.take(nodes)
    tree_start = nstart.take(_runs(ntree)[0]) if ntree[0] != ntree[-1] else nstart[:1]
    s, before, zero = _running_sums(ab.take(row), tree_start, gstart, glast, node_ab, has_zero)

    def per_candidate(x):  # each candidate takes its group's value
        return x if random_thresholds else np.repeat(x, glen)

    if random_thresholds:
        # one candidate per group, at a uniform threshold in [lo, hi), where
        # lo is 0 for a group with zeros; a group whose values are all equal
        # keeps thr = lo and sends nothing left
        lo = np.where(has_zero, 0.0, val[gstart])
        hi = val[glast]
        ok = hi > lo
        thr = lo.copy()
        # each tree draws its groups' thresholds in (node, column) order
        drawn = np.flatnonzero(ok)
        dtree = node_tree.take(gnode.take(drawn))
        for start, end in zip(*_runs(dtree)):
            g = drawn[start:end]
            thr[g] = rngs[dtree[start]].uniform(lo.take(g), hi.take(g))
        zeros_left = has_zero & (thr > 0.0)
        # the entries below the threshold are the group's first ones, so
        # the left side's sums are the running sum at the first one above
        # it, less the group's start, plus the zeros
        cut = gstart + np.add.reduceat(val < np.repeat(thr, glen), gstart, dtype=np.intp)
        s = s.take(cut)
        s += zero * zeros_left - before
        if unit_counts:
            lc = cut - gstart
        else:
            gc = counts.take(row)
            cc = np.cumsum(gc) - gc
            lc = cc.take(cut) - cc.take(gstart)
        lc += zero_c * zeros_left
        ok &= (lc >= min_leaf) & (tot_c[gnode] - lc >= min_leaf)
        block_start = node_first_group
    else:
        # one candidate just below each entry: the zeros and the group's
        # earlier entries go left, at the midpoint with the previous value
        # (0 for a group's first entry, valid only if the group has zeros);
        # the candidates are then in (node, column, threshold) order
        ok = np.empty(m, dtype=bool)
        np.less(val[:-1], val[1:], out=ok[1:])
        ok[gstart] = has_zero & (0.0 < val[gstart])
        # the left side's sums, in place: (cumsum - own) + (zeros - before)
        s += per_candidate(zero - before)
        # with min_leaf 1 every such candidate leaves a row on each side
        if min_leaf > 1:
            gc = counts.take(row)
            lc = np.cumsum(gc) - gc
            lc += per_candidate(zero_c - lc[gstart])
            ok &= lc >= min_leaf
            ok &= per_candidate(tot_c[gnode]) - lc >= min_leaf
        block_start = nstart
    gains = score(s.real, s.imag)
    # the right side's sums, in place: node total - left
    np.subtract(per_candidate(node_ab), s, out=s)
    gains += score(s.real, s.imag)
    gains -= per_candidate(parent_score[gnode])
    gains *= criterion.scale
    gains -= criterion.penalty
    np.putmask(gains, ~ok, -np.inf)
    win = _pick_best(gains, block_start, parent_score.take(nodes), criterion.min_gain)
    if random_thresholds:
        wgrp, wthr = win, thr.take(win)
    else:
        wgrp = np.searchsorted(gstart, win, side="right") - 1
        wthr = 0.5 * (np.where(first[win], 0.0, val[win - 1]) + val[win])
    wstart = gstart.take(wgrp)
    return gnode.take(wgrp), col.take(wstart), wthr, gains.take(win), wstart, glen.take(wgrp)


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + bj``, part by part (``a + 1j * b`` would multiply)."""
    out = np.empty(len(a), dtype=np.complex128)
    out.real = a
    out.imag = b
    return out


def _running_sums(x, tree_start, gstart, glast, group_total, has_zero):
    """The running sum of ``x`` before each entry (cumsum less the entry's
    own) over its tree's entries of the level, which start at
    ``tree_start``, and per group that sum at its start and the sum of its
    implicit zeros: its node's total less its entries' sum."""
    cx = np.empty_like(x)
    for start, end in zip(tree_start, [*tree_start[1:], len(x)]):
        np.cumsum(x[start:end], out=cx[start:end])
    before = cx[gstart] - x[gstart]
    zero = np.where(has_zero, group_total - (cx[glast] - before), 0.0)
    cx -= x
    return cx, before, zero


def _pick_best(gain, starts, parent_score, min_gain):
    """Index of each block's winner under the tie rule, for the blocks whose
    best gain exceeds ``min_gain``.  Blocks start at ``starts``, one per
    node, with ``parent_score`` its node's; candidates are sorted by (node,
    column, threshold), and invalid ones have gain -inf."""
    best = np.fmax.reduceat(gain, starts)  # fmax skips NaN gains, which are never valid
    has = best > min_gain
    floor = np.where(has, best - TIE_RTOL * (np.abs(best) + np.abs(parent_score)), np.inf)
    tied = np.flatnonzero(gain >= np.repeat(floor, _lengths(starts, len(gain))))
    tied = tied[gain.take(tied) > min_gain]
    return tied[_changes(np.searchsorted(starts, tied, side="right"))]


def _runs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end of each run of equal consecutive elements of ``x``."""
    starts = np.flatnonzero(_changes(x))
    return starts, np.append(starts[1:], len(x))


def _changes(x: np.ndarray) -> np.ndarray:
    """True where ``x`` differs from the element before it, and at 0."""
    out = np.empty(len(x), dtype=bool)
    out[:1] = True
    np.not_equal(x[1:], x[:-1], out=out[1:])
    return out


def _lengths(starts: np.ndarray, end: int) -> np.ndarray:
    """Lengths of the consecutive blocks that begin at ``starts``, the last
    of them ending at ``end``."""
    lens = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lens[:-1])
    lens[-1:] = end - starts[-1:]
    return lens


class TreePack:
    """Several trees as one set of node arrays (left-child indices offset
    per tree), so that all (row, tree) pairs are routed together, one
    vectorized step per depth."""

    def __init__(self, trees: list[Tree]):
        sizes = [t.n_nodes for t in trees]
        offsets = np.cumsum([0] + sizes)
        self.roots = offsets[:-1]
        self.feature = np.concatenate([t.feature for t in trees] + [np.empty(0, np.int64)])
        self.threshold = np.concatenate([t.threshold for t in trees] + [np.empty(0)])
        self.value = np.concatenate([t.value for t in trees] + [np.empty(0)])
        self.left = np.concatenate([t.left + o for t, o in zip(trees, offsets)] + [np.empty(0, np.int64)])

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
                # left below the threshold, else right: left + 1
                node = self.left[node] + (value_at(pair_row[live], self.feature[node]) >= self.threshold[node])
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
