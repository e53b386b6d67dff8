"""The tree builder: level-wise exact greedy search over presorted entries.

Every tree of every classifier is grown here, from dense or sparse input,
in the presorted, level-wise style of XGBoost's exact greedy algorithm
(Chen & Guestrin 2016, arXiv:1603.02754).  The matrix becomes entry arrays
sorted once by (column, value, row) (``SparseColumns``):

* from a sparse matrix only the stored entries are kept; the others are
  implicit zeros, which for any positive threshold fall on the left side
  of a split, so values must be nonnegative;
* from a dense matrix every entry is explicit, so there are no implicit
  zeros and signed values are fine.

The entries and the rows stay partitioned by node: each node owns one
contiguous block of each, in the (column, value, row) order, and a split
moves every block's left part before its right part without reordering
either.  One tree level then takes one vectorized pass over the entries
of its open nodes, grouped by (node, column), plus one call of
``leaf_value_fn`` per new leaf.

Candidates of a (node, column) group: the midpoints between consecutive
distinct values, and for sparse input the zero boundary (zeros left,
stored values right) at half the smallest stored value.  The choice
among candidates follows the tie rule of ``_tree``, so it does not depend
on float summation order.

A node is open, and searched, when it is above ``max_depth``, holds at
least two rows with a positive count, and is not pure.  Random draws come
level by level: one column sample per open node (when ``max_features`` is
below the column count), in node order, then one threshold per (open
node, sampled column) pair whose values in the node are not all equal
(extra trees), in (node, column) order.  Criterion conventions are in
``_tree``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ._tree import MIN_GAIN, TIE_RTOL, Tree


class SparseColumns:
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


def grow_tree_sparse(
    sc: SparseColumns,
    a: np.ndarray,
    b: np.ndarray,
    counts: np.ndarray,
    score_fn,
    leaf_value_fn,
    max_depth: int | None,
    min_samples_leaf: int,
    max_features: int | None,
    rng: np.random.Generator,
    random_thresholds: bool = False,
    score_scale: float = 1.0,
    gain_penalty: float = 0.0,
    min_gain: float = MIN_GAIN,
    purity_fn=None,
) -> tuple[Tree, np.ndarray]:
    """Grow one tree; returns it with each training row's leaf value (NaN
    for rows whose count is 0, which take no part in the growing).

    ``min_gain`` is the strict lower bound a recorded gain must exceed; the
    impurity criteria pass -inf so impure nodes always split when a valid
    candidate exists (``purity_fn`` stops the pure ones), while the
    boosting criteria demand strictly positive gain.  Each child must hold
    a count of at least ``max(min_samples_leaf, 1)``."""
    min_leaf = max(int(min_samples_leaf), 1)
    counts = np.asarray(counts, dtype=np.int64)
    sample_cols = max_features is not None and max_features < sc.n_cols
    rows = np.flatnonzero(counts > 0)
    # working copies index with intp, which numpy gathers fastest
    keep = np.flatnonzero(counts.take(sc.erow) > 0)
    erow, ecol, evals = sc.erow.take(keep).astype(np.intp), sc.ecol.take(keep), sc.evals.take(keep)
    row_len = np.array([len(rows)])
    ent_len = np.array([len(erow)])
    row_value = np.full(sc.n_rows, np.nan)
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
        if purity_fn is not None:
            open_ &= ~purity_fn(tot_a, tot_b)

        feature = np.full(k, -1, dtype=np.int64)
        threshold = np.zeros(k)
        gain = np.zeros(k)
        if open_.any():
            e_node = np.repeat(np.arange(k), ent_len)
            node, col, val, row = e_node, ecol, evals, erow
            if sample_cols or not open_.all():
                sel = open_[e_node]
                if sample_cols:
                    sampled = np.zeros((k, sc.n_cols), dtype=bool)
                    for i in np.flatnonzero(open_):
                        sampled[i, rng.choice(sc.n_cols, size=max_features, replace=False)] = True
                    sel &= sampled[e_node, ecol]
                idx = np.flatnonzero(sel)
                node, col, val, row = e_node.take(idx), ecol.take(idx), evals.take(idx), erow.take(idx)
            nodes, f, t, g = _best_splits(
                node, col, val, row, a, b, counts, tot_a, tot_b, tot_c,
                score_fn(tot_a, tot_b), score_fn, min_leaf, rng,
                random_thresholds, score_scale, gain_penalty, min_gain,
            )
            feature[nodes], threshold[nodes], gain[nodes] = f, t, g
        split = feature >= 0

        value = np.zeros(k)
        for i in np.flatnonzero(~split):
            leaf_rows = rows[rstart[i] : rstart[i] + row_len[i]]
            value[i] = leaf_value_fn(leaf_rows)
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
        row_left = np.zeros(sc.n_rows, dtype=bool)
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


def _best_splits(
    node, col, val, row, a, b, counts, tot_a, tot_b, tot_c, parent_score,
    score_fn, min_leaf, rng, random_thresholds, score_scale, gain_penalty, min_gain,
):
    """Best split per node from entries sorted by (node, column, value).

    Returns (nodes, columns, thresholds, gains) for the nodes that split."""
    m = len(node)
    if m == 0:  # no entries to split on
        return node, col, val, val
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(col[1:], col[:-1], out=first[1:])
    first[1:] |= node[1:] != node[:-1]
    gstart = np.flatnonzero(first)
    glen = np.diff(gstart, append=m)
    glast = gstart + glen - 1
    gnode = node.take(gstart)

    # running sums over the whole level; a group's own sums are differences
    ga, gb, gc = a.take(row), b.take(row), counts.take(row)
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
    raw = score_fn(la, lb) + score_fn(node_a - la, node_b - lb) - node_score
    gains = score_scale * raw - gain_penalty
    ok &= gains > min_gain
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
