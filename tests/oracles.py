"""Independent brute-force oracles used to pin expected values.

Each oracle is deliberately the slow, obviously-correct formulation:
full-matrix dynamic programming for subsequence length, exhaustive window
scans, spanning-tree vertex enumeration for transport, straight-line
per-formula loops for distances, moments and TF-IDF vectors, and node-by-node,
column-by-column tree growing and row-by-row routing, one Python-level
addition per tree or a scipy sparse product for model probabilities, and
one time step per LSTM iteration and one kernel tap per convolution
product for the neural layers.  None of them share code with the library
implementations they check: the tree oracle only borrows the library's
``Tree`` container and its tie constant, and reads the fields of the
library's ``Criterion``; the probability oracle reads a model's public
fields and its training matrix.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp


def lcs_dp(s1: str, s2: str) -> int:
    """Longest common subsequence length by the full DP table."""
    m, n = len(s1), len(s2)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if s1[i - 1] == s2[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[m][n]


def round_half_up(x) -> int:
    """Round a float or an exact Fraction half up."""
    return int(math.floor(x + Fraction(1, 2)))


def indel_fraction_oracle(s1: str, s2: str) -> Fraction:
    total = len(s1) + len(s2)
    if total == 0:
        return Fraction(1)
    return Fraction(2 * lcs_dp(s1, s2), total)


def indel_oracle(s1: str, s2: str) -> int:
    return round_half_up(100 * indel_fraction_oracle(s1, s2))


def partial_fraction_oracle(s1: str, s2: str) -> Fraction:
    a, b = (s1, s2) if len(s1) <= len(s2) else (s2, s1)
    if not a:
        return Fraction(1 if not b else 0)
    return max(
        indel_fraction_oracle(a, b[i : i + len(a)])
        for i in range(len(b) - len(a) + 1)
    )


def partial_oracle(s1: str, s2: str) -> int:
    return round_half_up(100 * partial_fraction_oracle(s1, s2))


def _normalize(text: str) -> str:
    scrubbed = "".join(c if c.isalnum() else " " for c in text.lower())
    return " ".join(scrubbed.split())


def token_sort_oracle(s1: str, s2: str, partial: bool = False) -> int:
    t1 = " ".join(sorted(_normalize(s1).split()))
    t2 = " ".join(sorted(_normalize(s2).split()))
    if partial:
        return partial_oracle(t1, t2)
    return indel_oracle(t1, t2)


def token_set_oracle(s1: str, s2: str, partial: bool = False) -> int:
    set1 = set(_normalize(s1).split())
    set2 = set(_normalize(s2).split())
    if not set1 and not set2:
        return 100
    if not set1 or not set2:
        return 0
    t0 = " ".join(sorted(set1 & set2))
    t1 = (t0 + " " + " ".join(sorted(set1 - set2))).strip()
    t2 = (t0 + " " + " ".join(sorted(set2 - set1))).strip()
    frac = partial_fraction_oracle if partial else indel_fraction_oracle
    return round_half_up(100 * max(frac(t0, t1), frac(t0, t2), frac(t1, t2)))


def qratio_oracle(s1: str, s2: str) -> int:
    return indel_oracle(_normalize(s1), _normalize(s2))


def wratio_oracle(s1: str, s2: str) -> int:
    """The weighted-ratio cascade spelled out over the oracle scores."""
    n1, n2 = _normalize(s1), _normalize(s2)
    if not n1 or not n2:
        return 100 if n1 == n2 else 0
    base = indel_oracle(n1, n2)
    len_ratio = max(len(n1), len(n2)) / min(len(n1), len(n2))
    if len_ratio < 1.5:
        best = max(base, 0.95 * token_sort_oracle(n1, n2), 0.95 * token_set_oracle(n1, n2))
    else:
        scale = 0.6 if len_ratio > 8.0 else 0.9
        best = max(
            base,
            scale * partial_oracle(n1, n2),
            0.9 * scale * token_sort_oracle(n1, n2, partial=True),
            0.9 * scale * token_set_oracle(n1, n2, partial=True),
        )
    return round_half_up(best)


def fuzzy_features_oracle(s1: str, s2: str) -> dict[str, int]:
    """The seven fuzzy feature scores of a pair by name, each by its oracle."""
    return {
        "qratio": qratio_oracle(s1, s2),
        "wratio": wratio_oracle(s1, s2),
        "partial_ratio": partial_oracle(s1, s2),
        "token_set_ratio": token_set_oracle(s1, s2),
        "token_sort_ratio": token_sort_oracle(s1, s2),
        "partial_token_set_ratio": token_set_oracle(s1, s2, partial=True),
        "partial_token_sort_ratio": token_sort_oracle(s1, s2, partial=True),
    }


def tfidf_oracle(text: str, analyzer: str, ngram_range, vocabulary, idf) -> dict[int, float]:
    """One text's TF-IDF vector as ``{column: weight}``, straight-line.

    Terms are word n-grams of the normalized tokens or character n-grams of
    the lowercased text; each in-vocabulary term's count is multiplied by
    its idf and the vector divided by its L2 norm (``math.fsum``).
    """
    lo, hi = ngram_range
    units = _normalize(text).split() if analyzer == "word" else list(text.lower())
    sep = " " if analyzer == "word" else ""
    counts: dict[int, int] = {}
    for n in range(lo, hi + 1):
        for i in range(len(units) - n + 1):
            col = vocabulary.get(sep.join(units[i : i + n]))
            if col is not None:
                counts[col] = counts.get(col, 0) + 1
    raw = {col: count * float(idf[col]) for col, count in counts.items()}
    norm = math.sqrt(math.fsum(v * v for v in raw.values()))
    return {col: v / norm for col, v in raw.items()}


def transport_oracle(weights1, weights2, costs) -> float:
    """Minimum transport cost by enumerating basic feasible solutions.

    Every vertex of the transportation polytope is supported on a spanning
    tree of the bipartite source/sink graph; the flow on a tree is uniquely
    determined, so enumerating all m+n-1 cell subsets that form spanning
    trees and keeping the feasible ones covers every vertex.
    """
    m, n = len(weights1), len(weights2)
    cells = [(i, j) for i in range(m) for j in range(n)]
    best = None
    for basis in itertools.combinations(cells, m + n - 1):
        flow = _tree_flow(basis, list(weights1), list(weights2), m, n)
        if flow is None:
            continue
        cost = sum(f * costs[i][j] for (i, j), f in flow.items())
        if best is None or cost < best:
            best = cost
    assert best is not None, "no feasible spanning tree found"
    return best


def _tree_flow(basis, supply, demand, m, n):
    """Solve the flow on a candidate basis by peeling leaves.

    Returns None when the basis is not a spanning tree or the implied flow
    is negative (infeasible vertex).
    """
    supply = list(supply)
    demand = list(demand)
    adj: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for i in range(m):
        adj[("s", i)] = []
    for j in range(n):
        adj[("d", j)] = []
    for i, j in basis:
        adj[("s", i)].append((i, j))
        adj[("d", j)].append((i, j))
    remaining = set(basis)
    flow: dict[tuple[int, int], float] = {}
    # peel degree-1 nodes until nothing is left
    while remaining:
        leaf = None
        for node, edges in adj.items():
            live = [e for e in edges if e in remaining]
            if len(live) == 1:
                leaf = (node, live[0])
                break
        if leaf is None:
            return None  # a cycle: not a tree
        node, (i, j) = leaf
        amount = supply[i] if node[0] == "s" else demand[j]
        if amount < -1e-12:
            return None
        flow[(i, j)] = amount
        supply[i] -= amount
        demand[j] -= amount
        remaining.discard((i, j))
    if any(abs(s) > 1e-9 for s in supply) or any(abs(d) > 1e-9 for d in demand):
        return None  # disconnected: some mass never moved
    if any(f < -1e-12 for f in flow.values()):
        return None
    return flow


def cosine_oracle(x, y) -> float:
    dot = sum(a * b for a, b in zip(x, y))
    nx = math.sqrt(sum(a * a for a in x))
    ny = math.sqrt(sum(b * b for b in y))
    if nx == 0.0 and ny == 0.0:
        return 0.0
    if nx == 0.0 or ny == 0.0:
        return 1.0
    return 1.0 - dot / (nx * ny)


def cityblock_oracle(x, y) -> float:
    return sum(abs(a - b) for a, b in zip(x, y))


def euclidean_oracle(x, y) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))


def minkowski3_oracle(x, y) -> float:
    return sum(abs(a - b) ** 3 for a, b in zip(x, y)) ** (1.0 / 3.0)


def canberra_oracle(x, y) -> float:
    total = 0.0
    for a, b in zip(x, y):
        den = abs(a) + abs(b)
        if den != 0.0:
            total += abs(a - b) / den
    return total


def braycurtis_oracle(x, y) -> float:
    den = sum(abs(a + b) for a, b in zip(x, y))
    if den == 0.0:
        return 0.0
    return sum(abs(a - b) for a, b in zip(x, y)) / den


def jaccard_oracle(x, y) -> float:
    union = sum(1 for a, b in zip(x, y) if a != 0 or b != 0)
    if union == 0:
        return 0.0
    diff = sum(1 for a, b in zip(x, y) if a != b and (a != 0 or b != 0))
    return diff / union


DISTANCE_ORACLES = {
    "cosine": cosine_oracle,
    "cityblock": cityblock_oracle,
    "euclidean": euclidean_oracle,
    "minkowski3": minkowski3_oracle,
    "canberra": canberra_oracle,
    "braycurtis": braycurtis_oracle,
    "jaccard": jaccard_oracle,
}


def moments_oracle(values) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    m2 = sum((v - mean) ** 2 for v in values) / n
    if m2 == 0.0:
        return 0.0, 0.0
    m3 = sum((v - mean) ** 3 for v in values) / n
    m4 = sum((v - mean) ** 4 for v in values) / n
    return m3 / m2**1.5, m4 / m2**2 - 3.0


def best_stump_accuracy(x, y) -> float:
    """Exhaustive search over axis-aligned single-split classifiers."""
    n = len(y)
    best = max(sum(1 for v in y if v == 0), sum(1 for v in y if v == 1)) / n
    n_features = len(x[0])
    for f in range(n_features):
        values = sorted({row[f] for row in x})
        thresholds = [(a + b) / 2 for a, b in zip(values, values[1:])]
        for t in thresholds:
            for left_label in (0, 1):
                correct = sum(
                    1
                    for row, label in zip(x, y)
                    if (left_label if row[f] < t else 1 - left_label) == label
                )
                best = max(best, correct / n)
    return best


def grow_tree_dense(
    X, criterion, counts, max_depth, min_samples_leaf, max_features, rng, random_thresholds=False
):
    """One tree grown on a dense matrix, one node and one column at a time.

    It follows the documented contract of the library builder, so both
    give the same tree: level-order node numbering; a node is open when
    above ``max_depth``, holding at least two rows with a positive count,
    and not pure; per level, one uniform key per (open node, column) drawn
    from ``rng`` as one array, each node taking the columns whose key is at
    most its ``max_features``-th smallest, then one random threshold per
    (open node, sampled column) whose values are not all equal; candidates
    are midpoints between consecutive distinct values (or one uniform
    draw), a candidate's gain is
    ``scale * (score_left + score_right - score_parent) - penalty`` and
    must exceed ``min_gain``, and the choice among candidates follows
    the TIE_RTOL tie rule: lowest column, then lowest threshold, among
    the gains within tolerance of the best; a leaf's value is the
    criterion's ``leaf`` of its node's sums.  ``criterion`` is the
    library's ``Criterion``, read field by field.  Returns the tree only."""
    from dupliq.learn._tree import Tree

    a, b, is_pure = criterion.a, criterion.b, criterion.is_pure
    X = np.asarray(X, dtype=np.float64)
    n_features = X.shape[1]
    min_leaf = max(min_samples_leaf, 1)
    nodes = []  # per node: [feature, threshold, left, right, value, gain, count]
    level = [np.flatnonzero(counts > 0)]
    depth = 0
    while level:
        is_open = []
        for rows in level:
            ok = (max_depth is None or depth < max_depth) and len(rows) >= 2
            if ok and is_pure is not None:
                ok = not is_pure(a[rows].sum(), b[rows].sum())
            is_open.append(ok)
        open_nodes = [i for i in range(len(level)) if is_open[i]]
        columns = dict.fromkeys(open_nodes, np.arange(n_features))
        if open_nodes and max_features is not None and max_features < n_features:
            keys = rng.random((len(open_nodes), n_features))
            for i, node_keys in zip(open_nodes, keys):
                columns[i] = np.flatnonzero(node_keys <= np.sort(node_keys)[max_features - 1])
        base = len(nodes) + len(level)
        next_level = []
        for i, rows in enumerate(level):
            split = None
            if is_open[i]:
                split = _oracle_best_split(X, rows, criterion, counts, columns[i], min_leaf, rng, random_thresholds)
            count = int(counts[rows].sum())
            if split is None:
                sums = [None if x is None else _node_sum(x[rows]) for x in (a, b, criterion.h)]
                nodes.append([-1, 0.0, -1, -1, float(criterion.leaf(*sums)[0]), 0.0, count])
                continue
            feature, threshold, gain = split
            left_id = base + len(next_level)
            nodes.append([feature, threshold, left_id, left_id + 1, 0.0, gain, count])
            mask = X[rows, feature] < threshold
            next_level += [rows[mask], rows[~mask]]
        level = next_level
        depth += 1
    f, t, left, right, v, g, c = (np.array(col) for col in zip(*nodes))
    return Tree(
        feature=f.astype(np.int64), threshold=t.astype(np.float64), left=left.astype(np.int64),
        right=right.astype(np.int64), value=v.astype(np.float64), gain=g.astype(np.float64),
        n_node=c.astype(np.int64),
    )


def _node_sum(x):
    """A node's sum of a per-row stat, over its rows in ascending order and
    as the builder takes it (``np.add.reduceat``), in a length-1 array."""
    return np.add.reduceat(x, [0])


def _oracle_best_split(X, rows, criterion, counts, columns, min_leaf, rng, random_thresholds):
    from dupliq.learn._tree import TIE_RTOL

    score_fn = criterion.score
    ra, rb, rc = criterion.a[rows], criterion.b[rows], counts[rows]
    total_a, total_b, total_c = ra.sum(), rb.sum(), rc.sum()
    parent_score = score_fn(total_a, total_b)
    gains, features, thresholds = [], [], []  # in (feature, threshold) order
    for f in columns:
        v = X[rows, f]
        if random_thresholds:
            if not v.min() < v.max():
                continue
            t = rng.uniform(v.min(), v.max())
            mask = v < t
            la, lb, lc = ra[mask].sum(), rb[mask].sum(), rc[mask].sum()
            t = np.array([t])
        else:
            order = np.argsort(v, kind="stable")
            sv = v[order]
            cut = np.flatnonzero(sv[:-1] < sv[1:])
            la = np.cumsum(ra[order])[cut]
            lb = np.cumsum(rb[order])[cut]
            lc = np.cumsum(rc[order])[cut]
            t = 0.5 * (sv[cut] + sv[cut + 1])
        raw = score_fn(la, lb) + score_fn(total_a - la, total_b - lb) - parent_score
        gain = np.where(
            (lc >= min_leaf) & (total_c - lc >= min_leaf), criterion.scale * raw - criterion.penalty, -np.inf
        )
        gains.append(np.atleast_1d(gain))
        features.append(np.full(len(t), f))
        thresholds.append(t)
    if not gains:
        return None
    gains, features, thresholds = (np.concatenate(x) for x in (gains, features, thresholds))
    ok = gains > criterion.min_gain
    if not ok.any():
        return None
    best = gains[ok].max()
    i = np.flatnonzero(ok & (gains >= best - TIE_RTOL * (abs(best) + abs(parent_score))))[0]
    return int(features[i]), float(thresholds[i]), float(gains[i])


def tree_apply_dense(tree, X):
    """Route every row down one tree, one row at a time; leaf values."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0])
    for r in range(X.shape[0]):
        node = 0
        while tree.feature[node] >= 0:
            go_left = X[r, tree.feature[node]] < tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        out[r] = tree.value[node]
    return out


def predict_proba_oracle(model, X):
    """A model's probabilities the slow way: tree kinds add one tree at a
    time over ``tree_apply_dense``; knn ranks each query row's neighbours on
    its own, from ``knn_distances_oracle``."""
    if model.kind == "knn":
        return _knn_oracle(model, X)
    dense = X.toarray() if sp.issparse(X) else np.asarray(X, dtype=np.float64)
    leaves = [tree_apply_dense(tree, dense) for tree in model.trees]
    if model.kind == "adaboost":
        votes = np.zeros(len(dense))
        for leaf, alpha in zip(leaves, model.alphas):
            votes += alpha * (leaf >= 0.5)
        total = sum(model.alphas)
        return votes / total if total > 0 else np.full(len(dense), 0.5)
    if model.kind in ("gbm", "xgb"):
        margin = np.full(len(dense), model.base_margin)
        lr = float(model.hyperparameters["learning_rate"])
        for leaf in leaves:
            margin += lr * leaf
        out = np.empty_like(margin)
        pos = margin >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-margin[pos]))
        ez = np.exp(margin[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    total = np.zeros(len(dense))
    for leaf in leaves:
        total += leaf
    return total / len(model.trees)


def _unit_rows(M):
    M = sp.csr_matrix(M, dtype=np.float64)
    norms = np.sqrt(np.asarray(M.multiply(M).sum(axis=1)).ravel())
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return sp.diags(inv) @ M


def knn_distances_oracle(model, X):
    """Distances of every query row to every training row of a knn model:
    cosine from a scipy sparse product on sparse input, euclidean from
    squared norms and one matrix product on dense input."""
    train = model._train
    if sp.issparse(X):
        return 1.0 - (_unit_rows(X) @ _unit_rows(train).T).toarray()
    X = np.asarray(X, dtype=np.float64)
    d2 = (X**2).sum(axis=1)[:, None] + (train**2).sum(axis=1)[None, :] - 2.0 * X @ train.T
    return np.sqrt(np.maximum(d2, 0.0))


def _knn_oracle(model, X):
    d = knn_distances_oracle(model, X)
    k = min(model.k, len(model.y))
    out = np.empty(len(d))
    for r, row in enumerate(d):
        # every training row ranked by (distance, index)
        nearest = sorted(range(len(row)), key=lambda i: (row[i], i))[:k]
        out[r] = model.y[nearest].mean()
    return out


def _sigmoid_oracle(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def lstm_oracle(x, w, u, b, grad, mode="infer", recurrent_dropout=0.0, dropout_rng=None):
    """An LSTM one step at a time, forward and back: each step projects its
    own input and adds its own weight gradients.  Gates i, f, g, o; in train
    mode one recurrent dropout mask per sequence, drawn from ``dropout_rng``
    as the layer draws it.  Returns the last hidden state, the input
    gradient of ``grad`` and the gradients of ``w``, ``u`` and ``b``."""
    batch, steps, _ = x.shape
    n = u.shape[0]
    if mode == "train" and recurrent_dropout > 0.0:
        keep = 1.0 - recurrent_dropout
        mask = (dropout_rng.random((batch, n)) < keep) / keep
    else:
        mask = np.ones((batch, n))
    h = np.zeros((batch, n))
    c = np.zeros((batch, n))
    cache = []
    for t in range(steps):
        xt = x[:, t, :]
        hp = h * mask
        z = xt @ w + hp @ u + b
        i = _sigmoid_oracle(z[:, :n])
        f = _sigmoid_oracle(z[:, n : 2 * n])
        g = np.tanh(z[:, 2 * n : 3 * n])
        o = _sigmoid_oracle(z[:, 3 * n :])
        c_prev = c
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        cache.append((xt, hp, i, f, g, o, c_prev, tc))
    dw, du, db = np.zeros_like(w), np.zeros_like(u), np.zeros_like(b)
    dx = np.zeros(x.shape)
    dh = grad
    dc = np.zeros_like(grad)
    for t in range(steps - 1, -1, -1):
        xt, hp, i, f, g, o, c_prev, tc = cache[t]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        dz = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g * g), do * o * (1.0 - o)],
            axis=1,
        )
        dw += xt.T @ dz
        du += hp.T @ dz
        db += dz.sum(axis=0)
        dx[:, t, :] = dz @ w.T
        dh = (dz @ u.T) * mask
        dc = dc * f
    return h, dx, dw, du, db


def conv1d_oracle(x, w, b, grad):
    """A same-padded, stride-one 1-d convolution with one product per kernel
    tap, forward and back; ``w`` is (kernel, in, filters).  Returns the
    output, the input gradient of ``grad`` and the gradients of ``w`` and
    ``b``."""
    batch, steps, _ = x.shape
    kernel, _, filters = w.shape
    left = (kernel - 1) // 2
    padded = np.pad(x, ((0, 0), (left, kernel - 1 - left), (0, 0)))
    z = np.broadcast_to(b, (batch, steps, filters)).copy()
    for j in range(kernel):
        z += padded[:, j : j + steps, :] @ w[j]
    dw = np.zeros_like(w)
    dpadded = np.zeros_like(padded)
    for j in range(kernel):
        dw[j] = np.einsum("btc,btf->cf", padded[:, j : j + steps, :], grad)
        dpadded[:, j : j + steps, :] += grad @ w[j].T
    return z, dpadded[:, left : left + steps, :], dw, grad.sum(axis=(0, 1))
