"""Gini-impurity decision trees, grown all together on precomputed ranks,
for the forest and boosting ensembles."""
from __future__ import annotations

import numpy as np

from .base import ClassifyError, Predictor


class DecisionTree(Predictor):
    """Binary CART classifier grown to purity, stored as flat node arrays in
    preorder: node 0 is the root, a node with feature -1 is a leaf, and an
    inner node's children come after it."""

    kind = "tree"

    def __init__(self, feature, threshold, left, right, leaf_label, n_classes):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.leaf_label = np.asarray(leaf_label, dtype=np.int64)
        self.n_classes = int(n_classes)
        n_nodes = self.feature.size
        arrays = (self.feature, self.threshold, self.left, self.right, self.leaf_label)
        if n_nodes == 0 or any(a.shape != (n_nodes,) for a in arrays):
            raise ClassifyError("tree node arrays must be non-empty, flat and of one length")
        inner = self.feature >= 0
        own = np.flatnonzero(inner)
        for child in (self.left[inner], self.right[inner]):
            if np.any(child <= own) or np.any(child >= n_nodes):
                raise ClassifyError("tree children must come after their node and index a node")
        labels = self.leaf_label[~inner]
        if np.any((labels < 0) | (labels >= self.n_classes)):
            raise ClassifyError(f"tree leaf labels must lie in [0, {self.n_classes})")

    @property
    def n_features(self) -> int:
        """One past the largest feature index it splits on."""
        return int(self.feature.max()) + 1

    def predict(self, values: np.ndarray) -> np.ndarray:
        """Walk all rows down one level at a time; children come after their
        node, so the walk ends within the node count."""
        values = np.atleast_2d(values)
        node = np.zeros(values.shape[0], dtype=np.int64)
        live = np.flatnonzero(self.feature[node] >= 0)
        while live.size:
            at = node[live]
            feature = self.feature[at]
            go_left = values[live, feature] <= self.threshold[at]
            node[live] = np.where(go_left, self.left[at], self.right[at])
            live = live[self.feature[node[live]] >= 0]
        return self.leaf_label[node]


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Per-column dense ranks: equal values share a rank and ranks order as
    the values do. The dtype is the smallest unsigned one that holds them,
    16 bits for up to 65536 rows, which numpy's stable argsort radix-sorts."""
    n, d = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    ordered = np.take_along_axis(X, order, axis=0)
    rising = np.vstack([np.zeros((1, d), dtype=bool), ordered[1:] > ordered[:-1]])
    ranks = np.empty((n, d), dtype=np.min_scalar_type(n - 1))
    np.put_along_axis(ranks, order, np.cumsum(rising, axis=0), axis=0)
    return ranks


# A split search takes halves of its nodes in turn while they hold more
# (row, candidate) elements than this, so that its arrays stay in cache and
# its memory stays small: a 100-tree forest on 960 rows runs in about
# 120 MB of process peak RSS this way, and about 270 MB unbatched.
_SEARCH_ELEMENTS = 1 << 14


def _best_splits(X, ranks, y, n_classes, node_rows, cands):
    """Best (feature, threshold) by Gini decrease of each node; feature -1
    where no candidate feature admits a split.

    Node i holds the training rows node_rows[i] and tries the features
    cands[i] in that order. The winner is the first feature, then the first
    cut, among the maxima of sum_c L_c^2 / n_L + sum_c R_c^2 / n_R, where
    L_c and R_c count class c on either side of the cut; this is the Gini
    decrease up to terms fixed per node. The threshold is the midpoint of
    the two values on either side of the cut.

    One segment per (node, candidate) holds the node's rows in that
    feature's rank order, sorted by two stable passes (rank, then segment).
    All sums are exact integers until the last division, so every score
    equals, bit for bit, that of sorting each feature of each node alone.
    """
    n_nodes, k = cands.shape
    sizes = np.array([r.size for r in node_rows])
    if n_nodes > 1 and k * sizes.sum() > _SEARCH_ELEMENTS:
        half = n_nodes // 2
        parts = [
            _best_splits(X, ranks, y, n_classes, node_rows[:half], cands[:half]),
            _best_splits(X, ranks, y, n_classes, node_rows[half:], cands[half:]),
        ]
        return tuple(np.concatenate(p) for p in zip(*parts))
    rows = np.concatenate(node_rows)
    node = np.repeat(np.arange(n_nodes), sizes)
    small = np.min_scalar_type(n_nodes * k * n_classes - 1)  # 16 bits: radix-sorted
    # Elements in (node, row, candidate) layout, then sorted by (segment, rank).
    key = ranks[rows[:, None], cands[node]].ravel()
    seg = (node[:, None] * k + np.arange(k)).astype(small).ravel()
    order = np.argsort(key, kind="stable")
    order = order[np.argsort(seg[order], kind="stable")]
    key, row = key[order], order // k  # row indexes rows
    seg_size = np.repeat(sizes, k)
    seg_start = np.cumsum(seg_size) - seg_size
    seg = np.repeat(np.arange(seg_size.size, dtype=small), seg_size)
    m = np.repeat(seg_size, seg_size)
    n_left = np.arange(key.size) + 1 - np.repeat(seg_start, seg_size)

    # As a cut passes a row of class c, sum_c L_c^2 grows by 2 L_c + 1 and
    # sum_c T_c L_c by T_c, where T counts the node's rows per class. A third
    # stable sort, by (segment, class), numbers the rows of each class.
    totals = np.bincount(node * n_classes + y[rows], minlength=n_nodes * n_classes)
    totals = totals.reshape(n_nodes, n_classes)
    group = seg * small.type(n_classes) + y[rows][row].astype(small)
    by_class = np.argsort(group, kind="stable")
    group_size = np.repeat(totals, k, axis=0).ravel()
    group_start = np.cumsum(group_size) - group_size
    grow, own_total = np.empty(key.size, dtype=np.int64), np.empty(key.size, dtype=np.int64)
    grow[by_class] = 2 * (np.arange(key.size) - np.repeat(group_start, group_size)) + 1
    own_total[by_class] = np.repeat(group_size, group_size)

    def seg_cumsum(v):
        total = np.cumsum(v)
        return total - np.repeat(np.concatenate([[0], total])[seg_start], seg_size)

    left_sq = seg_cumsum(grow)
    total_sq = np.repeat(np.repeat(np.sum(totals**2, axis=1), k), seg_size)
    right_sq = total_sq - 2 * seg_cumsum(own_total) + left_sq

    valid = np.zeros(key.size, dtype=bool)
    valid[:-1] = key[1:] > key[:-1]
    valid &= n_left < m
    at = np.flatnonzero(valid)
    score = left_sq[at] / n_left[at] + right_sq[at] / (m[at] - n_left[at])

    feature = np.full(n_nodes, -1, dtype=np.int64)
    threshold = np.zeros(n_nodes)
    if at.size == 0:
        return feature, threshold
    at_node = seg[at] // k
    starts = np.flatnonzero(np.concatenate([[True], at_node[1:] != at_node[:-1]]))
    top = np.maximum.reduceat(score, starts)
    hits = np.flatnonzero(score == np.repeat(top, np.diff(np.append(starts, at.size))))
    first = hits[np.concatenate([[True], at_node[hits][1:] != at_node[hits][:-1]])]
    cut, won = at[first], at_node[first]
    feature[won] = cands[won, seg[cut] % k]
    threshold[won] = 0.5 * (X[rows[row[cut]], feature[won]] + X[rows[row[cut + 1]], feature[won]])
    return feature, threshold


class _Growth:
    """One tree being grown: its node list, in preorder, and the stack of
    (rows, parent, slot) still to grow, where slot is 2 for a left child
    and 3 for a right one."""

    def __init__(self, rows, rng):
        self.rng = rng
        self.nodes = []  # [feature, threshold, left, right, leaf_label]
        self.stack = [(rows, -1, 0)]

    def next_split(self, y, n_classes):
        """Pop nodes, making one-row and pure nodes leaves, up to the next
        node to split; return (node, rows), or None once the tree is done."""
        while self.stack:
            rows, parent, slot = self.stack.pop()
            node = len(self.nodes)
            if parent >= 0:
                self.nodes[parent][slot] = node
            counts = np.bincount(y[rows], minlength=n_classes)
            self.nodes.append([-1, 0.0, -1, -1, -1])
            if rows.size < 2 or counts.max() == rows.size:
                self.nodes[node][4] = int(np.argmax(counts))
            else:
                return node, rows
        return None

    def split(self, node, rows, feature, threshold, X, y, n_classes):
        if feature < 0:
            self.nodes[node][4] = int(np.argmax(np.bincount(y[rows], minlength=n_classes)))
            return
        self.nodes[node][:2] = [int(feature), float(threshold)]
        goes_left = X[rows, feature] <= threshold
        self.stack.append((rows[~goes_left], node, 3))
        self.stack.append((rows[goes_left], node, 2))

    def tree(self, n_classes) -> DecisionTree:
        return DecisionTree(*zip(*self.nodes), n_classes)


def fit_trees(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    row_sets,
    rngs,
    max_features: int | None = None,
) -> list[DecisionTree]:
    """Grow one tree to purity per (row set, rng) pair, all in lockstep.

    Tree t trains on the rows X[row_sets[t]] and, at each node in preorder,
    draws max_features candidate features from rngs[t]; a node whose
    candidates admit no split tries every feature before it becomes a leaf.
    Each step takes the next node to split of every unfinished tree and
    searches them all at once on the ranks of X, so every tree equals, node
    for node, the tree grown alone.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    if n == 0:
        raise ClassifyError("empty training set")
    if not np.all(np.isfinite(X)):
        raise ClassifyError("trees need finite features")
    k = d if max_features is None else min(max_features, d)
    ranks = _dense_ranks(X)
    growths = [_Growth(np.asarray(rows), rng) for rows, rng in zip(row_sets, rngs)]
    while steps := [(g, *s) for g in growths if (s := g.next_split(y, n_classes))]:
        node_rows = [rows for _, _, rows in steps]
        cands = np.array([g.rng.choice(d, size=k, replace=False) for g, _, _ in steps])
        feature, threshold = _best_splits(X, ranks, y, n_classes, node_rows, cands)
        retry = np.flatnonzero(feature < 0) if k < d else []
        if len(retry):
            every = np.tile(np.arange(d), (len(retry), 1))
            found = _best_splits(X, ranks, y, n_classes, [node_rows[i] for i in retry], every)
            feature[retry], threshold[retry] = found
        for (g, node, rows), f, t in zip(steps, feature, threshold):
            g.split(node, rows, f, t, X, y, n_classes)
    return [g.tree(n_classes) for g in growths]
