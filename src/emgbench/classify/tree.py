"""Gini-impurity random forests, grown all together on precomputed ranks
and stored as one flat node table, for the forest and boosting ensembles."""
from __future__ import annotations

import numpy as np

from .base import ClassifyError, TrainedModel, majority_vote

# A forest walks at most this many (tree, row) lanes at once, so that its
# walk's arrays stay small however many rows it predicts.
WALK_LANES = 1 << 12


class Forest(TrainedModel):
    """A hard vote, ties to the lower class, over binary CART trees grown to
    purity, all held in one flat node table. Tree t owns the nodes
    offsets[t]:offsets[t + 1] in preorder: its first node is its root, a
    node with feature -1 is a leaf, and an inner node's children, which
    index the whole table, come after it within its tree."""

    kind = "forest"

    def __init__(self, feature, threshold, left, right, leaf_label, offsets, n_classes, n_features):
        super().__init__(n_classes=n_classes, n_features=n_features)
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.leaf_label = np.asarray(leaf_label, dtype=np.int64)
        self.offsets = offsets = np.asarray(offsets, dtype=np.int64)
        n_nodes = self.feature.size
        arrays = (self.feature, self.threshold, self.left, self.right, self.leaf_label)
        if n_nodes == 0 or any(a.shape != (n_nodes,) for a in arrays):
            raise ClassifyError("forest node arrays must be non-empty, flat and of one length")
        if (offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0
                or np.any(np.diff(offsets) <= 0) or offsets[-1] != n_nodes):
            raise ClassifyError(f"forest tree offsets must rise from 0 to the node count {n_nodes}")
        inner = np.flatnonzero(self.feature >= 0)
        tree_end = offsets[np.searchsorted(offsets, inner, side="right")]
        for child in (self.left[inner], self.right[inner]):
            if np.any(child <= inner) or np.any(child >= tree_end):
                raise ClassifyError(
                    "forest children must come after their node and index a node of its tree")
        if np.any(self.feature[inner] >= self.n_features):
            raise ClassifyError(f"forest split features must lie below {self.n_features}")
        labels = self.leaf_label[self.feature < 0]
        if np.any((labels < 0) | (labels >= self.n_classes)):
            raise ClassifyError(f"forest leaf labels must lie in [0, {self.n_classes})")
        # The walk's next node: node i's right child at 2 i, its left at 2 i + 1.
        self._next = np.column_stack([self.right, self.left]).ravel()

    def _predict(self, values: np.ndarray) -> np.ndarray:
        """Walk every (tree, row) lane of a chunk of rows down one level at a
        time; children come after their node, so each walk ends within its
        tree's node count. The trees then vote."""
        n_trees = self.offsets.size - 1
        n_rows, d = values.shape
        votes = np.empty((n_trees, n_rows), dtype=np.int64)
        step = max(1, WALK_LANES // n_trees)
        flat = values.ravel()
        for lo in range(0, n_rows, step):
            at_row = np.tile(np.arange(lo, min(lo + step, n_rows)) * d, n_trees)
            node = np.repeat(self.offsets[:-1], at_row.size // n_trees)
            live = np.flatnonzero(self.feature[node] >= 0)
            while live.size:
                at = node[live]
                go_left = flat[at_row[live] + self.feature[at]] <= self.threshold[at]
                node[live] = at = self._next[2 * at + go_left]
                live = live[self.feature[at] >= 0]
            votes[:, lo:lo + step] = self.leaf_label[node].reshape(n_trees, -1)
        return majority_vote(votes, self.n_classes)


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
# its memory stays small: a 100-tree fit on 960 rows of 252 features raises
# a 38 MB process's peak RSS to about 52 MB this way, and 210 MB unbatched.
_SEARCH_ELEMENTS = 1 << 14


def _best_splits(X, ranks, y, n_classes, rows, sizes, cands):
    """Best (feature, threshold) by Gini decrease of each node; feature -1
    where no candidate feature admits a split.

    Node i holds the next sizes[i] of the rows and tries the features
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
    if n_nodes > 1 and k * rows.size > _SEARCH_ELEMENTS:
        half = n_nodes // 2
        cut = sizes[:half].sum()
        parts = [
            _best_splits(X, ranks, y, n_classes, rows[:cut], sizes[:half], cands[:half]),
            _best_splits(X, ranks, y, n_classes, rows[cut:], sizes[half:], cands[half:]),
        ]
        return tuple(np.concatenate(p) for p in zip(*parts))
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


def fit_trees(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    row_sets,
    rngs,
    max_features: int,
) -> Forest:
    """Grow one tree to purity per (row set, rng) pair, all in lockstep.

    Tree t trains on the rows X[row_sets[t]], all row sets of one size, and,
    at each node in preorder, draws max_features candidate features from
    rngs[t]; a node whose candidates admit no split tries every feature
    before it becomes a leaf. Each step takes the next node to split of
    every unfinished tree and searches them all at once on the ranks of X,
    so every tree equals, node for node, the tree grown alone.

    Nodes are numbered as they are made. Each tree stacks the nodes it has
    yet to split; a node's rows are a run of its tree's row of `pool`, and
    a split orders them in place, its left child's rows first.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    if n == 0:
        raise ClassifyError("empty training set")
    if not np.all(np.isfinite(X)):
        raise ClassifyError("trees need finite features")
    k = min(max_features, d)
    ranks = _dense_ranks(X)
    n_trees, width = np.shape(row_sets)
    pool = np.ravel(row_sets).astype(np.int64)
    # (node, first pool row, row count) of each stacked node: a node to split
    # holds two rows or more, and the nodes of one stack hold disjoint rows.
    stack = np.zeros((3, n_trees, width // 2 + 1), dtype=np.int64)
    depth = np.zeros(n_trees, dtype=np.int64)
    labels, splits, made = [], [], []  # made: (parents, left children) per step

    def push(trees, nodes, starts, counts):
        """Stack each node, or make it a leaf if it holds one row or one class."""
        size = counts.sum(axis=1)
        stacked = (size >= 2) & (counts.max(axis=1) < size)
        at = trees[stacked]
        stack[:, at, depth[at]] = nodes[stacked], starts[stacked], size[stacked]
        depth[at] += 1
        labels.append((nodes[~stacked], np.argmax(counts[~stacked], axis=1)))

    roots = np.arange(n_trees)
    counts = np.bincount(roots.repeat(width) * n_classes + y[pool], minlength=n_trees * n_classes)
    push(roots, roots, roots * width, counts.reshape(n_trees, n_classes))
    n_nodes = n_trees
    while (trees := np.flatnonzero(depth)).size:
        depth[trees] -= 1
        node, start, size = stack[:, trees, depth[trees]]
        seg = np.repeat(np.arange(trees.size), size)  # the node of each of the step's rows
        at_pool = (start - np.cumsum(size) + size)[seg] + np.arange(seg.size)  # their places
        rows = pool[at_pool]
        cands = np.array([rngs[t].choice(d, size=k, replace=False) for t in trees])
        feature, threshold = _best_splits(X, ranks, y, n_classes, rows, size, cands)
        retry = np.flatnonzero(feature < 0) if k < d else []
        if len(retry):
            every = np.tile(np.arange(d), (len(retry), 1))
            again = rows[np.isin(seg, retry)]
            feature[retry], threshold[retry] = _best_splits(X, ranks, y, n_classes, again,
                                                            size[retry], every)
        splits.append((node, feature, threshold))
        # Side 0 is left, 1 right; all rows of a node without a split go left.
        split = feature >= 0
        side = (split[seg] & (X[rows, feature[seg]] > threshold[seg])).astype(np.int64)
        counts = np.bincount((2 * seg + side) * n_classes + y[rows],
                             minlength=2 * trees.size * n_classes)
        counts = counts.reshape(trees.size, 2, n_classes)
        labels.append((node[~split], np.argmax(counts[~split, 0], axis=1)))
        at = np.flatnonzero(split)
        first = n_nodes + 2 * np.arange(at.size)  # the left children; each right one follows
        n_nodes += 2 * at.size
        made.append((node[at], first))
        # The right child first, so that the left one is on top.
        push(trees[at], first + 1, start[at] + counts[at, 0].sum(axis=1), counts[at, 1])
        push(trees[at], first, start[at], counts[at, 0])
        pool[at_pool] = rows[np.argsort(2 * seg + side, kind="stable")]

    # Put each tree's nodes in preorder: a left child follows its parent and
    # a right child its left sibling's subtree.
    feature, threshold = np.full(n_nodes, -1), np.zeros(n_nodes)
    leaf_label, left = np.full(n_nodes, -1), np.full(n_nodes, -1)
    for node, f, t in splits:
        feature[node], threshold[node] = f, t
    for node, label in labels:
        leaf_label[node] = label
    size = np.ones(n_nodes, dtype=np.int64)
    for parents, first in reversed(made):
        left[parents] = first
        size[parents] += size[first] + size[first + 1]
    offsets = np.concatenate([[0], np.cumsum(size[:n_trees])])
    place = np.zeros(n_nodes, dtype=np.int64)
    place[:n_trees] = offsets[:-1]
    for parents, first in made:
        place[first] = place[parents] + 1
        place[first + 1] = place[first] + size[first]
    inner = feature >= 0
    order = np.argsort(place)
    return Forest(feature[order], threshold[order], np.where(inner, place[left], -1)[order],
                  np.where(inner, place[left + 1], -1)[order], leaf_label[order], offsets,
                  n_classes, d)
