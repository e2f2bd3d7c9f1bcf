"""Gini-impurity decision tree used by the forest and boosting ensembles."""
from __future__ import annotations

import numpy as np

from .base import ClassifyError, Stored


class DecisionTree(Stored):
    """Binary CART classifier grown to purity, stored as flat node arrays."""

    kind = "tree"

    def __init__(self, feature, threshold, left, right, leaf_label, n_classes):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.leaf_label = np.asarray(leaf_label, dtype=np.int64)
        self.n_classes = int(n_classes)

    def predict(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_2d(values)
        out = np.empty(values.shape[0], dtype=np.int64)
        for i, row in enumerate(values):
            node = 0
            while self.feature[node] >= 0:
                node = (
                    self.left[node]
                    if row[self.feature[node]] <= self.threshold[node]
                    else self.right[node]
                )
            out[i] = self.leaf_label[node]
        return out


def _best_split(X, y, idx, features, n_classes):
    """Best (feature, threshold) maximizing the Gini decrease over idx.

    Returns None when no feature admits a valid split.
    """
    best = None  # (score, feature, threshold)
    y_node = y[idx]
    onehot = np.eye(n_classes)[y_node]
    m = idx.size
    for f in features:
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        valid = sv[1:] > sv[:-1]
        if not np.any(valid):
            continue
        prefix = np.cumsum(onehot[order], axis=0)[:-1]  # counts left of each cut
        n_left = np.arange(1, m)
        n_right = m - n_left
        total = prefix[-1] + onehot[order][-1]
        suffix = total[None, :] - prefix
        score = (
            np.sum(prefix**2, axis=1) / n_left + np.sum(suffix**2, axis=1) / n_right
        )
        score = np.where(valid, score, -np.inf)
        p = int(np.argmax(score))
        if best is None or score[p] > best[0]:
            best = (score[p], f, 0.5 * (sv[p] + sv[p + 1]))
    return None if best is None else best[1:]


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    rng: np.random.Generator,
    max_features: int | None = None,
) -> DecisionTree:
    """Grow to purity; max_features candidate features are drawn per split."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise ClassifyError("empty training set")
    d = X.shape[1]
    if max_features is None:
        max_features = d

    feature, threshold, left, right, leaf_label = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_label.append(-1)
        return len(feature) - 1

    def build(idx: np.ndarray) -> int:
        node = new_node()
        y_node = y[idx]
        counts = np.bincount(y_node, minlength=n_classes)
        if idx.size < 2 or np.max(counts) == idx.size:
            leaf_label[node] = int(np.argmax(counts))
            return node
        cand = rng.choice(d, size=min(max_features, d), replace=False)
        split = _best_split(X, y, idx, cand, n_classes)
        if split is None and max_features < d:
            # fall back to the full feature set before declaring a leaf
            split = _best_split(X, y, idx, np.arange(d), n_classes)
        if split is None:
            leaf_label[node] = int(np.argmax(counts))
            return node
        f, thr = split
        mask = X[idx, f] <= thr
        feature[node] = int(f)
        threshold[node] = float(thr)
        left[node] = build(idx[mask])
        right[node] = build(idx[~mask])
        return node

    build(np.arange(X.shape[0]))
    return DecisionTree(feature, threshold, left, right, leaf_label, n_classes)
