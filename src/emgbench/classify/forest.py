"""Random forest: bootstrapped Gini trees with sqrt(d) feature sampling."""
from __future__ import annotations

import numpy as np

from ..features.extract import FeatureMatrix
from .base import ClassifyError, VoteModel
from .tree import fit_trees


def fit_random_forest(
    train: FeatureMatrix,
    n_trees: int = 100,
    seed: int = 0,
    sample_weights: np.ndarray | None = None,
) -> VoteModel:
    """A vote over trees, each grown on its own bootstrap (optionally
    weighted) with floor(sqrt(d)) candidate features per split."""
    if n_trees < 1:
        raise ClassifyError(f"n_trees must be >= 1, got {n_trees}")
    X, y = train.values, train.labels
    n, d = X.shape
    if n == 0:
        raise ClassifyError("empty training set")
    n_classes = int(y.max()) + 1
    max_features = max(1, int(np.floor(np.sqrt(d))))
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(n_trees)]
    row_sets = [rng.choice(n, size=n, replace=True, p=sample_weights) for rng in rngs]
    trees = fit_trees(X, y, n_classes, row_sets, rngs, max_features)
    return VoteModel(trees, n_classes=n_classes, n_features=d)
