"""Random forest: bootstrapped Gini trees with sqrt(d) feature sampling."""
from __future__ import annotations

import numpy as np

from ..features.extract import FeatureMatrix
from .base import ClassifyError, TrainedModel, majority_vote
from .tree import DecisionTree, fit_trees


class RandomForestModel(TrainedModel):
    kind = "random_forest"

    def __init__(self, trees, n_classes, n_features, seed=0):
        super().__init__(n_classes=n_classes, n_features=n_features, seed=seed)
        self.trees = list(trees)
        if not all(isinstance(t, DecisionTree) for t in self.trees):
            raise ClassifyError("forest trees must be decision trees")
        if any(
            t.n_classes != self.n_classes or t.feature.max() >= self.n_features for t in self.trees
        ):
            raise ClassifyError("forest trees must have the forest's classes and features")

    def _predict(self, values: np.ndarray) -> np.ndarray:
        votes = np.vstack([t.predict(values) for t in self.trees])
        return majority_vote(votes, self.n_classes)


def fit_random_forest(
    train: FeatureMatrix,
    n_trees: int = 100,
    seed: int = 0,
    sample_weights: np.ndarray | None = None,
) -> RandomForestModel:
    """Bootstrap per tree (optionally weighted), floor(sqrt(d)) candidate
    features per split."""
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
    return RandomForestModel(trees=trees, n_classes=n_classes, n_features=d, seed=seed)
