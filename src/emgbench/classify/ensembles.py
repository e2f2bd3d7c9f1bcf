"""Ensembles: the random forest, bagging and boosting over random forests,
each a vote over members fitted on bootstrap draws of the training rows."""
from __future__ import annotations

import numpy as np

from ..features.extract import FeatureMatrix
from .base import ClassifyError, VoteModel
from .tree import Forest, fit_trees

N_TREES = 100  # trees of a random forest
N_ESTIMATORS = 10  # bootstrap members of a bagging vote
N_ROUNDS = 10  # most boosting rounds
TREES_PER_ROUND = 25  # trees of each boosted forest


def bootstrap(n: int, count: int, seed: int, p: np.ndarray | None = None):
    """count generators spawned from seed and, from each, n rows of 0..n-1
    drawn with replacement (weighted by p, if given); a forest goes on to
    draw each tree's split features from its generator."""
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(count)]
    return rngs, [rng.choice(n, size=n, replace=True, p=p) for rng in rngs]


def fit_random_forest(train: FeatureMatrix, n_trees: int = N_TREES, seed: int = 0,
                      sample_weights: np.ndarray | None = None) -> Forest:
    """A forest of trees, each grown on its own bootstrap (optionally
    weighted) with floor(sqrt(d)) candidate features per split."""
    X, y = train.values, train.labels
    n, d = X.shape
    if n == 0:
        raise ClassifyError("empty training set")
    n_classes = int(y.max()) + 1
    rngs, row_sets = bootstrap(n, n_trees, seed, sample_weights)
    return fit_trees(X, y, n_classes, row_sets, rngs, max(1, int(np.sqrt(d))))


def fit_bagging(fit_members, train: FeatureMatrix, seed: int = 0) -> VoteModel:
    """A vote over the N_ESTIMATORS members fit_members(train, row_sets)
    returns, one fitted on each bootstrap draw of train's rows."""
    if train.n_rows == 0:
        raise ClassifyError("empty training set")
    _, row_sets = bootstrap(train.n_rows, N_ESTIMATORS, seed)
    return VoteModel(fit_members(train, row_sets), n_classes=int(train.labels.max()) + 1,
                     n_features=train.n_features)


def boost_round_weight(error: float, n_classes: int) -> tuple[float, bool]:
    """Multi-class (SAMME) learner weight and whether boosting continues.

    Rounds with error >= 1 - 1/K carry no information and stop the loop;
    zero-error rounds also stop, keeping the perfect learner.
    """
    if error >= 1.0 - 1.0 / n_classes:
        return 0.0, False
    if error <= 0.0:
        return 1.0, False
    alpha = np.log((1.0 - error) / error) + np.log(n_classes - 1.0)
    return float(alpha), True


def fit_adaboost_rf(train: FeatureMatrix, seed: int = 0) -> VoteModel:
    """Boosted random forests: each of at most N_ROUNDS rounds fits a forest
    of TREES_PER_ROUND trees on a weighted bootstrap of the training data,
    and the forests vote with their SAMME weights."""
    if train.n_rows == 0:
        raise ClassifyError("empty training set")
    X, y = train.values, train.labels
    n = train.n_rows
    n_classes = int(y.max()) + 1
    w = np.full(n, 1.0 / n)
    members, alphas = [], []
    for ss in np.random.SeedSequence(seed).spawn(N_ROUNDS):
        member = fit_random_forest(
            train,
            n_trees=TREES_PER_ROUND,
            seed=int(ss.generate_state(1)[0] % 2**31),
            sample_weights=w,
        )
        miss = member.predict(X) != y
        error = float(np.sum(w[miss]))
        alpha, keep_going = boost_round_weight(error, n_classes)
        if alpha > 0 or not members:
            members.append(member)
            alphas.append(alpha if alpha > 0 else 1.0)
        if not keep_going:
            break
        w = w * np.exp(alpha * miss)
        w = w / np.sum(w)
    return VoteModel(members, n_classes=n_classes, n_features=train.n_features, weights=alphas)
