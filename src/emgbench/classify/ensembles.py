"""Ensembles: bagging over KNN/SVM and multi-class boosting over random
forests, each a vote over its fitted members."""
from __future__ import annotations

import numpy as np

from ..features.extract import FeatureMatrix
from .base import ClassifyError, TrainedModel, VoteModel
from .forest import fit_random_forest
from .knn import fit_knn
from .svm import fit_linear_svms

N_ESTIMATORS = 10  # bootstrap members of a bagging vote
N_ROUNDS = 10  # most boosting rounds
TREES_PER_ROUND = 25  # trees of each boosted forest

# base -> fit(train, row_sets, start): one fitted member per row set; an SVM
# member's problems start from the fitted SVM start, if given.
_BASE_FITTERS = {
    "knn": lambda train, row_sets, start: [fit_knn(train.select(rows)) for rows in row_sets],
    "svm": lambda train, row_sets, start: fit_linear_svms(train, row_sets, start=start),
}


def fit_bagging(
    base: str,
    train: FeatureMatrix,
    seed: int = 0,
    start: TrainedModel | None = None,
) -> VoteModel:
    """A vote over N_ESTIMATORS base learners fitted on bootstrap draws. An
    SVM base starts each member's one-vs-rest problems from the fitted SVM
    start, if given (see fit_linear_svms); each problem's optimum is
    unique, so start changes only the path to it."""
    if base not in _BASE_FITTERS:
        raise ClassifyError(f"unsupported bagging base: {base!r}")
    if train.n_rows == 0:
        raise ClassifyError("empty training set")
    n = train.n_rows
    row_sets = [np.random.default_rng(ss).choice(n, size=n, replace=True)
                for ss in np.random.SeedSequence(seed).spawn(N_ESTIMATORS)]
    members = _BASE_FITTERS[base](train, row_sets, start)
    return VoteModel(members, n_classes=int(train.labels.max()) + 1, n_features=train.n_features)


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
