"""Ensembles: bagging over KNN/SVM, multi-class boosting over random
forests, and hard majority voting."""
from __future__ import annotations

import numpy as np

from ..features.extract import FeatureMatrix
from .base import ClassifyError, Standardizer, TrainedModel, majority_vote
from .forest import fit_random_forest
from .knn import fit_knn
from .svm import fit_linear_svms

# base -> fit(train, row_sets, seeds, start): one fitted member per row set;
# an SVM member's problems start from the fitted SVM start, if given.
_BASE_FITTERS = {
    "knn": lambda train, row_sets, seeds, start: [
        fit_knn(train.select(rows), seed=seed) for rows, seed in zip(row_sets, seeds)
    ],
    "svm": lambda train, row_sets, seeds, start: fit_linear_svms(
        train, row_sets, seeds, start=start
    ),
}


def _fitted(members) -> list[TrainedModel]:
    members = list(members)
    if not all(isinstance(m, TrainedModel) for m in members):
        raise ClassifyError("ensemble members must be fitted models")
    return members


class BaggingModel(TrainedModel):
    kind = "bagging"

    def __init__(self, members, n_classes, n_features, seed=0):
        super().__init__(n_classes=n_classes, n_features=n_features, seed=seed)
        self.members = _fitted(members)

    def _predict(self, values: np.ndarray) -> np.ndarray:
        votes = np.vstack([m.predict(values) for m in self.members])
        return majority_vote(votes, self.n_classes)


def fit_bagging(
    base: str,
    train: FeatureMatrix,
    n_estimators: int = 10,
    seed: int = 0,
    start: TrainedModel | None = None,
) -> BaggingModel:
    """Bootstrap-resampled base learners with majority voting. An SVM base
    starts each member's one-vs-rest problems from the fitted SVM start, if
    given (see fit_linear_svms); each problem's optimum is unique, so start
    changes only the path to it."""
    if base not in _BASE_FITTERS:
        raise ClassifyError(f"unsupported bagging base: {base!r}")
    if n_estimators < 1:
        raise ClassifyError(f"n_estimators must be >= 1, got {n_estimators}")
    if train.n_rows == 0:
        raise ClassifyError("empty training set")
    n = train.n_rows
    row_sets, seeds = [], []
    for ss in np.random.SeedSequence(seed).spawn(n_estimators):
        row_sets.append(np.random.default_rng(ss).choice(n, size=n, replace=True))
        seeds.append(int(ss.generate_state(1)[0] % 2**31))
    members = _BASE_FITTERS[base](train, row_sets, seeds, start)
    return BaggingModel(
        members=members,
        n_classes=int(train.labels.max()) + 1,
        n_features=train.n_features,
        seed=seed,
    )


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


class AdaBoostModel(TrainedModel):
    kind = "adaboost_rf"

    def __init__(self, members, alphas, n_classes, n_features, seed=0):
        super().__init__(n_classes=n_classes, n_features=n_features, seed=seed)
        self.members = _fitted(members)
        self.alphas = np.asarray(alphas, dtype=np.float64)

    def _predict(self, values: np.ndarray) -> np.ndarray:
        votes = np.vstack([m.predict(values) for m in self.members])
        return majority_vote(votes, self.n_classes, weights=self.alphas)


def fit_adaboost_rf(
    train: FeatureMatrix,
    n_rounds: int = 10,
    seed: int = 0,
    trees_per_round: int = 25,
) -> AdaBoostModel:
    """Boosted random forests: each round fits a forest on a weighted
    bootstrap of the training data and is weighted by the SAMME rule."""
    if n_rounds < 1:
        raise ClassifyError(f"n_rounds must be >= 1, got {n_rounds}")
    if train.n_rows == 0:
        raise ClassifyError("empty training set")
    X, y = train.values, train.labels
    n = train.n_rows
    n_classes = int(y.max()) + 1
    w = np.full(n, 1.0 / n)
    members, alphas = [], []
    seeds = np.random.SeedSequence(seed).spawn(n_rounds)
    for r, ss in enumerate(seeds):
        member = fit_random_forest(
            train,
            n_trees=trees_per_round,
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
    return AdaBoostModel(
        members=members,
        alphas=alphas,
        n_classes=n_classes,
        n_features=train.n_features,
        seed=seed,
    )


class VotingModel(TrainedModel):
    """Hard majority vote over fitted members; ties go to the lower class.

    The model owns the standardizer of its z-scored members: member i sees
    z-scored input when scaled[i] is true and raw input otherwise."""

    kind = "voting"

    def __init__(self, scaler: Standardizer, members, scaled, seed=0):
        if not isinstance(scaler, Standardizer):
            raise ClassifyError("voting scaler must be a standardizer")
        members = _fitted(members)
        if len(members) < 2:
            raise ClassifyError("voting needs at least 2 models")
        if len({(m.n_classes, m.n_features) for m in members}) > 1:
            raise ClassifyError("voting members disagree in class count or feature count")
        if len(scaled) != len(members):
            raise ClassifyError("voting needs one scaled flag per member")
        super().__init__(members[0].n_classes, members[0].n_features, seed=seed)
        self.scaler = scaler
        self.members = members
        self.scaled = [bool(s) for s in scaled]

    def _predict(self, values: np.ndarray) -> np.ndarray:
        z = self.scaler.apply(values)
        pairs = zip(self.members, self.scaled)
        votes = np.vstack([m.predict(z if s else values) for m, s in pairs])
        return majority_vote(votes, self.n_classes)
