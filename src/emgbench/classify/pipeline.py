"""Named model pipelines: one table gives each benchmark model its scaling
policy (z-score for margin/distance models, identity for tree ensembles)
and its fit function, behind one fit/predict/serialize surface."""
from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..features.extract import FeatureMatrix
from .base import ClassifyError, Standardizer, TrainedModel, model_from_blob, model_to_blob
from .ensembles import VotingModel, fit_adaboost_rf, fit_bagging
from .forest import fit_random_forest
from .knn import fit_knn
from .lda import fit_lda
from .svm import fit_linear_svm

BLOB_VERSION = 3


def _zscored(train: FeatureMatrix) -> tuple[Standardizer, FeatureMatrix]:
    scaler = Standardizer.fit(train.values)
    return scaler, replace(train, values=scaler.apply(train.values))


def _svm(train, seed, hyper, member):
    return fit_linear_svm(train, C=hyper.get("svm_c", 1.0), seed=seed)


def _knn(train, seed, hyper, member):
    return fit_knn(train, k=hyper.get("knn_k", 5), seed=seed)


def _forest(train, seed, hyper, member):
    return fit_random_forest(train, n_trees=hyper.get("rf_trees", 100), seed=seed)


def _bagging(base, warm_start=None):
    def fit(train, seed, hyper, member):
        start = member(warm_start).model if warm_start else None
        return fit_bagging(
            base, train, n_estimators=hyper.get("bag_estimators", 10), seed=seed, start=start
        )
    return fit


def _adaboost(train, seed, hyper, member):
    return fit_adaboost_rf(
        train,
        n_rounds=hyper.get("boost_rounds", 10),
        trees_per_round=hyper.get("boost_trees", 25),
        seed=seed,
    )


_VOTERS = ("svm", "knn", "random_forest")
# The pipelines that others build on: the voters, and the SVM that
# bagging_svm starts from.
SHARED = frozenset(_VOTERS) | {"svm"}


def _voting(train, seed, hyper, member):
    """A hard vote over the fitted voter pipelines, each member seeing the
    input as its pipeline does (z-scored or raw); it fits nothing itself.
    The z-scored voters share one standardizer, fitted on the same train."""
    voters = [member(name) for name in _VOTERS]
    scaler = next(p.scaler for p in voters if p.scaler is not None)
    return VotingModel(scaler, [p.model for p in voters],
                       scaled=[p.scaler is not None for p in voters], seed=seed)


# name -> (z-score the input?, fit(train, seed, hyper, member)), in
# results-table row order; member(name) is the fitted sibling pipeline `name`
# on the same training set.
_PIPELINES = {
    "lda": (True, lambda train, seed, hyper, member: fit_lda(train, seed=seed)),
    "svm": (True, _svm),
    "knn": (True, _knn),
    "random_forest": (False, _forest),
    "voting": (False, _voting),
    "bagging_knn": (True, _bagging("knn")),
    "bagging_svm": (True, _bagging("svm", warm_start="svm")),
    "adaboost": (False, _adaboost),
}
MODEL_NAMES = tuple(_PIPELINES)


class Pipeline:
    """A fitted model plus the standardizer, if any, that z-scores its input."""

    def __init__(self, name: str, scaler: Standardizer | None, model: TrainedModel):
        self.name = name
        self.scaler = scaler
        self.model = model

    def predict(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if self.scaler is not None:
            values = self.scaler.apply(values)
        return self.model.predict(values)

    def to_blob(self) -> dict:
        return {
            "version": BLOB_VERSION,
            "pipeline": self.name,
            "scaler": model_to_blob(self.scaler) if self.scaler else None,
            "model": model_to_blob(self.model),
        }

    @classmethod
    def from_blob(cls, blob: dict) -> "Pipeline":
        if blob.get("version") != BLOB_VERSION:
            raise ClassifyError(f"unsupported model blob version: {blob.get('version')!r}")
        scaler = model_from_blob(blob["scaler"]) if blob["scaler"] else None
        return cls(name=blob["pipeline"], scaler=scaler, model=model_from_blob(blob["model"]))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_blob(), sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "Pipeline":
        return cls.from_blob(json.loads(Path(path).read_text()))


def fit_pipeline(
    name: str,
    train: FeatureMatrix,
    seed: int = 0,
    member: Callable[[str], Pipeline] | None = None,
    **hyper,
) -> Pipeline:
    """Fit one of the benchmark's named pipelines on a feature matrix.

    Voting and bagging_svm build on sibling pipelines fitted on the same
    train, which member(name) returns. Without member, each sibling is
    fitted here with this fit's seed and hyperparameters.
    """
    if name not in _PIPELINES:
        raise ClassifyError(f"unknown model: {name!r} (expected one of {MODEL_NAMES})")
    if member is None:
        def member(sibling: str) -> Pipeline:
            return _fit(sibling, train, seed, hyper, member)
    return _fit(name, train, seed, hyper, member)


def _fit(name, train, seed, hyper, member) -> Pipeline:
    zscore, fit = _PIPELINES[name]
    scaler = None
    if zscore:
        scaler, train = _zscored(train)
    return Pipeline(name=name, scaler=scaler, model=fit(train, seed, hyper, member))
