"""Named model pipelines: one table gives each benchmark model its table
label, scaling policy (z-score for margin/distance models, identity for tree
ensembles) and fit function, behind one fit/predict/serialize surface."""
from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..features.extract import FeatureMatrix
from .base import (
    ClassifyError,
    Predictor,
    Standardizer,
    TrainedModel,
    VoteModel,
    model_from_blob,
    model_to_blob,
)
from .ensembles import fit_adaboost_rf, fit_bagging, fit_random_forest
from .knn import fit_knn
from .lda import fit_lda
from .svm import fit_linear_svm, fit_linear_svms

BLOB_VERSION = 7


def _zscored(train: FeatureMatrix) -> tuple[Standardizer, FeatureMatrix]:
    scaler = Standardizer.fit(train.values)
    return scaler, replace(train, values=scaler.apply(train.values))


_VOTERS = ("svm", "knn", "random_forest")
# The pipelines that others build on: the voters, and the SVM that
# bagging_svm starts from.
SHARED = frozenset(_VOTERS) | {"svm"}


def _voting(train, seed, member):
    """A hard vote over the fitted voter pipelines, each scaling its input
    as it does alone; it fits nothing itself."""
    voters = [member(name) for name in _VOTERS]
    return VoteModel(voters, int(train.labels.max()) + 1, train.n_features)


# name -> (results-table label, z-score the input?, fit(train, seed, member)),
# in results-table row order; member(name) is the fitted sibling pipeline
# `name` on the same training set. Each model's settings are constants of its
# module. A bagging entry passes fit_bagging its members' fit; bagging_svm's
# members start from the row's fitted SVM (see fit_linear_svms).
_PIPELINES = {
    "lda": ("LDA", True, lambda train, seed, member: fit_lda(train)),
    "svm": ("SVM", True, lambda train, seed, member: fit_linear_svm(train)),
    "knn": ("KNN", True, lambda train, seed, member: fit_knn(train)),
    "random_forest": ("Random Forest", False,
                      lambda train, seed, member: fit_random_forest(train, seed=seed)),
    "voting": ("Voting Ensemble", False, _voting),
    "bagging_knn": ("Bagging KNN", True, lambda train, seed, member: fit_bagging(
        lambda t, row_sets: [fit_knn(t.select(rows)) for rows in row_sets], train, seed)),
    "bagging_svm": ("Bagging SVM", True, lambda train, seed, member: fit_bagging(
        lambda t, row_sets: fit_linear_svms(t, row_sets, start=member("svm").model), train, seed)),
    "adaboost": ("AdaBoost", False, lambda train, seed, member: fit_adaboost_rf(train, seed=seed)),
}
MODEL_NAMES = tuple(_PIPELINES)
MODEL_LABELS = {name: label for name, (label, _, _) in _PIPELINES.items()}


class Pipeline(Predictor):
    """A fitted model plus the standardizer, if any, that z-scores its input."""

    kind = "pipeline"

    def __init__(self, name: str, scaler: Standardizer | None, model: TrainedModel):
        if scaler is not None and not isinstance(scaler, Standardizer):
            raise ClassifyError("pipeline scaler must be a standardizer")
        if not isinstance(model, TrainedModel):
            raise ClassifyError("pipeline model must be a fitted model")
        self.name = name
        self.scaler = scaler
        self.model = model
        self.n_classes = model.n_classes
        self.n_features = model.n_features

    def predict(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if self.scaler is not None:
            values = self.scaler.apply(values)
        return self.model.predict(values)

    def to_blob(self) -> dict:
        return {"version": BLOB_VERSION, **model_to_blob(self)}

    @classmethod
    def from_blob(cls, blob: dict) -> "Pipeline":
        version = blob.get("version") if isinstance(blob, dict) else None
        if version != BLOB_VERSION:
            raise ClassifyError(f"unsupported model blob version: {version!r}")
        pipeline = model_from_blob({k: v for k, v in blob.items() if k != "version"})
        if not isinstance(pipeline, cls):
            raise ClassifyError(f"model file holds a {blob.get('kind')!r}, not a pipeline")
        return pipeline

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_blob(), sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "Pipeline":
        """The pipeline a model file holds; every refusal names the file."""
        try:
            return cls.from_blob(json.loads(Path(path).read_text()))
        except ValueError as exc:  # ClassifyError, JSONDecodeError, UnicodeDecodeError
            raise ClassifyError(f"{path}: {exc}") from None


def fit_pipeline(
    name: str,
    train: FeatureMatrix,
    seed: int = 0,
    member: Callable[[str], Pipeline] | None = None,
) -> Pipeline:
    """Fit one of the benchmark's named pipelines on a feature matrix.

    Voting and bagging_svm build on sibling pipelines fitted on the same
    train, which member(name) returns. Without member, each sibling is
    fitted here with this fit's seed.
    """
    if name not in _PIPELINES:
        raise ClassifyError(f"unknown model: {name!r} (expected one of {MODEL_NAMES})")
    if member is None:
        def member(sibling: str) -> Pipeline:
            return _fit(sibling, train, seed, member)
    return _fit(name, train, seed, member)


def _fit(name, train, seed, member) -> Pipeline:
    _, zscore, fit = _PIPELINES[name]
    scaler = None
    if zscore:
        scaler, train = _zscored(train)
    return Pipeline(name=name, scaler=scaler, model=fit(train, seed, member))
