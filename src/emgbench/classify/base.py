"""Shared classifier plumbing: z-score standardizer, the fitted-model
contract (deterministic predict, feature-count validation, JSON blobs) and
the kind -> class registry that rebuilds any model from its blob."""
from __future__ import annotations

import numpy as np


class ClassifyError(ValueError):
    pass


class Standardizer:
    """Per-feature z-score with train-set statistics (N-1 denominator);
    constant columns map to zero."""

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)

    @classmethod
    def fit(cls, values: np.ndarray) -> "Standardizer":
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ClassifyError("cannot standardize an empty matrix")
        mean = values.mean(axis=0)
        std = values.std(axis=0, ddof=1) if values.shape[0] > 1 else np.zeros(values.shape[1])
        return cls(mean=mean, std=std)

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.shape[1] != self.mean.size:
            raise ClassifyError(
                f"feature count mismatch: got {values.shape[1]}, expected {self.mean.size}"
            )
        scale = np.where(self.std > 0, self.std, 1.0)
        out = (values - self.mean) / scale
        out[:, self.std == 0] = 0.0
        return out

    def to_blob(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_blob(cls, blob: dict) -> "Standardizer":
        return cls(mean=np.array(blob["mean"]), std=np.array(blob["std"]))


_REGISTRY: dict[str, type["TrainedModel"]] = {}


class TrainedModel:
    """Base fitted classifier: subclasses implement _predict on validated input.

    Each subclass is registered under its `kind`, the tag its blob carries."""

    kind = "base"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _REGISTRY[cls.kind] = cls

    def __init__(self, n_classes: int, n_features: int, seed: int = 0):
        self.n_classes = int(n_classes)
        self.n_features = int(n_features)
        self.seed = int(seed)

    def predict(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if values.shape[1] != self.n_features:
            raise ClassifyError(
                f"feature count mismatch: got {values.shape[1]}, expected {self.n_features}"
            )
        return self._predict(values)

    def _predict(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_blob(self) -> dict:
        raise NotImplementedError

    def _meta(self) -> dict:
        return {
            "kind": self.kind,
            "n_classes": self.n_classes,
            "n_features": self.n_features,
            "seed": self.seed,
        }


def model_from_blob(blob: dict) -> TrainedModel:
    """Rebuild a fitted model from its blob; the blob's `kind` picks the class."""
    kind = blob.get("kind")
    if kind not in _REGISTRY:
        raise ClassifyError(f"unknown model kind in blob: {kind!r}")
    return _REGISTRY[kind].from_blob(blob)


def majority_vote(votes: np.ndarray, n_classes: int, weights: np.ndarray | None = None) -> np.ndarray:
    """Column-wise weighted vote over votes [n_voters x n_queries];
    ties break toward the lower class index (argmax convention)."""
    votes = np.atleast_2d(votes)
    n_voters, n_queries = votes.shape
    if weights is None:
        weights = np.ones(n_voters)
    tally = np.zeros((n_classes, n_queries))
    for v, w in zip(votes, weights):
        tally[v, np.arange(n_queries)] += w
    return np.argmax(tally, axis=0)
