"""Shared classifier plumbing: z-score standardizer, the fitted-model
contract (deterministic predict, feature-count validation) and the one
model-file codec, whose kind -> class registry rebuilds any stored object
from its blob."""
from __future__ import annotations

import inspect

import numpy as np


class ClassifyError(ValueError):
    pass


_REGISTRY: dict[str, type["Stored"]] = {}


class Stored:
    """An object a model file holds. Its blob is its `kind` plus one field per
    constructor parameter, read from the attribute of the same name; each
    subclass that sets `kind` is registered under it."""

    kind = ""
    fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "kind" in vars(cls):
            _REGISTRY[cls.kind] = cls
            cls.fields = tuple(inspect.signature(cls).parameters)


def model_to_blob(obj: Stored) -> dict:
    """JSON-ready blob of a stored object; arrays become lists and nested
    stored objects become blobs."""
    return {"kind": obj.kind, **{name: _encode(getattr(obj, name)) for name in obj.fields}}


def _encode(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Stored):
        return model_to_blob(value)
    if isinstance(value, list):
        return [_encode(v) for v in value]
    return value


def model_from_blob(blob: dict) -> Stored:
    """Rebuild a stored object from its blob; the blob's `kind` picks the
    class, whose constructor takes exactly the blob's other fields and
    refuses values of the wrong type."""
    kind = blob.get("kind") if isinstance(blob, dict) else None
    if kind not in _REGISTRY:
        raise ClassifyError(f"unknown model kind in blob: {kind!r}")
    cls = _REGISTRY[kind]
    given = set(blob) - {"kind"}
    if given != set(cls.fields):
        missing = sorted(set(cls.fields) - given)
        extra = sorted(given - set(cls.fields))
        raise ClassifyError(f"{kind!r} blob: missing fields {missing}, unexpected fields {extra}")
    values = {name: _decode(blob[name]) for name in cls.fields}
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ClassifyError(f"{kind!r} blob: {exc}") from None


def _decode(value):
    if isinstance(value, dict):
        return model_from_blob(value)
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return [model_from_blob(v) for v in value]
    return value  # constructors turn lists back into arrays


class Standardizer(Stored):
    """Per-feature z-score with train-set statistics (N-1 denominator);
    constant columns map to zero."""

    kind = "standardizer"

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


class TrainedModel(Stored):
    """Base fitted classifier: subclasses implement _predict on validated input."""

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


def majority_vote(votes: np.ndarray, n_classes: int, weights: np.ndarray | None = None) -> np.ndarray:
    """Column-wise weighted vote over votes [n_voters x n_queries];
    ties break toward the lower class index (argmax convention)."""
    votes = np.atleast_2d(votes)
    n_voters, n_queries = votes.shape
    # One bin per (class, query); flattened voter-major, each bin adds its
    # weights in voter order, so float tallies equal a loop over voters.
    bins = (votes * n_queries + np.arange(n_queries)).ravel()
    if weights is not None:
        weights = np.repeat(np.asarray(weights, dtype=np.float64), n_queries)
    tally = np.bincount(bins, weights=weights, minlength=n_classes * n_queries)
    return np.argmax(tally.reshape(n_classes, n_queries), axis=0)
