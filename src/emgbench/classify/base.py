"""Shared classifier plumbing: z-score standardizer, the fitted-model
contract (deterministic predict, feature-count validation), the one vote
every ensemble is, and the one model-file codec, whose kind -> class
registry rebuilds any stored object from its blob. A float64 array is
stored as its raw little-endian bytes, far cheaper to write than text."""
from __future__ import annotations

import base64
import inspect
import math

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
    """JSON-ready blob of a stored object: a float64 array becomes a dict of
    its dtype "<f8", shape and little-endian bytes in base64 ("data"), any
    other array a list, and a nested stored object a blob."""
    return {"kind": obj.kind, **{name: _encode(getattr(obj, name)) for name in obj.fields}}


def _encode(value):
    if isinstance(value, np.ndarray) and value.dtype == np.float64:
        data = base64.b64encode(value.astype("<f8", copy=False).tobytes()).decode("ascii")
        return {"dtype": "<f8", "shape": list(value.shape), "data": data}
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
    values = {name: _decode(blob[name], f"{kind!r} blob field {name!r}") for name in cls.fields}
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ClassifyError(f"{kind!r} blob: {exc}") from None


def _decode(value, where: str):
    if isinstance(value, dict):
        return model_from_blob(value) if "kind" in value else _decode_array(value, where)
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return [model_from_blob(v) for v in value]
    return value  # constructors turn lists back into arrays


def _decode_array(value: dict, where: str) -> np.ndarray:
    """The writable float64 array that a {"dtype", "shape", "data"} dict stores."""
    shape = value.get("shape")
    if set(value) != {"dtype", "shape", "data"} or value["dtype"] != "<f8":
        raise ClassifyError(f"{where}: a float array needs keys data, dtype '<f8' and shape, "
                            f"got keys {sorted(value)}, dtype {value.get('dtype')!r}")
    if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
        raise ClassifyError(f"{where}: array shape must list non-negative integers, got {shape!r}")
    try:
        raw = base64.b64decode(value["data"], validate=True)
    except (TypeError, ValueError) as exc:  # not a string, a non-base64 character, bad padding
        raise ClassifyError(f"{where}: array data is not base64: {exc}") from None
    if len(raw) != 8 * math.prod(shape):
        raise ClassifyError(f"{where}: {len(raw)} bytes of array data do not fill shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


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


class Predictor(Stored):
    """A stored object whose predict(values) gives each row a class below
    n_classes and reads no feature at or beyond n_features."""

    n_classes: int
    n_features: int


class TrainedModel(Predictor):
    """Base fitted classifier: subclasses implement _predict on validated input."""

    def __init__(self, n_classes: int, n_features: int):
        self.n_classes = int(n_classes)
        self.n_features = int(n_features)

    def predict(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if values.shape[1] != self.n_features:
            raise ClassifyError(
                f"feature count mismatch: got {values.shape[1]}, expected {self.n_features}"
            )
        return self._predict(values)

    def _predict(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def class_bound(classes: np.ndarray) -> int:
    """n_classes of a model that predicts only `classes`: one past the
    largest. The classes must be non-empty, non-negative and strictly
    increasing."""
    if classes.ndim != 1 or classes.size == 0 or classes[0] < 0 or np.any(np.diff(classes) <= 0):
        raise ClassifyError(
            f"classes must be non-negative and strictly increasing, got {classes.tolist()}"
        )
    return int(classes[-1]) + 1


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


class VoteModel(TrainedModel):
    """Hard vote over fitted members, weighted if weights are given; ties go
    to the lower class. Bagging votes over its bootstrap fits, AdaBoost over
    its forests weighted by their SAMME alphas, and voting over the row's
    fitted pipelines. A member may know fewer classes than the vote (a
    bootstrap draw can lack one)."""

    kind = "vote"

    def __init__(self, members, n_classes, n_features, weights=None):
        super().__init__(n_classes=n_classes, n_features=n_features)
        if not isinstance(members, list) or not members:
            raise ClassifyError(f"vote members must be a non-empty list, got {members!r}")
        for m in members:
            if not isinstance(m, Predictor):
                raise ClassifyError(f"vote member is a {type(m).__name__}, not a predictor")
            if m.n_classes > self.n_classes or m.n_features > self.n_features:
                raise ClassifyError(
                    f"vote member with {m.n_classes} classes, {m.n_features} features "
                    f"exceeds the vote's {self.n_classes}, {self.n_features}"
                )
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (len(members),):
                raise ClassifyError("vote weights must give one number per member")
        self.members = members
        self.weights = weights

    def _predict(self, values: np.ndarray) -> np.ndarray:
        votes = np.vstack([m.predict(values) for m in self.members])
        return majority_vote(votes, self.n_classes, self.weights)
