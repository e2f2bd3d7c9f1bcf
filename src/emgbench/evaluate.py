"""Train/test protocol and metrics: stratified splitting, confusion
matrices, and per-class / macro precision, recall, F1."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class EvalError(ValueError):
    pass


def stratified_split(
    labels: np.ndarray, test_fraction: float = 0.2, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive train/test indices preserving class proportions.

    Per class, round(n * test_fraction) test rows with a minimum of one
    (and at least one training row); deterministic for a fixed seed.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if not (0 < test_fraction < 1):
        raise EvalError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.size < 2:
            raise EvalError(f"class {c} has fewer than 2 windows")
        n_test = int(round(idx.size * test_fraction))
        n_test = min(max(n_test, 1), idx.size - 1)
        perm = rng.permutation(idx)
        test_idx.append(perm[:n_test])
        train_idx.append(perm[n_test:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i, j] = windows of true class i predicted as class j."""

    counts: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        k = len(self.class_names)
        if counts.shape != (k, k):
            raise EvalError(f"confusion matrix shape {counts.shape} != ({k}, {k})")
        if np.any(counts < 0):
            raise EvalError("confusion matrix has negative counts")

    @classmethod
    def from_labels(
        cls, true: np.ndarray, predicted: np.ndarray, class_names: list[str]
    ) -> "ConfusionMatrix":
        true = np.asarray(true)
        predicted = np.asarray(predicted)
        if true.shape != predicted.shape:
            raise EvalError("true/predicted length mismatch")
        k = len(class_names)
        for name, labels in (("true", true), ("predicted", predicted)):
            outside = np.flatnonzero((labels < 0) | (labels >= k))
            if outside.size:
                i = outside[0]
                raise EvalError(f"{name} label {labels[i]} at row {i} is outside [0, {k})")
        cells = true.astype(np.int64) * k + predicted.astype(np.int64)
        counts = np.bincount(cells.ravel(), minlength=k * k).reshape(k, k)
        return cls(counts=counts, class_names=tuple(class_names))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    per_class_precision: tuple[float, ...]
    per_class_recall: tuple[float, ...]
    per_class_f1: tuple[float, ...]
    macro_precision: float
    macro_recall: float
    macro_f1: float


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Accuracy plus per-class one-vs-rest precision/recall/F1 and their
    unweighted (macro) means; 0/0 ratios are defined as 0."""
    counts = cm.counts
    total = cm.total
    if total == 0:
        raise EvalError("empty confusion matrix")
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp

    def safe_div(num, den):
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)

    precision = safe_div(tp, tp + fp)
    recall = safe_div(tp, tp + fn)
    f1 = safe_div(2.0 * precision * recall, precision + recall)
    return MetricsReport(
        accuracy=float(tp.sum() / total),
        per_class_precision=tuple(precision.tolist()),
        per_class_recall=tuple(recall.tolist()),
        per_class_f1=tuple(f1.tolist()),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
    )


@dataclass
class EvaluationReport:
    """One benchmark cell: metrics, confusion matrix, and provenance."""

    family: str
    model: str
    metrics: MetricsReport
    confusion: ConfusionMatrix
    config: dict = field(default_factory=dict)
    seed: int = 0
    timing: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "model": self.model,
            "accuracy": self.metrics.accuracy,
            "macro_precision": self.metrics.macro_precision,
            "macro_recall": self.metrics.macro_recall,
            "macro_f1": self.metrics.macro_f1,
            "per_class": {
                "precision": list(self.metrics.per_class_precision),
                "recall": list(self.metrics.per_class_recall),
                "f1": list(self.metrics.per_class_f1),
            },
            "confusion": self.confusion.counts.tolist(),
            "class_names": list(self.confusion.class_names),
            "config": self.config,
            "seed": self.seed,
            "timing": self.timing,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EvaluationReport":
        """Inverse of `to_json_dict`; a missing timing field reads as empty."""
        per_class = doc["per_class"]
        return cls(
            family=doc["family"],
            model=doc["model"],
            metrics=MetricsReport(
                accuracy=doc["accuracy"],
                per_class_precision=tuple(per_class["precision"]),
                per_class_recall=tuple(per_class["recall"]),
                per_class_f1=tuple(per_class["f1"]),
                macro_precision=doc["macro_precision"],
                macro_recall=doc["macro_recall"],
                macro_f1=doc["macro_f1"],
            ),
            confusion=ConfusionMatrix(
                counts=doc["confusion"], class_names=tuple(doc["class_names"])
            ),
            config=doc.get("config", {}),
            seed=doc.get("seed", 0),
            timing=doc.get("timing", {}),
        )
