"""Train/test protocol and metrics: stratified splitting, confusion
matrices, and per-class / macro precision, recall, F1."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class EvalError(ValueError):
    pass


def stratified_split(
    labels: np.ndarray, test_fraction: float = 0.2, seed: int = 0,
    groups: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive train/test row indices that keep each group (a
    trial, subject or session; by default each row) whole on one side. When
    every group holds one class, each class draws from its own groups, else
    one draw takes from all; a draw over n groups tests round(n *
    test_fraction) of them, at least 1 and at most n - 1."""
    labels = np.asarray(labels, dtype=np.int64)
    if not (0 < test_fraction < 1):
        raise EvalError(f"test_fraction must be in (0, 1), got {test_fraction}")
    unit = "windows" if groups is None else "groups"
    names, group = np.unique(np.arange(labels.size) if groups is None else groups,
                             return_inverse=True)
    group_label = np.empty(names.size, dtype=np.int64)
    group_label[group] = labels
    if np.array_equal(group_label[group], labels):  # every group holds one class
        pools = [(f"class {c}", np.flatnonzero(group_label == c)) for c in np.unique(labels)]
    else:
        pools = [("the split", np.arange(group_label.size))]
    rng = np.random.default_rng(seed)
    test_groups = []
    for name, pool in pools:
        if pool.size < 2:
            raise EvalError(f"{name} has fewer than 2 {unit}")
        n_test = min(max(int(round(pool.size * test_fraction)), 1), pool.size - 1)
        test_groups.append(rng.permutation(pool)[:n_test])
    test = np.isin(group, np.concatenate(test_groups))
    return np.flatnonzero(~test), np.flatnonzero(test)


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
    """One benchmark cell: confusion matrix, its metrics, and provenance."""

    family: str
    model: str
    confusion: ConfusionMatrix
    seed: int = 0
    timing: dict = field(default_factory=dict)
    metrics: MetricsReport = field(init=False)

    def __post_init__(self):
        self.metrics = metrics(self.confusion)

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
            "seed": self.seed,
            "timing": self.timing,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EvaluationReport":
        """The cell `to_json_dict` wrote, with its metrics recomputed from
        its confusion matrix: the metric fields are written for readers and
        not read back. A missing seed or timing field reads as empty."""
        for key in ("family", "model"):
            if not isinstance(doc[key], str):
                raise EvalError(f"{key} must be a string, got {doc[key]!r}")
        names, counts = doc["class_names"], doc["confusion"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise EvalError(f"class_names must be a list of strings, got {names!r}")
        k = len(names)
        if not (isinstance(counts, list) and len(counts) == k
                and all(isinstance(row, list) and len(row) == k for row in counts)):
            raise EvalError(f"confusion must be a {k} x {k} list of lists, one per class name")
        # type(v) is int: numpy would coerce a bool, float or string count
        bad = [v for row in counts for v in row if type(v) is not int]
        if bad:
            raise EvalError(f"confusion counts must be integers, got {bad[0]!r}")
        cm = ConfusionMatrix(counts=counts, class_names=tuple(names))
        return cls(
            family=doc["family"],
            model=doc["model"],
            confusion=cm,
            seed=doc.get("seed", 0),
            timing=doc.get("timing", {}),
        )
