"""Window-set feature extraction into a named feature matrix."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..preprocess import WindowSet
from ..signal_io import read_csv
from .tdd import FeatureError, ftdd_names, ftdd_windows, tsd_names, tsd_windows
from .wavelet import wavelet_names, wavelet_windows

# family -> (names(n_channels), rows(windows)): the column names and the
# batched feature rows of [w, C, N] windows.
_FAMILIES = {
    "ftdd": (ftdd_names, ftdd_windows),
    "tsd": (tsd_names, tsd_windows),
    "wavelet": (wavelet_names, wavelet_windows),
}
FAMILIES = tuple(_FAMILIES)
# Samples per batch of windows. Each temporary of the feature code is about
# one batch, so the allocator reuses its memory; per-trial batches (about
# 1 MB at 8 channels, 600 ms, 2048 Hz) were mapped and faulted in afresh.
BATCH_BYTES = 320 * 1024


@dataclass(frozen=True)
class FeatureMatrix:
    """Rows = windows, columns = named features, plus a label vector."""

    values: np.ndarray
    feature_names: tuple[str, ...]
    labels: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        if values.ndim != 2 or values.shape[1] != len(self.feature_names):
            raise FeatureError(
                f"values shape {values.shape} does not match {len(self.feature_names)} names"
            )
        if len(set(self.feature_names)) != len(self.feature_names):
            raise FeatureError("feature names are not unique")
        if values.shape[0] != labels.size:
            raise FeatureError("row count does not match label count")
        if not np.all(np.isfinite(values)):
            raise FeatureError("feature matrix contains non-finite values")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def select(self, indices: np.ndarray) -> "FeatureMatrix":
        return FeatureMatrix(
            values=self.values[indices],
            feature_names=self.feature_names,
            labels=self.labels[indices],
        )

    def to_csv(self, path: str | Path) -> None:
        header = ",".join([*self.feature_names, "label"])
        body = np.column_stack([self.values, self.labels.astype(np.float64)])
        np.savetxt(path, body, fmt="%.17g", delimiter=",", header=header, comments="")

    @classmethod
    def from_csv(cls, path: str | Path) -> "FeatureMatrix":
        """The matrix `to_csv` wrote; a file it cannot read is refused by name."""
        path = Path(path)
        with open(path) as fh:  # the header and the first data row, not the whole file
            header = fh.readline().strip().split(",")
            if header[-1] != "label":
                raise FeatureError(f"{path}: feature CSV lacks a trailing label column")
            if not any(line.strip() for line in fh):
                raise FeatureError(f"{path}: feature CSV has no data rows")
        try:
            body = read_csv(path, "features-2", skiprows=1)
            labels = body[:, -1]
            whole = (labels >= 0) & (labels < 2.0**63) & (labels == np.floor(labels))
            if not whole.all():
                i = np.flatnonzero(~whole)[0]
                raise FeatureError(f"data row {i} has label {labels[i]:g}, "
                                   "not a non-negative whole number below 2**63")
            return cls(
                values=body[:, :-1],
                feature_names=tuple(header[:-1]),
                labels=labels.astype(np.int64),
            )
        except ValueError as exc:  # a bad cell or label, a ragged row, rows unlike the header
            raise FeatureError(f"{path}: {exc}") from None


def extract(ws: WindowSet, family: str) -> FeatureMatrix:
    """One feature row per window for the requested descriptor family,
    computed on [w, C, N] views of a trial's windows, a few windows
    (BATCH_BYTES of samples) at a time."""
    if family not in _FAMILIES:
        raise FeatureError(f"unknown feature family: {family!r} (expected one of {FAMILIES})")
    if len(ws) == 0:
        raise FeatureError("empty window set")
    names, rows = _FAMILIES[family]
    step = max(1, BATCH_BYTES // (ws.n_channels * ws.length * 8))
    return FeatureMatrix(
        values=np.concatenate(
            [rows(v[i : i + step]) for v in ws.trial_windows() for i in range(0, len(v), step)]
        ),
        feature_names=tuple(names(ws.n_channels)),
        labels=ws.labels,
    )
