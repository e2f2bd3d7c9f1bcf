"""Brute-force Euclidean k-nearest-neighbors with documented tie-breaks."""
from __future__ import annotations

import numpy as np

from ..features.extract import FeatureMatrix
from .base import ClassifyError, TrainedModel

K = 5  # neighbours that vote


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of each row of d2 in (distance, column) order,
    as argsort(d2, kind="stable")[:, :k] gives them, without a full sort.

    Only columns at most the row's k-th smallest distance can be among
    them; ties may make that more than k. NaN distances sort last: no
    column is > a NaN k-th distance, so such a row keeps all its columns.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(~(d2 > kth[:, None]))  # rows ascending
    order = np.lexsort((cols, d2[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(d2.shape[0]))
    return cols[order][starts[:, None] + np.arange(k)]


def knn_predict(
    train_values: np.ndarray,
    train_labels: np.ndarray,
    query: np.ndarray,
    k: int,
) -> np.ndarray:
    """Majority vote among the k nearest training rows.

    Distance ties resolve toward the lower training-row index; class-count
    ties resolve to the class of the nearest neighbor among tied classes.
    """
    train_values = np.asarray(train_values, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    query = np.atleast_2d(np.asarray(query, dtype=np.float64))
    n = train_values.shape[0]
    if n == 0:
        raise ClassifyError("empty training set")
    if not (1 <= k <= n):
        raise ClassifyError(f"k={k} out of range for {n} training rows")

    d2 = (
        np.sum(query**2, axis=1)[:, None]
        - 2.0 * query @ train_values.T
        + np.sum(train_values**2, axis=1)[None, :]
    )
    labels = train_labels[_nearest(d2, k)]
    counts = np.sum(labels[:, :, None] == np.arange(train_labels.max() + 1), axis=1)
    tied = counts == counts.max(axis=1, keepdims=True)
    # the label of the nearest neighbor whose label is among the tied classes
    nearest = np.argmax(np.take_along_axis(tied, labels, axis=1), axis=1)
    return np.take_along_axis(labels, nearest[:, None], axis=1)[:, 0]


class KnnModel(TrainedModel):
    kind = "knn"

    def __init__(self, train_values, train_labels, n_classes):
        self.train_values = np.asarray(train_values, dtype=np.float64)
        super().__init__(n_classes=n_classes, n_features=self.train_values.shape[1])
        self.train_labels = np.asarray(train_labels, dtype=np.int64)
        if np.any((self.train_labels < 0) | (self.train_labels >= self.n_classes)):
            raise ClassifyError(f"knn training labels must lie in [0, {self.n_classes})")

    def _predict(self, values: np.ndarray) -> np.ndarray:
        return knn_predict(self.train_values, self.train_labels, values, K)


def fit_knn(train: FeatureMatrix) -> KnnModel:
    if train.n_rows == 0:
        raise ClassifyError("empty training set")
    if K > train.n_rows:
        raise ClassifyError(f"k={K} exceeds training size {train.n_rows}")
    return KnnModel(
        train_values=train.values,
        train_labels=train.labels,
        n_classes=int(train.labels.max()) + 1,
    )
