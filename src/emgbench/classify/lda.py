"""Linear discriminant analysis via SVD of the pooled within-class scatter
(no explicit covariance inversion)."""
from __future__ import annotations

import numpy as np

from ..features.extract import FeatureMatrix
from .base import ClassifyError, TrainedModel, class_bound


class LdaModel(TrainedModel):
    kind = "lda"

    def __init__(self, whitener, class_means_w, log_priors, classes, n_features):
        self.classes = np.asarray(classes, dtype=np.int64)
        super().__init__(n_classes=class_bound(self.classes), n_features=n_features)
        self.whitener = np.asarray(whitener, dtype=np.float64)  # [d x r]
        self.class_means_w = np.asarray(class_means_w, dtype=np.float64)  # [K x r]
        self.log_priors = np.asarray(log_priors, dtype=np.float64)

    def _predict(self, values: np.ndarray) -> np.ndarray:
        xw = values @ self.whitener
        # Gaussian discriminant with shared (whitened identity) covariance
        scores = (
            xw @ self.class_means_w.T
            - 0.5 * np.sum(self.class_means_w**2, axis=1)
            + self.log_priors
        )
        return self.classes[np.argmax(scores, axis=1)]


def fit_lda(train: FeatureMatrix) -> LdaModel:
    X = train.values
    y = train.labels
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise ClassifyError("single class: LDA needs at least 2 classes")
    if np.any(counts < 2):
        small = classes[counts < 2]
        raise ClassifyError(f"classes with fewer than 2 samples: {small.tolist()}")

    n, d = X.shape
    means = np.vstack([X[y == c].mean(axis=0) for c in classes])
    centered = X - means[np.searchsorted(classes, y)]
    # Pooled within-class covariance is V diag(s^2/(n-K)) V^T for the SVD below.
    _, s, vt = np.linalg.svd(centered / np.sqrt(n - classes.size), full_matrices=False)
    tol = max(s) * max(n, d) * np.finfo(np.float64).eps if s.size else 0.0
    keep = s > tol
    if not np.any(keep):
        # Degenerate scatter (e.g. duplicated rows): fall back to identity
        # covariance so prediction reduces to nearest class mean.
        whitener = np.eye(d)
    else:
        whitener = vt[keep].T / s[keep]
    return LdaModel(
        whitener=whitener,
        class_means_w=means @ whitener,
        log_priors=np.log(counts / n),
        classes=classes,
        n_features=d,
    )
