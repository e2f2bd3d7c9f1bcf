"""Linear SVM (one-vs-rest) trained by deterministic dual coordinate
descent on the hinge-loss dual."""
from __future__ import annotations

import numpy as np

from ..features.extract import FeatureMatrix
from .base import ClassifyError, TrainedModel


def _train_binary(X: np.ndarray, y: np.ndarray, C: float, rng: np.random.Generator,
                  max_epochs: int, tol: float) -> np.ndarray:
    """Dual coordinate descent for min 0.5|w|^2 + C sum hinge(y w.x).

    X already carries the bias feature; y in {-1, +1}.
    """
    n, d = X.shape
    alpha = np.zeros(n)
    w = np.zeros(d)
    qdiag = np.sum(X * X, axis=1)
    order = np.arange(n)
    for _ in range(max_epochs):
        rng.shuffle(order)
        max_violation = 0.0
        for i in order:
            if qdiag[i] <= 0:
                continue
            g = y[i] * (X[i] @ w) - 1.0
            pg = g
            if alpha[i] <= 0:
                pg = min(g, 0.0)
            elif alpha[i] >= C:
                pg = max(g, 0.0)
            if abs(pg) > 1e-14:
                new = min(max(alpha[i] - g / qdiag[i], 0.0), C)
                w += (new - alpha[i]) * y[i] * X[i]
                alpha[i] = new
            max_violation = max(max_violation, abs(pg))
        if max_violation < tol:
            break
    return w


class LinearSvmModel(TrainedModel):
    kind = "svm"

    def __init__(self, weights, classes, n_features, seed=0, C=1.0):
        super().__init__(n_classes=len(classes), n_features=n_features, seed=seed)
        self.weights = np.asarray(weights, dtype=np.float64)  # [K x d+1]
        self.classes = np.asarray(classes, dtype=np.int64)
        self.C = float(C)

    def decision_values(self, values: np.ndarray) -> np.ndarray:
        aug = np.column_stack([values, np.ones(values.shape[0])])
        return aug @ self.weights.T

    def _predict(self, values: np.ndarray) -> np.ndarray:
        return self.classes[np.argmax(self.decision_values(values), axis=1)]


def fit_linear_svm(
    train: FeatureMatrix,
    C: float = 1.0,
    seed: int = 0,
    max_epochs: int = 60,
    tol: float = 1e-4,
) -> LinearSvmModel:
    X = train.values
    y = train.labels
    classes = np.unique(y)
    if classes.size < 2:
        raise ClassifyError("single class: SVM needs at least 2 classes")
    aug = np.column_stack([X, np.ones(X.shape[0])])
    weights = []
    for i, c in enumerate(classes):
        rng = np.random.default_rng((seed, i))
        yc = np.where(y == c, 1.0, -1.0)
        weights.append(_train_binary(aug, yc, C, rng, max_epochs, tol))
    return LinearSvmModel(
        weights=np.vstack(weights), classes=classes, n_features=X.shape[1], seed=seed, C=C
    )
