"""Linear SVM (one-vs-rest) trained by deterministic dual coordinate
descent on the hinge-loss dual (Hsieh et al., ICML 2008). All binary
problems of a fit, and of every bagging member, step in lockstep."""
from __future__ import annotations

import numpy as np

from ..features.extract import FeatureMatrix
from .base import ClassifyError, TrainedModel


def _train_duals(X: np.ndarray, rows: np.ndarray, Y: np.ndarray, C: float, rngs: list,
                 max_epochs: int, tol: float) -> np.ndarray:
    """Dual coordinate descent for P problems min 0.5|w|^2 + C sum hinge(y w.x).

    X carries the bias feature; problem p trains on rows X[rows[p]] with
    labels Y[p] in {-1, +1} and visits them in the order that rngs[p]
    shuffles each epoch. It stops once an epoch's largest projected
    gradient is below tol.

    Each problem's weights equal, bit for bit, those of solving it alone
    with scalar steps g = y * (x @ w) - 1 and w += ((new - a) * y) * x.
    Steps gather y * x from [X; -X], and as y is +-1 and rounding is
    symmetric in sign, (y * x) @ w == y * (x @ w) and d * (y * x) ==
    (d * y) * x. A problem that takes no step adds +-0.0 to weights that
    never hold -0.0.
    """
    P, n = rows.shape
    qdiag = np.sum(X * X, axis=1)  # >= 1 from the bias column
    signed = np.concatenate([X, -X])
    W = np.zeros((P, X.shape[1]))
    alpha = np.zeros((P, n))
    order = np.tile(np.arange(n), (P, 1))
    active = np.arange(P)
    for _ in range(max_epochs):
        for p in active:
            rngs[p].shuffle(order[p])
        # The epoch's visits of the active problems, one row per step. Each
        # dual variable is visited once per epoch, so a step reads the
        # alphas of the epoch's start and writes its new alphas to new_t.
        at, visit = active[:, None], order[active]
        rows_t = np.take_along_axis(rows[active], visit, axis=1).T.copy()
        y_t = Y[at, visit].T.copy()
        a_t = alpha[at, visit].T.copy()
        q_t = qdiag[rows_t]
        rows_t[y_t < 0] += X.shape[0]  # the row of y * x in signed
        lo_t = np.where(a_t >= C, 0.0, -np.inf)  # pg = max(g, 0) at alpha = C
        hi_t = np.where(a_t <= 0, 0.0, np.inf)  # pg = min(g, 0) at alpha = 0
        pg_t, new_t = np.empty_like(a_t), np.empty_like(a_t)
        w = W[active]
        x, g, moving, step = (
            np.empty_like(w), np.empty(active.size), np.empty(active.size, dtype=bool),
            np.empty((active.size, 1)),
        )
        x3, w3, g3, delta = x[:, None, :], w[:, :, None], g[:, None, None], step[:, 0]
        for r, a, lo, hi, q, pg, new in zip(rows_t, a_t, lo_t, hi_t, q_t, pg_t, new_t):
            np.take(signed, r, axis=0, out=x, mode="clip")  # "clip": unbuffered; r is in range
            np.matmul(x3, w3, out=g3)  # one ddot per problem, as x @ w
            g -= 1.0
            np.abs(np.minimum(np.maximum(g, lo, out=pg), hi, out=pg), out=pg)
            # A problem with |pg| <= 1e-14 takes no step: its g becomes +-0.0,
            # so its new alpha is a and its weights gain +-0.0.
            np.greater(pg, 1e-14, out=moving)
            g *= moving
            g /= q
            np.subtract(a, g, out=new)
            np.minimum(np.maximum(new, 0.0, out=new), C, out=new)
            np.subtract(new, a, out=delta)
            x *= step
            w += x
        W[active] = w
        alpha[at, visit] = new_t.T
        active = active[pg_t.max(axis=0) >= tol]
        if active.size == 0:
            break
    return W


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


def fit_linear_svms(
    train: FeatureMatrix,
    row_sets: list[np.ndarray],
    seeds: list[int],
    C: float = 1.0,
    max_epochs: int = 60,
    tol: float = 1e-4,
) -> list[LinearSvmModel]:
    """One one-vs-rest SVM per row set of train (all of one length, as
    bootstrap draws are); the binary problem of the i-th class of the
    model with seed s shuffles with default_rng((s, i))."""
    classes, rows, labels, rngs = [], [], [], []
    for r, seed in zip(row_sets, seeds):
        y = train.labels[r]
        cs = np.unique(y)
        if cs.size < 2:
            raise ClassifyError("single class: SVM needs at least 2 classes")
        classes.append(cs)
        for i, c in enumerate(cs):
            rows.append(r)
            labels.append(np.where(y == c, 1.0, -1.0))
            rngs.append(np.random.default_rng((seed, i)))
    aug = np.column_stack([train.values, np.ones(train.n_rows)])
    W = _train_duals(aug, np.array(rows), np.array(labels), C, rngs, max_epochs, tol)
    bounds = np.cumsum([0] + [cs.size for cs in classes])
    return [
        LinearSvmModel(weights=W[lo:hi], classes=cs, n_features=train.n_features, seed=seed, C=C)
        for cs, seed, lo, hi in zip(classes, seeds, bounds[:-1], bounds[1:])
    ]


def fit_linear_svm(
    train: FeatureMatrix,
    C: float = 1.0,
    seed: int = 0,
    max_epochs: int = 60,
    tol: float = 1e-4,
) -> LinearSvmModel:
    rows = np.arange(train.n_rows)
    return fit_linear_svms(train, [rows], [seed], C=C, max_epochs=max_epochs, tol=tol)[0]
