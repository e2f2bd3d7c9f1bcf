"""Linear SVM (one-vs-rest) with the L2 loss (squared hinge), fitted by a
line-search Newton method on the primal with conjugate-gradient steps
(Keerthi & DeCoste, JMLR 2005; Lin, Weng & Keerthi, "Trust Region Newton
Method for Large-Scale Logistic Regression", JMLR 2008). The one-vs-rest
problems of a fit, and of every bagging member, are solved in one batch on
the shared training matrix; the solve is deterministic and visits no rows
in random order, so it needs no shuffle seed."""
from __future__ import annotations

import warnings

import numpy as np

from ..features.extract import FeatureMatrix
from .base import ClassifyError, TrainedModel


def _loss_terms(M, Y, cn):
    """Per-row terms of the objective's derivatives at margins M = W X^T:
    the gradient is W + coef @ X and the generalised Hessian
    I + X^T diag(D) X, for 0.5|w|^2 + sum_j cn_j max(0, 1 - y_j m_j)^2."""
    slack = np.maximum(1.0 - Y * M, 0.0)
    return -2.0 * cn * Y * slack, 2.0 * cn * (slack > 0)


def _cg_directions(X, D, G):
    """Batched conjugate gradient on (I + X^T diag(D[p]) X) s = -G[p], each
    problem stopping once its residual is at most 0.1 |G[p]|."""
    rows = np.flatnonzero(D.any(axis=0))  # rows outside every active set add nothing
    X, D = X[rows], D[:, rows]
    S, R = np.zeros_like(G), -G
    Dir = R.copy()
    rr = np.einsum("ij,ij->i", R, R)
    goal = 0.01 * rr
    live = np.flatnonzero(rr > goal)
    for _ in range(X.shape[1]):  # exact within d steps, bar rounding
        if live.size == 0:
            break
        p = Dir[live]
        hp = p + (D[live] * (p @ X.T)) @ X
        alpha = rr[live] / np.einsum("ij,ij->i", p, hp)
        S[live] += alpha[:, None] * p
        R[live] -= alpha[:, None] * hp
        new = np.einsum("ij,ij->i", R[live], R[live])
        Dir[live] = R[live] + (new / rr[live])[:, None] * p
        rr[live] = new
        live = live[new > goal[live]]
    return S


def _exact_steps(W, S, M, Z, Y, cn):
    """Per problem, the t >= 0 that minimises the objective along W + t S.

    With margins M and their change Z = S X^T, the derivative along the
    line is piecewise linear and nondecreasing in t: A + B t, where row j
    adds 2 cn_j ((m_j - y_j) z_j + t z_j^2) while y_j (m_j + t z_j) < 1.
    Rows enter or leave that set at t_j = (1 - y_j m_j) / (y_j z_j); a sweep
    over the sorted t_j finds the segment where the derivative reaches 0.
    """
    u, v = 1.0 - Y * M, Y * Z
    a, b = 2.0 * cn * (M - Y) * Z, 2.0 * cn * Z * Z
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = u / v
    moves = (v != 0) & (cross > 0)
    start = (u > 0) | ((u == 0) & (v < 0))  # in the set just after t = 0
    A0 = np.einsum("ij,ij->i", W, S) + np.sum(np.where(start, a, 0.0), axis=1)
    B0 = np.einsum("ij,ij->i", S, S) + np.sum(np.where(start, b, 0.0), axis=1)
    sign = np.where(moves, np.where(v < 0, 1.0, -1.0), 0.0)  # enter or leave
    cross = np.where(moves, cross, np.inf)
    order = np.argsort(cross, axis=1)

    def swept(start_value, delta):  # value on each segment, the k-th after k crossings
        steps = np.cumsum(np.take_along_axis(sign * delta, order, axis=1), axis=1)
        return np.column_stack([start_value, start_value[:, None] + steps])

    A, B = swept(A0, a), swept(B0, b)
    ends = np.column_stack([np.take_along_axis(cross, order, axis=1), np.full(len(W), np.inf)])
    # The first segment whose right end has a nonnegative derivative holds
    # the root; B > 0 there, as it counts |S|^2.
    seg = np.argmax(A + B * ends >= 0, axis=1)[:, None]
    t = -np.take_along_axis(A, seg, axis=1)[:, 0] / np.take_along_axis(B, seg, axis=1)[:, 0]
    return np.maximum(t, 0.0)


def _train_primal(X: np.ndarray, counts: np.ndarray, Y: np.ndarray, C: float,
                  max_iter: int, tol: float,
                  W0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton-CG for P problems min 0.5|w|^2 + C sum_j n_j max(0, 1 - y_j w.x_j)^2.

    X [N, d] carries the bias column and is shared by all problems: problem
    p weighs row j by counts[p, j] (0 leaves it out) with label Y[p, j] in
    {-1, +1}. Each Newton step solves H s = -g by batched CG to a relative
    residual of 0.1, then takes the exact minimiser along s. The solve starts
    from W0 [P, d] (zeros if None); the optimum is unique, so a start changes
    only the path to it. A problem stops once |g| <= tol * |g0|, g0 being its
    gradient at w = 0 whatever the start, or after max_iter steps.

    Returns the weights [P, d], the Newton steps taken per problem and each
    problem's final relative gradient |g| / |g0| (0 where g0 = 0).
    """
    P = counts.shape[0]
    cn = C * counts
    W = np.zeros((P, X.shape[1]))
    M = np.zeros((P, X.shape[0]))
    coef, D = _loss_terms(M, Y, cn)
    G = coef @ X
    g0 = np.linalg.norm(G, axis=1)
    if W0 is not None:
        W = np.array(W0, dtype=np.float64)
        M = W @ X.T
        coef, D = _loss_terms(M, Y, cn)
        G = W + coef @ X
    gnorm = np.linalg.norm(G, axis=1)
    iters = np.zeros(P, dtype=np.int64)
    live = np.flatnonzero(gnorm > tol * g0)
    for _ in range(max_iter):
        if live.size == 0:
            break
        S = _cg_directions(X, D[live], G[live])
        t = _exact_steps(W[live], S, M[live], S @ X.T, Y[live], cn[live])
        W[live] += t[:, None] * S
        M[live] = W[live] @ X.T
        coef, D[live] = _loss_terms(M[live], Y[live], cn[live])
        G[live] = W[live] + coef @ X
        gnorm[live] = np.linalg.norm(G[live], axis=1)
        iters[live] += 1
        live = live[gnorm[live] > tol * g0[live]]
    return W, iters, np.divide(gnorm, g0, out=np.zeros(P), where=g0 > 0)


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
    max_iter: int = 100,
    tol: float = 1e-6,
    start: LinearSvmModel | None = None,
) -> list[LinearSvmModel]:
    """One one-vs-rest SVM per row set of train (a row drawn twice counts
    twice, as in a bootstrap draw); seeds only label the models. Each
    class's problem starts from start's weights for that class, if start
    has that class, and from zero otherwise. Warns when a problem stops at
    max_iter short of tol."""
    if start is not None and start.n_features != train.n_features:
        raise ClassifyError("start SVM has another feature count than the training set")
    starts = dict(zip(start.classes.tolist(), start.weights)) if start is not None else {}
    zero = np.zeros(train.n_features + 1)
    classes, counts, labels, W0 = [], [], [], []
    for r in row_sets:
        y = train.labels[r]
        cs = np.unique(y)
        if cs.size < 2:
            raise ClassifyError("single class: SVM needs at least 2 classes")
        classes.append(cs)
        n = np.bincount(r, minlength=train.n_rows)
        for c in cs:
            counts.append(n)
            labels.append(np.where(train.labels == c, 1.0, -1.0))
            W0.append(starts.get(int(c), zero))
    aug = np.column_stack([train.values, np.ones(train.n_rows)])
    W, iters, rel_grad = _train_primal(aug, np.array(counts, dtype=np.float64), np.array(labels),
                                       C, max_iter, tol, np.array(W0) if starts else None)
    stuck = rel_grad > tol
    if stuck.any():
        warnings.warn(
            f"SVM: {stuck.sum()} of {stuck.size} problems stopped at max_iter={max_iter} "
            f"with relative gradient up to {rel_grad.max():.3g} > tol={tol:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    bounds = np.cumsum([0] + [cs.size for cs in classes])
    return [
        LinearSvmModel(weights=W[lo:hi], classes=cs, n_features=train.n_features, seed=seed, C=C)
        for cs, seed, lo, hi in zip(classes, seeds, bounds[:-1], bounds[1:])
    ]


def fit_linear_svm(
    train: FeatureMatrix,
    C: float = 1.0,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> LinearSvmModel:
    rows = np.arange(train.n_rows)
    return fit_linear_svms(train, [rows], [seed], C=C, max_iter=max_iter, tol=tol)[0]
