"""Linear SVM (one-vs-rest) with the L2 loss (squared hinge), fitted by a
finite Newton method on the primal with an exact line search (Keerthi &
DeCoste, "A modified finite Newton method for fast solution of large scale
linear SVMs", JMLR 2005; Chapelle, "Training a support vector machine in
the primal", Neural Computation 2007). Each Newton system is solved
exactly, through the Gram matrix of the training rows when the active sets
are smaller than the feature count and through the Hessian otherwise. The
one-vs-rest problems of a fit, and of every bagging member, are solved in
one batch on the shared training matrix; the solve is deterministic and
visits no rows in random order, so it needs no shuffle seed."""
from __future__ import annotations

import warnings

import numpy as np

from ..features.extract import FeatureMatrix
from .base import ClassifyError, TrainedModel, class_bound

C = 1.0  # weight of the loss against 0.5|w|^2
MAX_ITER = 100  # Newton steps a problem may take
TOL = 1e-6  # a problem stops once |g| <= TOL |g0|


def _loss_terms(M, Y, cn):
    """Per-row terms of the objective's derivatives at margins M = W X^T:
    the gradient is W + coef @ X and the generalised Hessian
    I + X^T diag(D) X, for 0.5|w|^2 + sum_j cn_j max(0, 1 - y_j m_j)^2."""
    slack = np.maximum(1.0 - Y * M, 0.0)
    return -2.0 * cn * Y * slack, 2.0 * cn * (slack > 0)


def _newton_directions(X, K, D, G):
    """Exact Newton directions s[p] = -(I + X^T diag(D[p]) X)^-1 G[p], solved
    in the smaller of the two spaces for the whole batch.

    Each problem's active rows A = {j : D[p, j] > 0} are gathered first,
    padded to the batch's largest set, a rows. If a is at most X's d
    columns, the Woodbury identity gives s = -(g - X_A^T (D_A^-1 + K_AA)^-1
    X_A g) from the shared K = X X^T, in one batched [P, a, a] solve whose
    padding slots are identity rows with a zero right-hand side. Otherwise
    the [P, d, d] Hessians I + X_A^T D_A X_A are solved, where padding rows
    weigh 0.
    """
    d = G.shape[1]
    sizes = np.count_nonzero(D, axis=1)
    a = sizes.max()
    # Active rows first; the padding slots hold inactive rows, so each
    # problem's slots name distinct rows.
    idx = np.argsort(D == 0, axis=1, kind="stable")[:, :a]
    DA = np.take_along_axis(D, idx, axis=1)  # 0 on padding
    if a > d:
        XA = X[idx] * np.sqrt(DA)[:, :, None]
        H = XA.transpose(0, 2, 1) @ XA
        H[:, np.arange(d), np.arange(d)] += 1.0
        return -np.linalg.solve(H, G[:, :, None])[:, :, 0]
    real = np.arange(a) < sizes[:, None]
    M = K[idx[:, :, None], idx[:, None, :]]
    M *= real[:, :, None]
    M *= real[:, None, :]
    M[:, np.arange(a), np.arange(a)] += 1.0 / np.where(real, DA, 1.0)
    rhs = np.where(real, np.take_along_axis(G @ X.T, idx, axis=1), 0.0)
    V = np.zeros_like(D)
    np.put_along_axis(V, idx, np.linalg.solve(M, rhs[:, :, None])[:, :, 0], axis=1)
    return V @ X - G


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


def _train_primal(X: np.ndarray, counts: np.ndarray, Y: np.ndarray,
                  W0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton for P problems min 0.5|w|^2 + C sum_j n_j max(0, 1 - y_j w.x_j)^2.

    X [N, d] carries the bias column and is shared by all problems: problem
    p weighs row j by counts[p, j] (0 leaves it out) with label Y[p, j] in
    {-1, +1}. Each Newton step solves H s = -g exactly (`_newton_directions`,
    sharing K = X X^T across the batch), then takes the exact minimiser
    along s. The solve starts from W0 [P, d] (zeros if None); the optimum
    is unique, so a start changes only the path to it. A problem stops once
    |g| <= TOL * |g0|, g0 being its gradient at w = 0 whatever the start,
    or after MAX_ITER steps.

    Returns the weights [P, d], the Newton steps taken per problem and each
    problem's final relative gradient |g| / |g0| (0 where g0 = 0).
    """
    P = counts.shape[0]
    cn = C * counts
    g0 = np.linalg.norm(_loss_terms(np.zeros(Y.shape), Y, cn)[0] @ X, axis=1)
    W = np.zeros((P, X.shape[1])) if W0 is None else np.array(W0, dtype=np.float64)
    K = X @ X.T
    M = W @ X.T
    coef, D = _loss_terms(M, Y, cn)
    G = W + coef @ X
    gnorm = np.linalg.norm(G, axis=1)
    iters = np.zeros(P, dtype=np.int64)
    live = np.flatnonzero(gnorm > TOL * g0)
    for _ in range(MAX_ITER):
        if live.size == 0:
            break
        S = _newton_directions(X, K, D[live], G[live])
        t = _exact_steps(W[live], S, M[live], S @ X.T, Y[live], cn[live])
        W[live] += t[:, None] * S
        M[live] = W[live] @ X.T
        coef, D[live] = _loss_terms(M[live], Y[live], cn[live])
        G[live] = W[live] + coef @ X
        gnorm[live] = np.linalg.norm(G[live], axis=1)
        iters[live] += 1
        live = live[gnorm[live] > TOL * g0[live]]
    return W, iters, np.divide(gnorm, g0, out=np.zeros(P), where=g0 > 0)


class LinearSvmModel(TrainedModel):
    kind = "svm"

    def __init__(self, weights, classes, n_features):
        self.classes = np.asarray(classes, dtype=np.int64)
        super().__init__(n_classes=class_bound(self.classes), n_features=n_features)
        self.weights = np.asarray(weights, dtype=np.float64)  # [K x d+1]

    def _predict(self, values: np.ndarray) -> np.ndarray:
        aug = np.column_stack([values, np.ones(values.shape[0])])
        return self.classes[np.argmax(aug @ self.weights.T, axis=1)]


def fit_linear_svms(
    train: FeatureMatrix,
    row_sets: list[np.ndarray],
    start: LinearSvmModel | None = None,
) -> list[LinearSvmModel]:
    """One one-vs-rest SVM per row set of train (a row drawn twice counts
    twice, as in a bootstrap draw). Each class's problem starts from
    start's weights for that class, if start has that class, and from zero
    otherwise. Warns when a problem stops at MAX_ITER short of TOL."""
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
                                       np.array(W0) if starts else None)
    stuck = rel_grad > TOL
    if stuck.any():
        warnings.warn(
            f"SVM: {stuck.sum()} of {stuck.size} problems stopped at max_iter={MAX_ITER} "
            f"with relative gradient up to {rel_grad.max():.3g} > tol={TOL:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    bounds = np.cumsum([0] + [cs.size for cs in classes])
    return [
        LinearSvmModel(weights=W[lo:hi], classes=cs, n_features=train.n_features)
        for cs, lo, hi in zip(classes, bounds[:-1], bounds[1:])
    ]


def fit_linear_svm(train: FeatureMatrix) -> LinearSvmModel:
    return fit_linear_svms(train, [np.arange(train.n_rows)])[0]
