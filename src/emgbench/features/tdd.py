"""Time-domain descriptor families: fused descriptors (per channel, fused
with a log-squared transformed copy) and temporal-spatial descriptors
(within channels and across all pairwise channel differences).

Every temporal-spatial descriptor is built from sums of squares, sums and
a sum of lagged products, which for a difference x_i - x_j are bilinear in
the two channels. So `tsd_windows` reads them, for all channels and pairs
at once, off a few per-window Gram matrices and the channel sums, rather
than making one pass over each of the C(C-1)/2 difference signals."""
from __future__ import annotations

import numpy as np


class FeatureError(ValueError):
    pass


# Moment normalization exponent, and the guard added before each log and
# under each ratio.
K = 0.1
EPS = 1e-10


def _differences(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The signal and its first and second differences over the last axis."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 3:
        raise FeatureError(f"signal too short for moment features: {x.shape[-1]} < 3")
    dx = np.diff(x)
    return x, dx, np.diff(dx)


def _moments(parts) -> list[np.ndarray]:
    """Root-squared moment of each part, normalized by the length of the first."""
    n = parts[0].shape[-1]
    return [np.sqrt(np.sum(d * d, axis=-1) / n) for d in parts]


def _lambda(m0: np.ndarray) -> np.ndarray:
    """Normalization factor per window from its channels' m0 [..., C]: the
    median of m0^K over the channels, shaped [..., 1]."""
    lam = np.median(np.power(m0, K), axis=-1, keepdims=True)
    return np.where(lam > 0, lam, 1.0)


def resolve_lambda(channels: np.ndarray) -> np.ndarray:
    """Normalization factor per window of [..., C, N] channels."""
    return _lambda(_moments([channels])[0])


def _core_features(moments, lam) -> list[np.ndarray]:
    """Normalized log moments, sparseness and irregularity factor from the
    root-squared moments m0, m2, m4; shared by both descriptor families."""
    m0, m2, m4 = (np.power(m, K) / lam for m in moments)
    sparseness = m0 / (np.sqrt(np.abs(m0 - m2)) * np.sqrt(np.abs(m0 - m4)) + EPS)
    irf = np.sqrt(m2 / (m0 * m4 + EPS))
    return [np.log(f + EPS) for f in (m0, m2, m4, sparseness, irf)]


def tdd_base(x: np.ndarray, lam=1.0) -> np.ndarray:
    """Six descriptors per signal on the last axis, [..., N] -> [..., 6]: log
    moments, sparseness, irregularity factor, and the waveform-length ratio
    of second to first differences."""
    _, dx, ddx = parts = _differences(x)
    wlr = np.sum(np.abs(ddx), axis=-1) / (np.sum(np.abs(dx), axis=-1) + EPS)
    return np.stack([*_core_features(_moments(parts), lam), np.log(wlr + EPS)], axis=-1)


def fuse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise cosine contributions over the last axis:
    c_j = a_j b_j / (|a| |b|).

    The sum of the fused vector is the cosine similarity of a and b.
    """
    denom = np.linalg.norm(a, axis=-1, keepdims=True) * np.linalg.norm(b, axis=-1, keepdims=True)
    return a * b / (denom + EPS)


def ftdd_windows(windows: np.ndarray) -> np.ndarray:
    """Fused descriptors of [..., C, N] windows, one [..., 6C] row each: per
    channel, fuse the descriptors of the signal with those of log(x^2 + EPS)."""
    a = tdd_base(windows, resolve_lambda(windows))
    transformed = np.log(windows * windows + EPS)
    b = tdd_base(transformed, resolve_lambda(transformed))
    return fuse(a, b).reshape(*windows.shape[:-2], -1)


def ftdd_names(n_channels: int) -> list[str]:
    return [f"ch{i}_ftdd{j}" for i in range(n_channels) for j in range(6)]


def tsd_windows(windows: np.ndarray) -> np.ndarray:
    """Temporal-spatial descriptors of [..., C, N] windows: seven features
    of each channel, then of every pairwise channel difference x_i - x_j,
    lexicographic (i, j), i < j. They are the log moments, sparseness,
    irregularity factor, log CoV std / (|mean| + EPS) and the log of the
    absolute Teager-Kaiser sum sum_t x_t^2 - x_{t-1} x_{t+1}. A channel
    takes the diagonal G_ii of each Gram matrix, a difference
    G_ii + G_jj - 2 G_ij, which cancels for nearly equal channels and so
    is clamped at 0 where it is a sum of squares."""
    x, dx, ddx = _differences(windows)
    n_ch, n = x.shape[-2:]
    if n_ch < 2:
        raise FeatureError("temporal-spatial descriptors need at least 2 channels")
    i, j = np.triu_indices(n_ch, 1)

    def channels_and_pairs(G):
        own = np.diagonal(G, axis1=-2, axis2=-1)
        return np.concatenate([own, own[..., i] + own[..., j] - 2.0 * G[..., i, j]], axis=-1)

    def gram(a, b):
        return a @ b.swapaxes(-1, -2)

    squares = [np.maximum(channels_and_pairs(gram(d, d)), 0.0) for d in (x, dx, ddx)]
    lam = _lambda(np.sqrt(squares[0][..., :n_ch] / n))
    core = _core_features([np.sqrt(q / n) for q in squares], lam)
    total = x.sum(axis=-1)
    total = np.concatenate([total, total[..., i] - total[..., j]], axis=-1)
    var = np.maximum(squares[0] - total * total / n, 0.0) / (n - 1)
    cov = np.sqrt(var) / (np.abs(total / n) + EPS)
    lag = gram(x[..., :-2], x[..., 2:])
    tkeo = channels_and_pairs(gram(x[..., 1:-1], x[..., 1:-1]) - 0.5 * (lag + lag.swapaxes(-1, -2)))
    features = [*core, np.log(cov + EPS), np.log(np.abs(tkeo) + EPS)]
    return np.stack(features, axis=-1).reshape(*windows.shape[:-2], -1)


def tsd_names(n_channels: int) -> list[str]:
    names = [f"ch{i}_tsd{j}" for i in range(n_channels) for j in range(7)]
    for i in range(n_channels):
        for j in range(i + 1, n_channels):
            names.extend(f"pair{i}_{j}_tsd{m}" for m in range(7))
    return names
