"""Time-domain descriptor families: fused descriptors (per channel, fused
with a log-squared transformed copy) and temporal-spatial descriptors
(within channels and across all pairwise channel differences)."""
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


def resolve_lambda(channels: np.ndarray) -> np.ndarray:
    """Normalization factor per window of [..., C, N] channels: the median
    of m0^K over the channels, shaped [..., 1]."""
    (m0,) = _moments([channels])
    lam = np.median(np.power(m0, K), axis=-1, keepdims=True)
    return np.where(lam > 0, lam, 1.0)


def _core_features(parts, lam) -> list[np.ndarray]:
    """Normalized log moments, sparseness and irregularity factor of the
    signal in `_differences` parts; shared by both descriptor families."""
    m0, m2, m4 = (np.power(m, K) / lam for m in _moments(parts))
    sparseness = m0 / (np.sqrt(np.abs(m0 - m2)) * np.sqrt(np.abs(m0 - m4)) + EPS)
    irf = np.sqrt(m2 / (m0 * m4 + EPS))
    return [np.log(f + EPS) for f in (m0, m2, m4, sparseness, irf)]


def tdd_base(x: np.ndarray, lam=1.0) -> np.ndarray:
    """Six descriptors per signal on the last axis, [..., N] -> [..., 6]: log
    moments, sparseness, irregularity factor, and the waveform-length ratio
    of second to first differences."""
    _, dx, ddx = parts = _differences(x)
    wlr = np.sum(np.abs(ddx), axis=-1) / (np.sum(np.abs(dx), axis=-1) + EPS)
    return np.stack([*_core_features(parts, lam), np.log(wlr + EPS)], axis=-1)


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


def tsd_signal_features(x: np.ndarray, lam=1.0) -> np.ndarray:
    """Seven descriptors per signal on the last axis, [..., N] -> [..., 7]:
    log moments, sparseness, irregularity factor, coefficient of variation,
    and the log of the absolute Teager-Kaiser energy sum."""
    x = np.asarray(x, dtype=np.float64)
    core = _core_features(_differences(x), lam)
    cov = np.std(x, axis=-1, ddof=1) / (np.abs(np.mean(x, axis=-1)) + EPS)
    tkeo = x[..., 1:-1] ** 2
    tkeo -= x[..., :-2] * x[..., 2:]
    f8 = np.log(np.abs(np.sum(tkeo, axis=-1)) + EPS)
    return np.stack([*core, np.log(cov + EPS), f8], axis=-1)


def tsd_windows(windows: np.ndarray) -> np.ndarray:
    """Temporal-spatial descriptors of [..., C, N] windows: within-channel
    features followed by the features of every pairwise channel difference,
    lexicographic (i, j), i < j."""
    n_ch = windows.shape[-2]
    if n_ch < 2:
        raise FeatureError("temporal-spatial descriptors need at least 2 channels")
    lam = resolve_lambda(windows)
    rows = [tsd_signal_features(windows, lam)]
    # One block of differences per leading channel i, so that only one
    # block's temporaries are alive at a time.
    rows.extend(
        tsd_signal_features(windows[..., i : i + 1, :] - windows[..., i + 1 :, :], lam)
        for i in range(n_ch - 1)
    )
    return np.concatenate(rows, axis=-2).reshape(*windows.shape[:-2], -1)


def tsd_names(n_channels: int) -> list[str]:
    names = [f"ch{i}_tsd{j}" for i in range(n_channels) for j in range(7)]
    for i in range(n_channels):
        for j in range(i + 1, n_channels):
            names.extend(f"pair{i}_{j}_tsd{m}" for m in range(7))
    return names
