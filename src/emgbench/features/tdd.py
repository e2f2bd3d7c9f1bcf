"""Time-domain descriptor families: fused descriptors (per channel, fused
with a log-squared transformed copy) and temporal-spatial descriptors
(within channels and across all pairwise channel differences)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FeatureError(ValueError):
    pass


@dataclass(frozen=True)
class TddParams:
    """Moment normalization and guard settings.

    k: exponent applied to the root moments before normalization.
    lambda_mode: "channel_median" divides by the median of m0^k across the
        window's channels; "unit" skips normalization.
    irf_standard: use m2/sqrt(m0*m4) instead of sqrt(m2/(m0*m4)) for the
        irregularity factor.
    """

    k: float = 0.1
    lambda_mode: str = "channel_median"
    eps: float = 1e-10
    irf_standard: bool = False

    def __post_init__(self):
        if not (0 < self.k <= 1):
            raise FeatureError(f"k must be in (0, 1], got {self.k}")
        if self.eps <= 0:
            raise FeatureError(f"eps must be positive, got {self.eps}")
        if self.lambda_mode not in ("channel_median", "unit"):
            raise FeatureError(f"unknown lambda_mode: {self.lambda_mode!r}")


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


def root_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Root-squared moments of the signal and its first/second differences
    over the last axis, all three normalized by the original length N."""
    return tuple(_moments(_differences(x)))


def resolve_lambda(channels: np.ndarray, params: TddParams) -> np.ndarray | float:
    """Normalization factor per window of [..., C, N] channels: the median
    of m0^k over the channels, shaped [..., 1]."""
    if params.lambda_mode == "unit":
        return 1.0
    (m0,) = _moments([channels])
    lam = np.median(np.power(m0, params.k), axis=-1, keepdims=True)
    return np.where(lam > 0, lam, 1.0)


def _core_features(parts, params: TddParams, lam) -> list[np.ndarray]:
    """Normalized log moments, sparseness and irregularity of the signal in
    `_differences` parts; shared by both descriptor families."""
    eps = params.eps
    m0, m2, m4 = (np.power(m, params.k) / lam for m in _moments(parts))
    sparseness = m0 / (np.sqrt(np.abs(m0 - m2)) * np.sqrt(np.abs(m0 - m4)) + eps)
    if params.irf_standard:
        irf = m2 / (np.sqrt(m0 * m4) + eps)
    else:
        irf = np.sqrt(m2 / (m0 * m4 + eps))
    return [np.log(f + eps) for f in (m0, m2, m4, sparseness, irf)]


def tdd_base(x: np.ndarray, params: TddParams | None = None, lam=1.0) -> np.ndarray:
    """Six descriptors per signal on the last axis, [..., N] -> [..., 6]: log
    moments, sparseness, irregularity factor, and the waveform-length ratio
    of second to first differences."""
    params = params or TddParams()
    _, dx, ddx = parts = _differences(x)
    wlr = np.sum(np.abs(ddx), axis=-1) / (np.sum(np.abs(dx), axis=-1) + params.eps)
    return np.stack([*_core_features(parts, params, lam), np.log(wlr + params.eps)], axis=-1)


def fuse(a: np.ndarray, b: np.ndarray, eps: float = 1e-10) -> np.ndarray:
    """Element-wise cosine contributions over the last axis:
    c_j = a_j b_j / (|a| |b|).

    The sum of the fused vector is the cosine similarity of a and b.
    """
    denom = np.linalg.norm(a, axis=-1, keepdims=True) * np.linalg.norm(b, axis=-1, keepdims=True)
    return a * b / (denom + eps)


def ftdd_windows(windows: np.ndarray, params: TddParams | None = None) -> np.ndarray:
    """Fused descriptors of [..., C, N] windows, one [..., 6C] row each: per
    channel, fuse the descriptors of the signal with those of log(x^2 + eps)."""
    params = params or TddParams()
    a = tdd_base(windows, params, resolve_lambda(windows, params))
    transformed = np.log(windows * windows + params.eps)
    b = tdd_base(transformed, params, resolve_lambda(transformed, params))
    return fuse(a, b, params.eps).reshape(*windows.shape[:-2], -1)


def ftdd_names(n_channels: int) -> list[str]:
    return [f"ch{i}_ftdd{j}" for i in range(n_channels) for j in range(6)]


def tsd_signal_features(x: np.ndarray, params: TddParams | None = None, lam=1.0) -> np.ndarray:
    """Seven descriptors per signal on the last axis, [..., N] -> [..., 7]:
    log moments, sparseness, irregularity factor, coefficient of variation,
    and the log of the absolute Teager-Kaiser energy sum."""
    params = params or TddParams()
    eps = params.eps
    x = np.asarray(x, dtype=np.float64)
    core = _core_features(_differences(x), params, lam)
    cov = np.std(x, axis=-1, ddof=1) / (np.abs(np.mean(x, axis=-1)) + eps)
    tkeo = x[..., 1:-1] ** 2
    tkeo -= x[..., :-2] * x[..., 2:]
    f8 = np.log(np.abs(np.sum(tkeo, axis=-1)) + eps)
    return np.stack([*core, np.log(cov + eps), f8], axis=-1)


def tsd_windows(windows: np.ndarray, params: TddParams | None = None) -> np.ndarray:
    """Temporal-spatial descriptors of [..., C, N] windows: within-channel
    features followed by the features of every pairwise channel difference,
    lexicographic (i, j), i < j."""
    params = params or TddParams()
    n_ch = windows.shape[-2]
    if n_ch < 2:
        raise FeatureError("temporal-spatial descriptors need at least 2 channels")
    lam = resolve_lambda(windows, params)
    rows = [tsd_signal_features(windows, params, lam)]
    # One block of differences per leading channel i, so that only one
    # block's temporaries are alive at a time.
    rows.extend(
        tsd_signal_features(windows[..., i : i + 1, :] - windows[..., i + 1 :, :], params, lam)
        for i in range(n_ch - 1)
    )
    return np.concatenate(rows, axis=-2).reshape(*windows.shape[:-2], -1)


def tsd_names(n_channels: int) -> list[str]:
    names = [f"ch{i}_tsd{j}" for i in range(n_channels) for j in range(7)]
    for i in range(n_channels):
        for j in range(i + 1, n_channels):
            names.extend(f"pair{i}_{j}_tsd{m}" for m in range(7))
    return names
