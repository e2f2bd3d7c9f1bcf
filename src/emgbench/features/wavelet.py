"""Discrete wavelet transform (periodized sym8 filter bank) and the
per-subband features: energy, variance, standard deviation, waveform
length, and energy-weighted entropy."""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tdd import FeatureError

# Symlet-8 scaling (decomposition low-pass) filter. Obtained by spectral
# factorization of the degree-8 half-band polynomial with the
# least-asymmetric root selection; the tests check that it is orthonormal.
_SYM8_SCALING = (
    0.0018899503327594609,
    -0.0003029205147213668,
    -0.01495225833704823,
    0.003808752013890615,
    0.049137179673607506,
    -0.027219029917056003,
    -0.05194583810770904,
    0.3644418948353314,
    0.7771857517005235,
    0.4813596512583722,
    -0.061273359067658524,
    -0.1432942383508097,
    0.007607487324917605,
    0.03169508781149298,
    -0.0005421323317911481,
    -0.0033824159510061256,
)


# The decomposition pair: the scaling filter reversed, and its quadrature
# mirror hi[k] = (-1)^k lo[L-1-k].
DEC_LO = np.array(_SYM8_SCALING[::-1])
DEC_HI = np.where(np.arange(DEC_LO.size) % 2 == 0, 1.0, -1.0) * DEC_LO[::-1]
# Both filters as the columns of one [taps, 2] bank.
_BANK = np.stack([DEC_LO, DEC_HI], axis=1)
# Decomposition levels: bands D1..D5, then A5.
LEVELS = 5


def _analysis_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One periodized decomposition level over the last axis.

    Odd-length inputs pass their trailing sample straight into the
    approximation band, keeping the overall map orthogonal so energy is
    conserved exactly.
    """
    n = x.shape[-1] - x.shape[-1] % 2
    taps = DEC_LO.size
    # Output i is the filter bank applied to xp[2i : 2i + taps], xp being x
    # extended periodically: one product over the even-offset windows.
    xp = np.take(x, np.arange(n + taps - 2) % n, axis=-1)
    bands = sliding_window_view(xp, taps, axis=-1)[..., ::2, :] @ _BANK
    return np.concatenate([bands[..., 0], x[..., n:]], axis=-1), bands[..., 1]


def dwt(x: np.ndarray) -> list[np.ndarray]:
    """Cascade DWT with periodized signal extension, over the last axis:
    the detail bands D1..DJ (finest first), then the approximation AJ.

    Total coefficient count equals the input length and total energy is
    conserved to rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 2**LEVELS:
        raise FeatureError(
            f"signal too short for {LEVELS} decomposition levels: {x.shape[-1]} < {2**LEVELS}"
        )
    bands = []
    approx = x
    for _ in range(LEVELS):
        approx, detail = _analysis_step(approx)
        bands.append(detail)
    return [*bands, approx]


SUBBAND_FEATURES = ("energy", "variance", "std", "wl", "entropy")
# Added to each squared coefficient inside the entropy's log.
ENTROPY_GUARD = 1e-12


def subband_features(w: np.ndarray) -> np.ndarray:
    """Energy, variance, standard deviation, waveform length and entropy of
    each subband on the last axis, [..., n] -> [..., 5]."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-1] == 0:
        raise FeatureError("empty subband")
    sq = w * w
    variance = np.var(w, axis=-1)
    wl = np.sum(np.abs(np.diff(w)), axis=-1)
    entropy = -np.sum(sq * np.log(sq + ENTROPY_GUARD), axis=-1)
    return np.stack([np.sum(sq, axis=-1), variance, np.sqrt(variance), wl, entropy], axis=-1)


def wavelet_features(bands: list[np.ndarray]) -> np.ndarray:
    """Thirty features per signal: five per subband over D1..DJ, AJ."""
    return np.concatenate([subband_features(band) for band in bands], axis=-1)


def wavelet_windows(windows: np.ndarray) -> np.ndarray:
    """Subband features of [..., C, N] windows, one [..., 30C] row each,
    channel by channel."""
    return wavelet_features(dwt(windows)).reshape(*windows.shape[:-2], -1)


def wavelet_names(n_channels: int) -> list[str]:
    bands = [f"D{j + 1}" for j in range(LEVELS)] + [f"A{LEVELS}"]
    return [
        f"ch{i}_{band}_{feat}"
        for i in range(n_channels)
        for band in bands
        for feat in SUBBAND_FEATURES
    ]
