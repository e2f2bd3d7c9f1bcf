"""Discrete wavelet transform (periodized sym8 filter bank) and the
per-subband features: energy, variance, standard deviation, waveform
length, and energy-weighted entropy."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tdd import FeatureError

# Symlet-8 scaling (decomposition low-pass) filter. Obtained by spectral
# factorization of the degree-8 half-band polynomial with the
# least-asymmetric root selection; validated by the orthonormality checks
# in WaveletFilter.
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


@dataclass(frozen=True)
class WaveletFilter:
    """Orthonormal two-channel decomposition filter bank."""

    name: str
    dec_lo: np.ndarray
    dec_hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.dec_lo, dtype=np.float64)
        hi = np.asarray(self.dec_hi, dtype=np.float64)
        object.__setattr__(self, "dec_lo", lo)
        object.__setattr__(self, "dec_hi", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise FeatureError("filter pair must be two equal-length 1-D sequences")
        for h in (lo, hi):
            if abs(np.sum(h * h) - 1.0) > 1e-10:
                raise FeatureError(f"{self.name}: filter is not unit-norm")
            for m in range(1, h.size // 2):
                if abs(np.sum(h[: -2 * m] * h[2 * m :])) > 1e-10:
                    raise FeatureError(f"{self.name}: filter shifts are not orthogonal")

    @classmethod
    def sym8(cls) -> "WaveletFilter":
        lo = np.array(_SYM8_SCALING[::-1])
        # Quadrature mirror: hi[k] = (-1)^k lo[L-1-k]
        sign = np.where(np.arange(lo.size) % 2 == 0, 1.0, -1.0)
        hi = sign * lo[::-1]
        return cls(name="sym8", dec_lo=lo, dec_hi=hi)


SYM8 = WaveletFilter.sym8()


def _analysis_step(x: np.ndarray, filt: WaveletFilter) -> tuple[np.ndarray, np.ndarray]:
    """One periodized decomposition level over the last axis.

    Odd-length inputs pass their trailing sample straight into the
    approximation band, keeping the overall map orthogonal so energy is
    conserved exactly.
    """
    n = x.shape[-1] - x.shape[-1] % 2
    taps = filt.dec_lo.size
    # Output i is the filter applied to xp[2i : 2i + taps], xp being x
    # extended periodically. With xp split into its even and odd samples,
    # tap k reads one contiguous slice of one of the two.
    idx = np.arange(n + taps - 2) % n
    phases = np.take(x, idx[0::2], axis=-1), np.take(x, idx[1::2], axis=-1)
    approx = np.zeros((*x.shape[:-1], n // 2))
    detail = np.zeros_like(approx)
    product = np.empty_like(approx)
    for k in range(taps):
        tap = phases[k % 2][..., k // 2 : k // 2 + n // 2]
        approx += np.multiply(tap, filt.dec_lo[k], out=product)
        detail += np.multiply(tap, filt.dec_hi[k], out=product)
    return np.concatenate([approx, x[..., n:]], axis=-1), detail


def dwt(x: np.ndarray, filt: WaveletFilter = SYM8, levels: int = 5) -> list[np.ndarray]:
    """Cascade DWT with periodized signal extension, over the last axis:
    the detail bands D1..DJ (finest first), then the approximation AJ.

    Total coefficient count equals the input length and total energy is
    conserved to rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    if levels < 1:
        raise FeatureError(f"levels must be >= 1, got {levels}")
    if x.shape[-1] < 2**levels:
        raise FeatureError(
            f"signal too short for {levels} decomposition levels: {x.shape[-1]} < {2**levels}"
        )
    bands = []
    approx = x
    for _ in range(levels):
        approx, detail = _analysis_step(approx, filt)
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


def wavelet_names(n_channels: int, levels: int = 5) -> list[str]:
    bands = [f"D{j + 1}" for j in range(levels)] + [f"A{levels}"]
    return [
        f"ch{i}_{band}_{feat}"
        for i in range(n_channels)
        for band in bands
        for feat in SUBBAND_FEATURES
    ]
