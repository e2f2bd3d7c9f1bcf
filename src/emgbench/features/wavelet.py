"""Discrete wavelet transform (periodized sym8 filter bank) and the
per-subband features: energy, variance, standard deviation, waveform
length, and energy-weighted entropy."""
from __future__ import annotations

import numpy as np

from ..preprocess import windows
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
# Decomposition levels: bands D1..D5, then A5.
LEVELS = 5
# Each level cuts its periodized input into blocks of 2 * BLOCK samples and
# gets a block's BLOCK low-pass and BLOCK high-pass outputs from one product
# with each block filter bank.
BLOCK = 16


def _block_bank(taps: np.ndarray) -> np.ndarray:
    """The [2 BLOCK + 14, BLOCK] bank of a 16-tap filter: column c holds the
    taps at rows 2c .. 2c + 15. Output c of a block reads samples 2c onwards,
    so the last one reads 14 samples past the block's 2 BLOCK."""
    rows = 2 * np.arange(BLOCK)[:, None] + np.arange(taps.size)
    bank = np.zeros((2 * BLOCK + taps.size - 2, BLOCK))
    bank[rows, np.arange(BLOCK)[:, None]] = taps
    return bank


_BANKS = (_block_bank(DEC_LO), _block_bank(DEC_HI))


def _analysis_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One periodized decomposition level over the last axis.

    Odd-length inputs pass their trailing sample straight into the
    approximation band, keeping the overall map orthogonal so energy is
    conserved exactly.
    """
    n = x.shape[-1] - x.shape[-1] % 2
    half = n // 2
    blocks = -(-half // BLOCK)
    # Block b is xp[2 BLOCK b :][: 2 BLOCK + 14], xp being x extended
    # periodically; outputs past `half` in a last, partial block are dropped.
    rows = np.arange(_BANKS[0].shape[0]) + 2 * BLOCK * np.arange(blocks)[:, None]
    gathered = np.take(x, rows % n, axis=-1)
    low, high = ((gathered @ bank).reshape(*x.shape[:-1], -1)[..., :half] for bank in _BANKS)
    del gathered  # the largest temporary: free it before the copy below
    return np.concatenate([low, x[..., n:]], axis=-1), high


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
    n = w.shape[-1]
    if n == 0:
        raise FeatureError("empty subband")
    sq = w * w
    # The variance as np.var takes it (the mean of the squared deviations
    # from the mean), without its call overhead; then the steps' magnitudes
    # and the entropy terms reuse the deviations' buffer, so that a band
    # needs two temporaries of its size.
    buf = w - w.sum(axis=-1, keepdims=True) / n
    buf *= buf
    variance = buf.sum(axis=-1) / n
    steps = np.subtract(w[..., 1:], w[..., :-1], out=buf[..., 1:])
    wl = np.abs(steps, out=steps).sum(axis=-1)
    np.add(sq, ENTROPY_GUARD, out=buf)
    np.log(buf, out=buf)
    buf *= sq
    entropy = -buf.sum(axis=-1)
    return np.stack([sq.sum(axis=-1), variance, np.sqrt(variance), wl, entropy], axis=-1)


def wavelet_features(bands: list[np.ndarray]) -> np.ndarray:
    """Thirty features per signal: five per subband over D1..DJ, AJ."""
    return np.concatenate([subband_features(band) for band in bands], axis=-1)


def wavelet_windows(span: np.ndarray, length: int, step: int) -> np.ndarray:
    """Subband features of each window of span [C, S], one 30C row each,
    channel by channel."""
    views = windows(span, length, step)
    return wavelet_features(dwt(views)).reshape(len(views), -1)


def wavelet_names(n_channels: int) -> list[str]:
    bands = [f"D{j + 1}" for j in range(LEVELS)] + [f"A{LEVELS}"]
    return [
        f"ch{i}_{band}_{feat}"
        for i in range(n_channels)
        for band in bands
        for feat in SUBBAND_FEATURES
    ]
