"""Batched feature extraction against window-by-window references.

`extract` computes each family over a whole trial's [w, C, N] window view at
once. Here it is compared with the single-window entry points and with a
plain loop over windows and channels written from the feature definitions.
Summation order differs between the two, so the comparison uses a
tolerance set from float64 rounding, not equality.
"""
from __future__ import annotations

import numpy as np
import pytest

from emgbench.features import tdd, wavelet
from emgbench.features.extract import extract
from emgbench.features.tdd import ftdd_windows, tsd_windows
from emgbench.features.wavelet import DEC_HI, DEC_LO, dwt, wavelet_features
from emgbench.preprocess import segment_records
from emgbench.signal_io import SignalRecord

RTOL, ATOL = 1e-10, 1e-12


def _loop_base(x, lam, tsd):
    """Descriptors of one 1-D signal, one Python float at a time."""
    n, eps, k = x.size, tdd.EPS, tdd.K
    dx = np.diff(x)
    ddx = np.diff(dx)
    m0, m2, m4 = (float(np.sqrt(np.sum(d * d) / n)) ** k / lam for d in (x, dx, ddx))
    sparseness = m0 / (np.sqrt(abs(m0 - m2)) * np.sqrt(abs(m0 - m4)) + eps)
    irf = np.sqrt(m2 / (m0 * m4 + eps))
    out = [np.log(f + eps) for f in (m0, m2, m4, sparseness, irf)]
    if tsd:
        cov = float(np.std(x, ddof=1)) / (abs(float(np.mean(x))) + eps)
        tkeo = sum(x[j] ** 2 - x[j - 1] * x[j + 1] for j in range(1, n - 1))
        out += [np.log(cov + eps), np.log(abs(tkeo) + eps)]
    else:
        wlr = np.sum(np.abs(ddx)) / (np.sum(np.abs(dx)) + eps)
        out.append(np.log(wlr + eps))
    return np.array(out)


def _loop_lambda(channels):
    m0s = [float(np.sqrt(np.sum(ch * ch) / ch.size)) for ch in channels]
    lam = float(np.median([m**tdd.K for m in m0s]))
    return lam if lam > 0 else 1.0


def loop_ftdd(window):
    transformed = np.log(window * window + tdd.EPS)
    lam_x, lam_z = _loop_lambda(window), _loop_lambda(transformed)
    rows = []
    for x, z in zip(window, transformed):
        a = _loop_base(x, lam_x, tsd=False)
        b = _loop_base(z, lam_z, tsd=False)
        rows.append(a * b / (np.sqrt(a @ a) * np.sqrt(b @ b) + tdd.EPS))
    return np.concatenate(rows)


def loop_tsd(window):
    lam = _loop_lambda(window)
    signals = list(window)
    n_ch = len(signals)
    signals += [window[i] - window[j] for i in range(n_ch) for j in range(i + 1, n_ch)]
    return np.concatenate([_loop_base(x, lam, tsd=True) for x in signals])


def loop_dwt_bands(x, levels):
    """Periodized cascade as an explicit per-coefficient sum."""
    bands = []
    for _ in range(levels):
        tail = x[x.size - x.size % 2 :]
        n = x.size - tail.size
        approx = [sum(DEC_LO[k] * x[(2 * i + k) % n] for k in range(16)) for i in range(n // 2)]
        detail = [sum(DEC_HI[k] * x[(2 * i + k) % n] for k in range(16)) for i in range(n // 2)]
        bands.append(np.array(detail))
        x = np.concatenate([approx, tail])
    return [*bands, x]


def loop_wavelet(window, levels=5):
    guard = wavelet.ENTROPY_GUARD
    out = []
    for ch in window:
        for w in loop_dwt_bands(ch, levels):
            sq = w * w
            var = float(np.mean((w - np.mean(w)) ** 2))
            wl = sum(abs(w[j + 1] - w[j]) for j in range(w.size - 1))
            out += [np.sum(sq), var, np.sqrt(var), wl, -np.sum(sq * np.log(sq + guard))]
    return np.array(out)


def window_set(fs, lengths, n_channels=3, seed=0):
    """Trials of different lengths (some yield a single window)."""
    rng = np.random.default_rng(seed)
    records = [
        SignalRecord(
            samples=rng.standard_normal((n_channels, n)) * rng.uniform(0.1, 3.0, (n_channels, 1))
            + rng.uniform(-0.5, 0.5, (n_channels, 1)),
            fs=fs,
            label=i % 2,
        )
        for i, n in enumerate(lengths)
    ]
    return segment_records(records)


def windows_of(ws):
    return [
        x[:, j * ws.step : j * ws.step + ws.length]
        for x, n in zip(ws.trials, np.bincount(ws.trial))
        for j in range(n)
    ]


WINDOW_SETS = {
    # 1228-sample windows; the 1300-sample trial holds exactly one window
    "fs2048": (2048.0, [4096, 1300, 2500]),
    # fs 985 gives 591-sample windows, so the DWT cascade has odd lengths
    "fs985-odd": (985.0, [985, 600, 1500, 591]),
}


@pytest.fixture(scope="module", params=list(WINDOW_SETS), ids=list(WINDOW_SETS))
def ws(request):
    fs, lengths = WINDOW_SETS[request.param]
    return window_set(fs, lengths)


def test_window_sets_cover_the_cases(ws):
    counts = np.bincount(ws.trial)
    assert len(ws.trials) > 2 and 1 in counts and len(set(counts)) > 1


# "default": the descriptors at the module constants tdd.K and tdd.EPS.
@pytest.mark.parametrize(
    "family, single, loop",
    [("ftdd", ftdd_windows, loop_ftdd), ("tsd", tsd_windows, loop_tsd)],
    ids=["ftdd-default", "tsd-default"],
)
def test_time_domain_families_match_row_by_row(ws, family, single, loop):
    fm = extract(ws, family)
    windows = windows_of(ws)
    np.testing.assert_array_equal(fm.labels, ws.labels)
    rows = np.vstack([single(w) for w in windows])
    np.testing.assert_allclose(fm.values, rows, rtol=RTOL, atol=ATOL)
    reference = np.vstack([loop(w) for w in windows])
    np.testing.assert_allclose(fm.values, reference, rtol=RTOL, atol=ATOL)


# Per tsd feature, the error allowed on a difference of nearly equal
# channels, in units of r = 2 eps / delta^2: the relative rounding of that
# pair's Gram sums G_ii + G_jj - 2 G_ij, whose terms are about 2 / delta^2
# times the result. The log moments and irregularity factor take a share
# K / 2 of it; sparseness, CoV and the TKEO sum divide it by smaller
# differences. Measured worst cases over three other windows: 0.25, 0.08, 0.12, 5.2,
# 0.14, 2.5 and 6.1 r.
NEAR_EQUAL_TOL = np.array([1.0, 1.0, 1.0, 20.0, 1.0, 20.0, 20.0])


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
def test_tsd_pairs_of_nearly_equal_channels(delta):
    """x_1 = x_0 + delta * noise: the (0, 1) pair's features, read off
    Gram matrices, stay within NEAR_EQUAL_TOL r of the direct loop; every
    other column meets the usual tolerance."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal(1228) + 0.3
    window = np.vstack([x, x + delta * rng.standard_normal(x.size), rng.standard_normal(x.size)])
    got, want = tsd_windows(window).reshape(6, 7), loop_tsd(window).reshape(6, 7)
    r = 2 * np.finfo(np.float64).eps / delta**2
    assert np.all(np.abs(got[3] - want[3]) <= NEAR_EQUAL_TOL * r)
    others = [0, 1, 2, 4, 5]
    np.testing.assert_allclose(got[others], want[others], rtol=RTOL, atol=ATOL)


def test_wavelet_matches_per_channel_dwt(ws):
    fm = extract(ws, "wavelet")
    windows = windows_of(ws)
    rows = np.vstack([np.concatenate([wavelet_features(dwt(ch)) for ch in w]) for w in windows])
    np.testing.assert_allclose(fm.values, rows, rtol=RTOL, atol=ATOL)
    reference = np.vstack([loop_wavelet(w) for w in windows[:4]])
    np.testing.assert_allclose(fm.values[:4], reference, rtol=RTOL, atol=ATOL)
