"""Span-level feature extraction against window-by-window references.

`extract` hands each family kernel a span of one trial that holds a few
windows. The ftdd and tsd kernels compute each sample's elementwise terms
once over the span and then reduce over each window's slice, in the same
order as a kernel given the windows themselves; so they must equal, bit for
bit, the window-by-window arithmetic below (`window_ftdd`, `window_tsd`).
The wavelet family's block filter bank sums its taps in another order than
the per-coefficient loop, and the plain loops over windows and channels
written from the feature definitions sum in another order too: those
comparisons use a tolerance set from float64 rounding.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from emgbench.features import extract as extract_module
from emgbench.features import tdd, wavelet
from emgbench.features.extract import FAMILIES, extract
from emgbench.features.tdd import tsd_windows
from emgbench.features.wavelet import DEC_HI, DEC_LO, dwt, wavelet_features
from emgbench.preprocess import segment_records, windows
from emgbench.signal_io import SignalRecord

RTOL, ATOL = 1e-10, 1e-12


def _window_parts(windows):
    dx = np.diff(windows)
    return windows, dx, np.diff(dx)


def _window_moments(parts):
    n = parts[0].shape[-1]
    return [np.sqrt(np.sum(d * d, axis=-1) / n) for d in parts]


def _window_lambda(m0):
    lam = np.median(np.power(m0, tdd.K), axis=-1, keepdims=True)
    return np.where(lam > 0, lam, 1.0)


def _window_core(moments, lam):
    eps = tdd.EPS
    m0, m2, m4 = (np.power(m, tdd.K) / lam for m in moments)
    sparseness = m0 / (np.sqrt(np.abs(m0 - m2)) * np.sqrt(np.abs(m0 - m4)) + eps)
    irf = np.sqrt(m2 / (m0 * m4 + eps))
    return [np.log(f + eps) for f in (m0, m2, m4, sparseness, irf)]


def _window_base(windows):
    _, dx, ddx = parts = _window_parts(windows)
    moments = _window_moments(parts)
    wlr = np.sum(np.abs(ddx), axis=-1) / (np.sum(np.abs(dx), axis=-1) + tdd.EPS)
    core = _window_core(moments, _window_lambda(moments[0]))
    return np.stack([*core, np.log(wlr + tdd.EPS)], axis=-1)


def window_ftdd(windows):
    """ftdd of [..., C, N] windows, one [..., 6C] row each, computed window
    by window on each window's own samples."""
    a = _window_base(windows)
    b = _window_base(np.log(windows * windows + tdd.EPS))
    denom = np.linalg.norm(a, axis=-1, keepdims=True) * np.linalg.norm(b, axis=-1, keepdims=True)
    return (a * b / (denom + tdd.EPS)).reshape(*windows.shape[:-2], -1)


def window_tsd(windows):
    """tsd of [..., C, N] windows, one row each, from per-window Gram
    matrices of each window's own samples and differences."""
    eps = tdd.EPS
    x, dx, ddx = _window_parts(windows)
    n_ch, n = x.shape[-2:]
    i, j = np.triu_indices(n_ch, 1)

    def channels_and_pairs(G):
        own = np.diagonal(G, axis1=-2, axis2=-1)
        return np.concatenate([own, own[..., i] + own[..., j] - 2.0 * G[..., i, j]], axis=-1)

    def gram(a, b):
        return a @ b.swapaxes(-1, -2)

    squares = [np.maximum(channels_and_pairs(gram(d, d)), 0.0) for d in (x, dx, ddx)]
    lam = _window_lambda(np.sqrt(squares[0][..., :n_ch] / n))
    core = _window_core([np.sqrt(q / n) for q in squares], lam)
    total = x.sum(axis=-1)
    total = np.concatenate([total, total[..., i] - total[..., j]], axis=-1)
    var = np.maximum(squares[0] - total * total / n, 0.0) / (n - 1)
    cov = np.sqrt(var) / (np.abs(total / n) + eps)
    lag = gram(x[..., :-2], x[..., 2:])
    tkeo = channels_and_pairs(gram(x[..., 1:-1], x[..., 1:-1]) - 0.5 * (lag + lag.swapaxes(-1, -2)))
    features = [*core, np.log(cov + eps), np.log(np.abs(tkeo) + eps)]
    return np.stack(features, axis=-1).reshape(*windows.shape[:-2], -1)


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
    "family, window_rows, loop",
    [("ftdd", window_ftdd, loop_ftdd), ("tsd", window_tsd, loop_tsd)],
    ids=["ftdd-default", "tsd-default"],
)
def test_time_domain_families_match_row_by_row(ws, family, window_rows, loop):
    fm = extract(ws, family)
    np.testing.assert_array_equal(fm.labels, ws.labels)
    rows = np.vstack([window_rows(windows(x, ws.length, ws.step)) for x in ws.trials])
    np.testing.assert_array_equal(fm.values, rows)
    reference = np.vstack([loop(w) for w in windows_of(ws)])
    np.testing.assert_allclose(fm.values, reference, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("family", FAMILIES)
def test_batch_size_does_not_change_values(ws, family, monkeypatch):
    """One window per batch, the default batch, and one batch per trial give
    the same bytes: a window's features never depend on its neighbours in
    the span."""
    default = extract(ws, family).values
    longest = max(x.shape[1] for x in ws.trials)
    for batch_bytes in (1, ws.n_channels * longest * 8):
        monkeypatch.setattr(extract_module, "BATCH_BYTES", batch_bytes)
        np.testing.assert_array_equal(extract(ws, family).values, default)


# Peak memory of `extract` beyond its output, in units of BATCH_BYTES; the
# kernels measured 1.1 (tsd) to 2.3 (wavelet) at 512 KB batches.
BATCH_PEAK = 3


@pytest.mark.parametrize("family", FAMILIES)
def test_long_trial_temporaries_stay_within_a_few_batches(family):
    """On one 60 s trial (8 channels at 2048 Hz, 7.9 MB) no kernel holds a
    trial-sized temporary: the traced peak of `extract`, less the feature
    matrix it returns, stays below BATCH_PEAK batches."""
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((8, 60 * 2048))
    ws = segment_records([SignalRecord(samples=samples, fs=2048.0, label=0)])
    bound = BATCH_PEAK * extract_module.BATCH_BYTES
    assert bound < samples.nbytes
    tracemalloc.start()
    try:
        fm = extract(ws, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - fm.values.nbytes < bound


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
    got, want = tsd_windows(window, x.size, 1).reshape(6, 7), loop_tsd(window).reshape(6, 7)
    r = 2 * np.finfo(np.float64).eps / delta**2
    assert np.all(np.abs(got[3] - want[3]) <= NEAR_EQUAL_TOL * r)
    others = [0, 1, 2, 4, 5]
    np.testing.assert_allclose(got[others], want[others], rtol=RTOL, atol=ATOL)


def test_wavelet_matches_per_channel_dwt(ws):
    fm = extract(ws, "wavelet")
    per_window = windows_of(ws)
    rows = np.vstack([np.concatenate([wavelet_features(dwt(ch)) for ch in w]) for w in per_window])
    np.testing.assert_allclose(fm.values, rows, rtol=RTOL, atol=ATOL)
    reference = np.vstack([loop_wavelet(w) for w in per_window[:4]])
    np.testing.assert_allclose(fm.values[:4], reference, rtol=RTOL, atol=ATOL)
