"""The numpy Butterworth band-pass against scipy.signal as an oracle, and
a guard that importing emgbench loads no scipy module."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import signal as sps

from emgbench import iir

FS = 2048.0
BANDS = [(0.1, 1020.0), (1.0, 1000.0), (2.0, 6.0), (5.0, 15.0), (100.0, 102.0), (20.0, 450.0)]
GRID = [(band, order) for band in BANDS for order in (2, 8, 12)] + [((35.0, 85.0), 4)]
GRID_IDS = [f"{lo:g}-{hi:g}Hz-order{order}" for (lo, hi), order in GRID]
# Odd orders: on a wide band the odd prototype pole gives two real poles.
ODD = [(band, order) for band in [(0.1, 1020.0), (20.0, 450.0), (5.0, 15.0)] for order in (1, 3, 5)]


def offset_noise(seed: int, channels: int = 3, n: int = 5000) -> np.ndarray:
    """White noise on a DC offset, which the steady-state start must absorb."""
    return 3.0 + np.random.default_rng(seed).standard_normal((channels, n))


def both_filters(band, order, x, padtype):
    """(numpy, scipy) outputs; `even` pads by 3 * order as `bandpass` does,
    `odd` takes scipy's default padlen as `generate_synthetic` does."""
    padlen = 3 * order if padtype == "even" else None
    want = sps.sosfiltfilt(sps.butter(order, band, btype="bandpass", fs=FS, output="sos"),
                           x, axis=1, padtype=padtype, padlen=padlen)
    got = iir.sosfiltfilt(iir.butter_bandpass(order, *band, FS), x, padtype=padtype, padlen=padlen)
    return got, want


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("padtype", ["even", "odd"])
def test_default_band_matches_scipy_to_1e12(padtype):
    got, want = both_filters((20.0, 450.0), 8, offset_noise(0), padtype)
    assert got.shape == want.shape
    assert rel_error(got, want) <= 1e-12


@pytest.mark.parametrize("padtype", ["even", "odd"])
@pytest.mark.parametrize("band, order", GRID, ids=GRID_IDS)
def test_band_grid_matches_scipy_to_1e8(band, order, padtype):
    got, want = both_filters(band, order, offset_noise(order), padtype)
    assert rel_error(got, want) <= 1e-8


@pytest.mark.parametrize("band, order", GRID + ODD)
def test_design_response_matches_scipy(band, order):
    sos = iir.butter_bandpass(order, *band, FS)
    assert sos.shape == (order, 6)
    want = sps.butter(order, band, btype="bandpass", fs=FS, output="sos")
    # The same sections in the same order, not only the same product.
    np.testing.assert_allclose(sos, want, rtol=1e-12, atol=0)
    _, h_got = sps.sosfreqz(sos, worN=2048, fs=FS)
    _, h_want = sps.sosfreqz(want, worN=2048, fs=FS)
    assert np.max(np.abs(h_got - h_want)) <= 1e-9


@pytest.mark.parametrize("band, order", ODD)
def test_odd_orders_match_scipy(band, order):
    got, want = both_filters(band, order, offset_noise(1), "odd")
    assert rel_error(got, want) <= 1e-8


@pytest.mark.parametrize("padtype", ["even", "odd"])
def test_output_independent_of_input_layout(padtype):
    """A record held as a transposed view (as CSV-loaded trials are) filters
    to the same bytes as its contiguous copy."""
    sos = iir.butter_bandpass(8, 20.0, 450.0, FS)
    x = offset_noise(2, channels=4, n=3000)
    view = np.ascontiguousarray(x.T).T
    assert not view.flags.c_contiguous
    a = iir.sosfiltfilt(sos, x, padtype=padtype, padlen=24)
    b = iir.sosfiltfilt(sos, view, padtype=padtype, padlen=24)
    assert a.flags.c_contiguous and b.flags.c_contiguous
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [13, iir.L - 1, iir.L, iir.L + 1, 3 * iir.L])
def test_lengths_around_the_block_size(n):
    """Signal plus padding need not fill whole blocks; 13 is the shortest
    input that the padlen of 12 allows."""
    got, want = both_filters((20.0, 450.0), 4, offset_noise(3, n=n), "even")
    assert rel_error(got, want) <= 1e-12


def test_input_not_longer_than_padlen_refused():
    sos = iir.butter_bandpass(4, 20.0, 450.0, FS)
    with pytest.raises(ValueError, match="greater than padlen 27"):
        iir.sosfiltfilt(sos, np.ones((1, 27)))


def test_unknown_padtype_refused():
    sos = iir.butter_bandpass(4, 20.0, 450.0, FS)
    with pytest.raises(ValueError, match="padtype"):
        iir.sosfiltfilt(sos, np.ones((1, 100)), padtype="constant")


def test_importing_emgbench_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; import emgbench, emgbench.benchmark, emgbench.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
