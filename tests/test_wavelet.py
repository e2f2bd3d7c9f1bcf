from __future__ import annotations

import numpy as np
import pytest

from emgbench.features.tdd import FeatureError
from emgbench.features.wavelet import (
    DEC_HI,
    DEC_LO,
    ENTROPY_GUARD,
    dwt,
    subband_features,
    wavelet_features,
    wavelet_names,
)


class TestFilterBank:
    def test_orthonormality(self):
        for h in (DEC_LO, DEC_HI):
            assert np.sum(h * h) == pytest.approx(1.0, abs=1e-12)
            for m in range(1, 8):
                assert np.sum(h[: -2 * m] * h[2 * m :]) == pytest.approx(0.0, abs=1e-10)

    def test_sixteen_taps(self):
        assert DEC_LO.shape == DEC_HI.shape == (16,)

    def test_lowpass_dc_gain(self):
        assert np.sum(DEC_LO) == pytest.approx(np.sqrt(2), abs=1e-10)
        assert np.sum(DEC_HI) == pytest.approx(0.0, abs=1e-10)


class TestDwt:
    def test_zero_signal(self):
        for band in dwt(np.zeros(256)):
            np.testing.assert_array_equal(band, 0.0)

    @pytest.mark.parametrize("n", [64, 256, 1228])
    def test_energy_conservation(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        total = sum(float(np.sum(b * b)) for b in dwt(x))
        assert total == pytest.approx(float(np.sum(x * x)), rel=1e-8)

    def test_total_coefficient_count_equals_input_length(self):
        bands = dwt(np.sin(0.01 * np.arange(1228)))
        assert sum(b.size for b in bands) == 1228
        assert len(bands) == 5 + 1
        bands = [name.split("_")[1] for name in wavelet_names(1)[::5]]
        assert bands == ["D1", "D2", "D3", "D4", "D5", "A5"]

    def test_too_short(self):
        with pytest.raises(FeatureError, match="too short"):
            dwt(np.zeros(16))

    def test_constant_signal_energy_in_approximation(self):
        x = np.full(256, 2.0)
        *details, approx = dwt(x)
        detail_energy = sum(float(np.sum(d * d)) for d in details)
        approx_energy = float(np.sum(approx**2))
        assert approx_energy == pytest.approx(float(np.sum(x * x)), rel=1e-8)
        assert detail_energy < 1e-12 * approx_energy


class TestSubbandFeatures:
    def test_zero_subband(self):
        out = subband_features(np.zeros(10))
        np.testing.assert_array_equal(out, 0.0)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal(50)
        a = subband_features(w)
        b = subband_features(2 * w)
        assert b[0] == pytest.approx(4 * a[0], rel=1e-12)  # energy
        assert b[1] == pytest.approx(4 * a[1], rel=1e-12)  # variance
        assert b[2] == pytest.approx(2 * a[2], rel=1e-12)  # std
        assert b[3] == pytest.approx(2 * a[3], rel=1e-12)  # waveform length

    def test_single_coefficient_subband(self):
        c = ENTROPY_GUARD
        out = subband_features(np.array([3.0]))
        assert out[0] == pytest.approx(9.0)
        assert out[1] == 0.0
        assert out[3] == 0.0
        assert out[4] == pytest.approx(-9.0 * np.log(9.0 + c))

    def test_empty_subband_rejected(self):
        with pytest.raises(FeatureError, match="empty subband"):
            subband_features(np.array([]))

    def test_thirty_features_per_channel(self):
        rng = np.random.default_rng(11)
        out = wavelet_features(dwt(rng.standard_normal(256)))
        assert out.shape == (30,)
        names = wavelet_names(8)
        assert len(names) == 240
        assert names[0] == "ch0_D1_energy"
        assert names[-1] == "ch7_A5_entropy"
