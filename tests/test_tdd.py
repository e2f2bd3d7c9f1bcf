from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgbench.features.tdd import (
    EPS,
    K,
    FeatureError,
    fuse,
    ftdd_names,
    ftdd_windows,
    tdd_base,
    tsd_names,
    tsd_windows,
)

finite_windows = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=3, max_size=64
).map(np.array)


def base(x, lam=1.0):
    """tdd_base's six descriptors of one signal, as a one-channel span that
    holds one window."""
    x = np.asarray(x, dtype=np.float64)
    return tdd_base(x[None], x.size, 1, lam)[0, 0]


def one_window(kernel, window):
    """A family kernel's row for one [C, N] window: the span is the window."""
    return kernel(window, window.shape[-1], 1)[0]


def root_moments(x):
    """Root-squared moments of x and its first and second differences, each
    normalized by the length of x."""
    dx = np.diff(x)
    return [np.sqrt(np.sum(d * d) / x.size) for d in (x, dx, np.diff(dx))]


class TestRootMoments:
    def test_sinusoid_derivative_ratio(self):
        # RMS of the first difference of sin(2 pi f n) is 2 sin(pi f) x RMS
        f, n = 0.05, 1228
        x = np.sin(2 * np.pi * f * np.arange(n))
        m0, m2, m4 = root_moments(x)
        assert m2 / m0 == pytest.approx(2 * np.sin(np.pi * f), rel=0.01)
        # tdd_base's first three descriptors are these moments' log powers
        np.testing.assert_allclose(
            base(x)[:3], np.log(np.power([m0, m2, m4], K) + EPS), rtol=1e-12, atol=0
        )

    def test_too_short(self):
        with pytest.raises(FeatureError, match="too short"):
            base(np.array([1.0, 2.0]))


class TestTddBase:
    def test_constant_window_is_finite(self):
        out = base(np.full(100, 3.0))
        assert out.shape == (6,)
        assert np.all(np.isfinite(out))

    def test_log_moment_shift_under_scaling(self):
        x = np.sin(0.3 * np.arange(200)) + 0.2
        a = base(x, lam=1.0)
        b = base(2 * x, lam=1.0)
        for j in range(3):
            assert b[j] - a[j] == pytest.approx(K * np.log(2), abs=1e-8)

    def test_shape_features_scale_invariant(self):
        # sparseness and waveform-length ratio are ratios of homogeneous terms
        rng = np.random.default_rng(5)
        x = rng.standard_normal(300)
        a = base(x, lam=1.0)
        b = base(7.3 * x, lam=1.0)
        assert b[3] == pytest.approx(a[3], abs=1e-6)
        assert b[5] == pytest.approx(a[5], abs=1e-6)

    @given(finite_windows)
    @settings(max_examples=80, deadline=None)
    def test_always_finite(self, x):
        assert np.all(np.isfinite(base(x)))

    def test_all_zero_window_finite(self):
        assert np.all(np.isfinite(base(np.zeros(50))))


class TestFusion:
    def test_identical_vectors_sum_to_one(self):
        a = np.array([0.3, -1.2, 0.8, 2.0, -0.5, 0.1])
        c = fuse(a, a)
        assert np.sum(c) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_vectors_sum_to_zero(self):
        a = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0, -1.0, 0.0, 0.0])
        assert np.sum(fuse(a, b)) == pytest.approx(0.0, abs=1e-9)

    def test_fused_sum_is_cosine(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert np.sum(fuse(a, b)) == pytest.approx(cos, abs=1e-9)
        assert -1.0 <= np.sum(fuse(a, b)) <= 1.0


class TestFtddWindow:
    def test_eight_channel_row_length_and_names(self):
        rng = np.random.default_rng(1)
        row = one_window(ftdd_windows, rng.standard_normal((8, 200)))
        assert row.shape == (48,)
        names = ftdd_names(8)
        assert len(names) == 48
        assert names[0] == "ch0_ftdd0"
        assert names[-1] == "ch7_ftdd5"

    def test_fused_sums_within_unit_interval(self):
        rng = np.random.default_rng(2)
        row = one_window(ftdd_windows, rng.standard_normal((4, 300)))
        sums = row.reshape(4, 6).sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-9)
        assert np.all(sums >= -1.0 - 1e-9)

    def test_constant_channels_finite(self):
        row = one_window(ftdd_windows, np.ones((2, 100)))
        assert np.all(np.isfinite(row))


class TestTsd:
    def test_constant_window_hits_guards(self):
        out = one_window(tsd_windows, np.full((2, 100), 2.0)).reshape(3, 7)
        assert np.all(np.isfinite(out))
        # std = 0 and TKEO sum = 0 both bottom out at log(EPS), for each
        # channel and for their (all-zero) difference
        np.testing.assert_allclose(out[:, 5:], np.log(EPS), rtol=1e-6)

    def test_tkeo_sinusoid_identity(self):
        # TKEO of A sin(w n) is A^2 sin^2(w) per sample; the difference of
        # the two channels is 0.75 x, whose sum is 0.75^2 that of x
        amp, omega, n = 1.3, 0.3, 1000
        x = amp * np.sin(omega * np.arange(n))
        oracle = sum(x[j] ** 2 - x[j - 1] * x[j + 1] for j in range(1, n - 1))
        out = one_window(tsd_windows, np.vstack([x, 0.25 * x])).reshape(3, 7)
        assert np.exp(out[0, 6]) == pytest.approx(abs(oracle), rel=1e-9)
        assert np.exp(out[2, 6]) == pytest.approx(0.75**2 * abs(oracle), rel=1e-9)
        assert oracle == pytest.approx((n - 2) * amp**2 * np.sin(omega) ** 2, rel=0.01)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 200)) + 0.5
        a = one_window(tsd_windows, x).reshape(6, 7)
        b = one_window(tsd_windows, -x).reshape(6, 7)
        np.testing.assert_allclose(b[:, 5], a[:, 5], rtol=0, atol=1e-12)
        np.testing.assert_allclose(b[:, 6], a[:, 6], rtol=0, atol=1e-9)

    def test_four_channel_feature_count(self):
        rng = np.random.default_rng(4)
        row = one_window(tsd_windows, rng.standard_normal((4, 200)))
        assert row.shape == (7 * (4 + 6),)

    def test_identical_channels_difference_is_finite(self):
        """Two equal channels, alone or among others and in a span of two
        windows: their difference's Gram sums cancel to about 0, clamped
        at 0 where they are sums of squares."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200)
        for others in (0, 6):
            window = np.vstack([x, x, rng.standard_normal((others, 200))])
            assert np.all(np.isfinite(one_window(tsd_windows, window)))
            span = np.concatenate([window, 3.1 * window + 1.0], axis=-1)
            assert np.all(np.isfinite(tsd_windows(span, 200, 200)))

    def test_two_channel_name_order(self):
        names = tsd_names(2)
        assert names[0] == "ch0_tsd0"
        assert names[7] == "ch1_tsd0"
        assert names[14] == "pair0_1_tsd0"
        assert len(names) == 21

    def test_pair_order_is_lexicographic(self):
        names = tsd_names(3)
        pair_blocks = [n for n in names if n.startswith("pair") and n.endswith("tsd0")]
        assert pair_blocks == ["pair0_1_tsd0", "pair0_2_tsd0", "pair1_2_tsd0"]

    def test_single_channel_rejected(self):
        with pytest.raises(FeatureError, match="at least 2 channels"):
            one_window(tsd_windows, np.ones((1, 100)))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_window_features_always_finite(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((3, 64)) * rng.choice([0.0, 1e-6, 1.0, 1e3])
        assert np.all(np.isfinite(one_window(tsd_windows, samples)))
        assert np.all(np.isfinite(one_window(ftdd_windows, samples)))
