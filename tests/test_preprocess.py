from __future__ import annotations

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from emgbench import preprocess
from emgbench.preprocess import (
    PreprocessError,
    bandpass,
    design_bandpass,
    segment_records,
    window_length,
    windows,
)
from emgbench.signal_io import SignalRecord


def sine_record(freq, fs=2048.0, seconds=4.0, amplitude=1.0):
    t = np.arange(int(seconds * fs)) / fs
    return SignalRecord(
        samples=amplitude * np.sin(2 * np.pi * freq * t)[None, :], fs=fs, label=0
    )


def oracle_power_response(sos, freq, fs):
    """Independent |H|^2 evaluation from the section coefficients."""
    z = np.exp(1j * 2 * np.pi * freq / fs)
    h = 1.0 + 0.0j
    for b0, b1, b2, a0, a1, a2 in sos:
        h *= (b0 + b1 / z + b2 / z**2) / (a0 + a1 / z + a2 / z**2)
    return abs(h) ** 2


def steady_amplitude(record):
    # ignore the outer quarter on each side to measure steady state
    x = record.samples[0]
    n = x.size
    return np.max(np.abs(x[n // 4 : -n // 4]))


class TestBandpass:
    def test_dc_removed(self):
        rec = SignalRecord(samples=np.full((1, 4096), 5.0), fs=2048.0, label=0)
        out = bandpass(rec)
        assert out.samples.shape == rec.samples.shape
        assert np.max(np.abs(out.samples)) < 1e-6 * 5.0

    def test_passband_sinusoid_matches_response_oracle(self):
        rec = sine_record(100.0)
        out = bandpass(rec)
        sos = design_bandpass(2048.0)
        expected = oracle_power_response(sos, 100.0, 2048.0)
        assert steady_amplitude(out) == pytest.approx(expected, rel=0.02)
        assert steady_amplitude(out) == pytest.approx(1.0, rel=0.02)

    def test_stopband_sinusoid_attenuated(self):
        out = bandpass(sine_record(5.0))
        sos = design_bandpass(2048.0)
        expected = oracle_power_response(sos, 5.0, 2048.0)
        assert steady_amplitude(out) < 0.1
        assert steady_amplitude(out) == pytest.approx(expected, rel=0.05, abs=1e-9)

    def test_high_edge_above_nyquist(self):
        rec = sine_record(100.0, fs=800.0)
        with pytest.raises(PreprocessError, match="Nyquist"):
            bandpass(rec)

    def test_too_short_for_warmup(self):
        rec = SignalRecord(samples=np.ones((1, 20)), fs=2048.0, label=0)
        with pytest.raises(PreprocessError, match="warm-up"):
            bandpass(rec)

    def test_idempotent_in_passband(self):
        once = bandpass(sine_record(100.0))
        twice = bandpass(once)
        a1, a2 = steady_amplitude(once), steady_amplitude(twice)
        assert abs(a2 - a1) / a1 < 0.04

    def test_zero_phase_no_delay(self):
        # cross-correlation peak of in/out at lag zero
        rec = sine_record(100.0)
        out = bandpass(rec)
        x, y = rec.samples[0], out.samples[0]
        lags = np.arange(-20, 21)
        corr = [np.dot(x[2048 : -2048], np.roll(y, lag)[2048 : -2048]) for lag in lags]
        assert lags[int(np.argmax(corr))] == 0


class TestSegment:
    def test_grabmyo_rate_example(self):
        rec = SignalRecord(samples=np.arange(2 * 4096, dtype=float).reshape(2, 4096),
                           fs=2048.0, label=3)
        ws = segment_records([rec])
        assert window_length(2048.0) == 1228
        assert len(ws) == 5
        starts = np.arange(len(ws)) * ws.step
        assert starts.tolist() == [0, 614, 1228, 1842, 2456]
        view = windows(ws.trials[0], ws.length, ws.step)
        assert view.shape == (5, 2, 1228)
        np.testing.assert_array_equal(view[:, 0, 0], starts)  # sample i is i
        assert ws.labels.tolist() == [3] * 5

    def test_forsemg_rate_example(self):
        rec = SignalRecord(samples=np.zeros((1, 985)), fs=985.0, label=0)
        ws = segment_records([rec])
        assert window_length(985.0) == 591
        assert len(ws) == 2
        assert (np.arange(len(ws)) * ws.step).tolist() == [0, 295]

    def test_record_shorter_than_window(self):
        rec = SignalRecord(samples=np.zeros((1, 1000)), fs=2048.0, label=0)
        with pytest.raises(PreprocessError, match="record shorter than one window"):
            segment_records([rec])

    def test_windowing_copies_samples(self):
        rec = SignalRecord(samples=np.arange(4096, dtype=float)[None, :], fs=2048.0, label=0)
        ws = segment_records([rec])
        # non-overlapping halves of consecutive windows tile a prefix exactly
        view = windows(ws.trials[0], ws.length, ws.step)
        first, second = view[0], view[1]
        reassembled = np.concatenate([first[0, :614], second[0]])
        np.testing.assert_array_equal(reassembled, rec.samples[0, : 614 + 1228])

    @given(
        n=st.integers(min_value=600, max_value=20000),
        fs=st.sampled_from([985.0, 1000.0, 2048.0]),
        overlap=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_count_formula(self, n, fs, overlap):
        wlen = window_length(fs)
        step = int(np.floor(wlen * (1 - overlap)))
        rec = SignalRecord(samples=np.zeros((1, n)), fs=fs, label=0)
        with patch.object(preprocess, "OVERLAP", overlap):
            if n < wlen:
                with pytest.raises(PreprocessError):
                    segment_records([rec])
            else:
                ws = segment_records([rec])
                assert len(ws) == (n - wlen) // step + 1

    def test_segment_records_concatenates(self):
        recs = [
            SignalRecord(samples=np.zeros((2, 4096)), fs=2048.0, label=i) for i in range(3)
        ]
        ws = segment_records(recs)
        assert len(ws) == 15
        assert sorted(set(ws.labels.tolist())) == [0, 1, 2]
        assert set(ws.trial.tolist()) == {0, 1, 2}

    def test_trial_windows_are_read_only_views(self):
        recs = [
            SignalRecord(samples=np.arange(2 * n, dtype=float).reshape(2, n), fs=2048.0, label=i)
            for i, n in enumerate([4096, 1300, 2500])
        ]
        ws = segment_records([bandpass(r) for r in recs])
        views = [windows(x, ws.length, ws.step) for x in ws.trials]
        assert [v.shape[0] for v in views] == np.bincount(ws.trial).tolist() == [5, 1, 3]
        for t, (view, samples) in enumerate(zip(views, ws.trials)):
            assert view.shape[1:] == (2, 1228)
            assert not view.flags.writeable
            assert np.shares_memory(view, samples)
            for j, w in enumerate(view):
                np.testing.assert_array_equal(w, samples[:, j * ws.step : j * ws.step + 1228])

    def test_segment_records_rejects_mixed_rates(self):
        recs = [
            SignalRecord(samples=np.zeros((1, 4096)), fs=2048.0, label=0),
            SignalRecord(samples=np.zeros((1, 4096)), fs=985.0, label=1),
        ]
        with pytest.raises(PreprocessError, match="disagree"):
            segment_records(recs)
