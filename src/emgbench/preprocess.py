"""Bandpass filtering and overlapping-window segmentation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .iir import butter_bandpass, sosfiltfilt
from .signal_io import SignalRecord

# The paper's one chain, on both of its datasets: a 20-450 Hz band-pass, then
# 600 ms windows at 50 % overlap. ORDER is the prototype order per band edge;
# 8 keeps the zero-phase stopband attenuation at 500 Hz (fs 2048) above 20 dB.
WINDOW_MS = 600.0
OVERLAP = 0.5
LOW, HIGH = 20.0, 450.0
ORDER = 8


class PreprocessError(ValueError):
    pass


@dataclass(frozen=True)
class WindowSet:
    """Overlapping windows of filtered trials, held as arrays.

    Window i is the j-th window of trial t = trial[i], the samples
    trials[t][:, j * step : j * step + length], with label labels[i];
    windows are ordered by trial, then by start. `windows(trials[t], length,
    step)` views them all.
    """

    trials: tuple[np.ndarray, ...]
    trial: np.ndarray
    labels: np.ndarray
    length: int
    step: int

    def __len__(self) -> int:
        return self.trial.size

    @property
    def n_channels(self) -> int:
        return self.trials[0].shape[0]


def windows(x: np.ndarray, length: int, step: int) -> np.ndarray:
    """The windows of x [..., C, S] that are `length` samples long and start
    every `step` samples, as a read-only [..., w, C, length] view (no copy);
    samples after the last whole window are in none. The feature kernels
    take a dozen of these views per call, so this builds one directly
    rather than through `sliding_window_view`'s checks."""
    *lead, n_channels, n = x.shape
    *lead_strides, channel_stride, sample_stride = x.strides
    shape = (*lead, (n - length) // step + 1, n_channels, length)
    strides = (*lead_strides, step * sample_stride, channel_stride, sample_stride)
    return as_strided(x, shape, strides, writeable=False)


def design_bandpass(fs: float) -> np.ndarray:
    """The LOW-HIGH Hz Butterworth bandpass of ORDER at fs, as second-order
    sections."""
    if HIGH >= fs / 2:
        raise PreprocessError(f"high edge {HIGH} Hz is at or above Nyquist ({fs / 2} Hz)")
    return butter_bandpass(ORDER, LOW, HIGH, fs)


def bandpass(record: SignalRecord) -> SignalRecord:
    """Zero-phase (forward-backward) Butterworth bandpass per channel.

    Reflect-pads by 3x the filter order to suppress edge transients;
    output length equals input length.
    """
    sos = design_bandpass(record.fs)
    padlen = 3 * ORDER
    if record.n_samples <= padlen:
        raise PreprocessError(
            f"window shorter than filter warm-up length ({padlen} samples): {record.n_samples}"
        )
    filtered = sosfiltfilt(sos, record.samples, padtype="even", padlen=padlen)
    return SignalRecord(
        samples=filtered,
        fs=record.fs,
        label=record.label,
        subject=record.subject,
        session=record.session,
    )


def window_length(fs: float) -> int:
    return int(np.floor(WINDOW_MS / 1000.0 * fs))


def window_step(fs: float) -> int:
    """Samples from one window's start to the next's at fs."""
    step = int(np.floor(window_length(fs) * (1 - OVERLAP)))
    if step < 1:
        raise PreprocessError("window step underflows to zero")
    return step


def window_counts(fs: float, n_samples) -> np.ndarray:
    """The whole windows of each trial of n_samples samples at fs, for trials at
    least one window long."""
    return (np.asarray(n_samples) - window_length(fs)) // window_step(fs) + 1


def segment_records(records: list[SignalRecord]) -> WindowSet:
    """Split each record into overlapping windows; trailing partial windows
    are discarded and windows never straddle trials."""
    if not records:
        raise PreprocessError("no records to segment")
    fs, n_channels = records[0].fs, records[0].n_channels
    wlen = window_length(fs)
    for rec in records:
        if rec.fs != fs or rec.n_channels != n_channels:
            raise PreprocessError("records disagree in fs or channel count")
        if rec.n_samples < wlen:
            raise PreprocessError(
                f"record shorter than one window: {rec.n_samples} < {wlen} samples"
            )
    counts = window_counts(fs, [rec.n_samples for rec in records])
    return WindowSet(
        trials=tuple(rec.samples for rec in records),
        trial=np.repeat(np.arange(len(records)), counts),
        labels=np.repeat(np.array([rec.label for rec in records], dtype=np.int64), counts),
        length=wlen,
        step=window_step(fs),
    )
