"""Bandpass filtering and overlapping-window segmentation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .iir import butter_bandpass, sosfiltfilt
from .signal_io import SignalRecord


class PreprocessError(ValueError):
    pass


@dataclass(frozen=True)
class WindowSet:
    """Overlapping windows of filtered trials, held as arrays.

    Window i is the j-th window of trial t = trial[i], the samples
    trials[t][:, j * step : j * step + length], with label labels[i];
    windows are ordered by trial, then by start.
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

    def trial_windows(self) -> list[np.ndarray]:
        """Per trial, its windows as a read-only [w, C, N] view of the
        filtered samples (no copy)."""
        return [
            sliding_window_view(x, self.length, axis=1)[:, :: self.step].swapaxes(0, 1)
            for x in self.trials
        ]


def design_bandpass(low: float, high: float, order: int, fs: float) -> np.ndarray:
    """Butterworth bandpass as second-order sections.

    `order` is the prototype order per band edge; the default of 8 keeps the
    zero-phase stopband attenuation at 500 Hz (fs 2048) above 20 dB.
    """
    if order < 1:
        raise PreprocessError(f"filter order must be >= 1, got {order}")
    if not (0 < low < high):
        raise PreprocessError(f"need 0 < low < high, got {low}, {high}")
    if high >= fs / 2:
        raise PreprocessError(f"high edge {high} Hz is at or above Nyquist ({fs / 2} Hz)")
    return butter_bandpass(order, low, high, fs)


def bandpass(
    record: SignalRecord, low: float = 20.0, high: float = 450.0, order: int = 8
) -> SignalRecord:
    """Zero-phase (forward-backward) Butterworth bandpass per channel.

    Reflect-pads by 3x the filter order to suppress edge transients;
    output length equals input length.
    """
    sos = design_bandpass(low, high, order, record.fs)
    padlen = 3 * order
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


def window_length(fs: float, window_ms: float = 600.0) -> int:
    return int(np.floor(window_ms / 1000.0 * fs))


def segment_records(
    records: list[SignalRecord], window_ms: float = 600.0, overlap: float = 0.5
) -> WindowSet:
    """Split each record into overlapping windows; trailing partial windows
    are discarded and windows never straddle trials."""
    if not records:
        raise PreprocessError("no records to segment")
    if not (0 <= overlap < 1):
        raise PreprocessError(f"overlap must be in [0, 1), got {overlap}")
    fs, n_channels = records[0].fs, records[0].n_channels
    wlen = window_length(fs, window_ms)
    step = int(np.floor(wlen * (1 - overlap)))
    if step < 1:
        raise PreprocessError("window step underflows to zero")
    counts = []
    for rec in records:
        if rec.fs != fs or rec.n_channels != n_channels:
            raise PreprocessError("records disagree in fs or channel count")
        if rec.n_samples < wlen:
            raise PreprocessError(
                f"record shorter than one window: {rec.n_samples} < {wlen} samples"
            )
        counts.append((rec.n_samples - wlen) // step + 1)
    return WindowSet(
        trials=tuple(rec.samples for rec in records),
        trial=np.repeat(np.arange(len(records)), counts),
        labels=np.repeat(np.array([rec.label for rec in records], dtype=np.int64), counts),
        length=wlen,
        step=step,
    )
