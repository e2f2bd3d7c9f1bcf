"""Dataset ingestion: .npy and canonical CSV trials, a minimal WFDB reader, and
a seeded synthetic generator used for desk-scale experiments and tests."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .iir import butter_bandpass, sosfiltfilt


class IngestError(ValueError):
    """Raised for malformed dataset files or manifests."""


@dataclass(frozen=True)
class SignalRecord:
    """One multi-channel sEMG trial.

    samples are [channels x time]; values must be finite, fs positive.
    """

    samples: np.ndarray
    fs: float
    label: int
    subject: str = ""
    session: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if not 0 < self.fs <= sys.float_info.max:  # NaN fails both comparisons
            raise IngestError(f"sampling rate must be finite and positive, got {self.fs}")
        if samples.ndim != 2 or samples.shape[1] < 2:
            raise IngestError(
                f"samples must be [channels x time] with length >= 2, got shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise IngestError("samples contain non-finite values")
        if self.label < 0:
            raise IngestError(f"label must be >= 0, got {self.label}")
        samples.setflags(write=False)

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: int
    subject: str = ""
    session: str = ""
    fs: float = 0.0


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            raise IngestError("manifest paths are not unique")
        for e in self.entries:
            if not (0 <= e.label < len(self.class_names)):
                raise IngestError(
                    f"label out of range: entry {e.path!r} has label {e.label} "
                    f"but class_names has length {len(self.class_names)}"
                )


_MANIFEST_KEYS = {"path", "label", "subject", "session", "fs"}


def load_manifest(manifest_path: str | Path) -> DatasetManifest:
    """A JSON manifest: "class_names", a list of names, and "entries", each
    an object with a "path", an integer "label" and, for a CSV or .npy file,
    its sampling rate "fs" (optional "subject" and "session" strings). An
    error in it names the file."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise IngestError(f"manifest file not found: {manifest_path}")
    try:
        doc = json.loads(manifest_path.read_text())
        if not (isinstance(doc, dict) and _list_of(doc.get("class_names"), str)
                and _list_of(doc.get("entries"), dict)):
            raise IngestError('manifest must be an object with a "class_names" list of strings '
                              'and an "entries" list of objects')
        entries = tuple(_manifest_entry(raw) for raw in doc["entries"])
        return DatasetManifest(entries=entries, class_names=tuple(doc["class_names"]))
    except ValueError as exc:  # bad JSON or a bad value
        raise IngestError(f"{manifest_path}: {exc}") from None


def _list_of(value, kind: type) -> bool:
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def _manifest_entry(raw: dict) -> ManifestEntry:
    unknown = set(raw) - _MANIFEST_KEYS
    if unknown:
        raise IngestError(f"unknown manifest entry keys: {sorted(unknown)}")
    path, label, fs = raw.get("path"), raw.get("label"), raw.get("fs")
    if not isinstance(path, str):
        raise IngestError(f"manifest entry path must be a string, got {path!r}")
    if type(label) is not int:
        raise IngestError(f"entry {path!r}: label must be an integer, got {label!r}")
    if Path(path).suffix != ".hea" and not (type(fs) in (int, float)
                                            and 0 < fs <= sys.float_info.max):
        raise IngestError(f"entry {path!r}: a CSV or .npy entry needs a finite fs > 0, got {fs!r}")
    subject, session = raw.get("subject", ""), raw.get("session", "")
    for key, value in (("subject", subject), ("session", session)):
        if not isinstance(value, str):
            raise IngestError(f"entry {path!r}: {key} must be a string, got {value!r}")
    return ManifestEntry(path, label, subject, session, fs=float(fs or 0.0))


def parse_cached(path: Path, kind: str, parse) -> np.ndarray:
    """parse(path's bytes), a 2-D float64 array, memoised beside path as its one entry
    `.emgbench-cache/<path's name>/<kind>.<sha256 of the bytes parsed>.npy`, where kind names
    the reader and the version of its parse. A damaged entry is parsed again; a cache directory
    that another user owns or can write is neither read nor written."""
    folder = path.parent / ".emgbench-cache" / path.name
    with contextlib.suppress(OSError, ValueError, EOFError):  # no entry, or a damaged one
        if _owned(folder.parent) and any(e.name.startswith(f"{kind}.") for e in folder.iterdir()):
            digest = hashlib.sha256()
            with open(path, "rb") as fh:  # in chunks: a hit holds no copy of the file
                while chunk := fh.read(1 << 16):
                    digest.update(chunk)
            matrix = np.load(folder / f"{kind}.{digest.hexdigest()}.npy", allow_pickle=False)
            if isinstance(matrix, np.ndarray) and matrix.dtype == np.float64 and matrix.ndim == 2:
                return matrix
    matrix = parse(data := path.read_bytes())
    entry = folder / f"{kind}.{hashlib.sha256(data).hexdigest()}.npy"
    with contextlib.suppress(OSError):  # a read-only dataset loads without its cache
        folder.parent.mkdir(mode=0o700, exist_ok=True)
        if _owned(folder.parent):
            folder.mkdir(exist_ok=True)
            tmp = folder / f"{entry.name}.{os.getpid()}.tmp"  # atomic: write, then rename
            with open(tmp, "wb") as fh:
                np.save(fh, matrix, allow_pickle=False)
            os.replace(tmp, entry)
            for old in set(folder.glob("*.npy")) - {entry}:  # other writers' temp files stay
                old.unlink()
    return matrix


def _owned(cache: Path) -> bool:
    """Whether this user owns cache and no other user can write to it (never without getuid)."""
    status = cache.stat()
    return status.st_uid == getattr(os, "getuid", lambda: -1)() and not status.st_mode & 0o022


_RAGGED = re.compile(r"the number of columns changed from (\d+) to (\d+) at row (\d+)")


def read_csv(path: Path, kind: str, skiprows: int = 0) -> np.ndarray:
    """The float64 rows of comma-separated cells after skiprows header lines, parsed once per
    content as cache kind (see parse_cached). An empty file, a cell that is not a finite number
    and a ragged row raise ValueError naming the row (and a cell's column and value, or the
    row's and row 0's cell counts) but not the file, which the caller puts in front. A row is
    numbered as loadtxt numbers one with a cell it cannot convert: a 0-based data row, so an
    empty line is no row; a column is 1-based."""

    def parse(data: bytes) -> np.ndarray:
        if not data or data.isspace():  # loadtxt warns on no data; strip() would copy the file
            raise IngestError("empty file")
        try:
            matrix = np.loadtxt(io.TextIOWrapper(io.BytesIO(data)), delimiter=",", comments=None,
                                ndmin=2, skiprows=skiprows)
        except ValueError as exc:  # loadtxt counts a ragged row from 1, and hints at usecols
            if not (ragged := _RAGGED.match(str(exc))):
                raise
            first, width, row = map(int, ragged.groups())
            raise IngestError(f"ragged row {row - 1}: cell count {width}, "
                              f"against {first} in row 0") from None
        if not np.isfinite(matrix).all():
            row, column = np.argwhere(~np.isfinite(matrix))[0]
            raise IngestError(
                f"non-finite value {matrix[row, column]} at row {row}, column {column + 1}")
        return matrix

    return parse_cached(path, kind, parse)


def _read_npy(path: Path) -> np.ndarray:
    """The 2-D float64 array np.save wrote at path, read as np.load reads an .npy file. A file
    without the .npy magic string (an .npz archive, a pickle, an empty file), a short file, an
    object array or any other shape or dtype (byte order included) raises ValueError."""
    with open(path, "rb") as fh:
        samples = np.lib.format.read_array(fh, allow_pickle=False)
    if samples.ndim != 2 or samples.dtype != np.float64:
        raise IngestError(f"holds a {samples.ndim}-D {samples.dtype.str} array, "
                          "not a 2-D float64 one")
    return samples


def _read_trial(path: Path, entry: ManifestEntry) -> SignalRecord:
    """A samples-as-rows, channels-as-columns trial, an .npy array or else a CSV; a refusal
    names the file once."""
    try:
        if not path.exists():
            raise IngestError("signal file not found")
        samples = _read_npy(path) if path.suffix == ".npy" else read_csv(path, "trials-2")
        return SignalRecord(samples=samples.T, fs=entry.fs,
                            label=entry.label, subject=entry.subject, session=entry.session)
    except ValueError as exc:  # a bad cell or array, a ragged row, an empty file, a short trial
        raise IngestError(f"{path}: {exc}") from None


def load_canonical_csv(manifest_path: str | Path) -> list[SignalRecord]:
    """Load every entry of a JSON manifest; .npy and CSV layout is time x channels."""
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    base = manifest_path.parent
    records = []
    n_channels = None
    for entry in manifest.entries:
        path = Path(entry.path)
        if not path.is_absolute():
            path = base / path
        if path.suffix == ".hea":
            rec = load_wfdb_record(
                path, label=entry.label, subject=entry.subject, session=entry.session
            )
        else:
            rec = _read_trial(path, entry)
        if n_channels is None:
            n_channels = rec.n_channels
        elif rec.n_channels != n_channels:
            raise IngestError(
                f"inconsistent channel count: {path} has {rec.n_channels}, expected {n_channels}"
            )
        records.append(rec)
    return records


def write_dataset(records: list[SignalRecord], class_names: list[str], out_dir: str | Path) -> Path:
    """Write one time x channels .npy file per record plus a manifest.json; returns the
    manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, rec in enumerate(records):
        name = f"trial_{i:04d}.npy"
        np.save(out_dir / name, rec.samples.T, allow_pickle=False)
        entries.append(
            {
                "path": name,
                "label": int(rec.label),
                "subject": rec.subject,
                "session": rec.session,
                "fs": rec.fs,
            }
        )
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps({"entries": entries, "class_names": list(class_names)}, indent=2)
    )
    return manifest_path


def load_wfdb_record(
    header_path: str | Path, label: int = 0, subject: str = "", session: str = ""
) -> SignalRecord:
    """Minimal WFDB reader: format-16 little-endian samples, single .dat file. A refusal
    starts with the header's path."""
    header_path = Path(header_path)
    try:
        return _read_wfdb(header_path, label, subject, session)
    except ValueError as exc:  # a refusal below, or a field that is not a number
        raise IngestError(f"{header_path}: {exc}") from None


def _read_wfdb(header_path: Path, label: int, subject: str, session: str) -> SignalRecord:
    if not header_path.exists():
        raise IngestError("header file not found")
    lines = [
        ln.strip()
        for ln in header_path.read_text().splitlines()
        if ln.strip() and not ln.startswith("#")
    ]
    if not lines:
        raise IngestError("empty WFDB header")
    record_tokens = lines[0].split()
    if len(record_tokens) < 4:
        raise IngestError(f"malformed WFDB record line: {lines[0]!r}")
    n_signals = int(record_tokens[1])
    fs = float(record_tokens[2])
    n_samples = int(record_tokens[3])
    if min(n_signals, n_samples) < 1:
        raise IngestError(f"malformed WFDB record line: {lines[0]!r}")
    if len(lines) - 1 < n_signals:
        raise IngestError(f"header declares {n_signals} signals but has {len(lines) - 1} lines")

    dat_name = None
    gains = []
    baselines = []
    for sig_line in lines[1 : 1 + n_signals]:
        tokens = sig_line.split()
        if len(tokens) < 2:
            raise IngestError(f"malformed WFDB signal line: {sig_line!r}")
        fname, fmt = tokens[0], tokens[1]
        if fmt != "16":
            raise IngestError(f"unsupported WFDB format: {fmt!r} (only format 16 is supported)")
        if dat_name is None:
            dat_name = fname
        elif fname != dat_name:
            raise IngestError("multiple .dat files are not supported")
        gain, baseline = 200.0, 0.0  # WFDB defaults
        if len(tokens) > 2:
            spec = tokens[2].split("/")[0]
            if "(" in spec:
                gain_part, base_part = spec.split("(")
                gain = float(gain_part)
                baseline = float(base_part.rstrip(")"))
            else:
                gain = float(spec)
            if gain == 0:
                raise IngestError("gain of zero in WFDB header")
        gains.append(gain)
        baselines.append(baseline)

    dat_path = header_path.parent / dat_name
    if not dat_path.exists():
        raise IngestError(f"signal file not found: {dat_path}")
    raw = np.fromfile(dat_path, dtype="<i2")
    if raw.size < n_signals * n_samples:
        raise IngestError(
            f"truncated signal file: {dat_path} holds {raw.size} samples, "
            f"header declares {n_signals * n_samples}"
        )
    interleaved = raw[: n_signals * n_samples].reshape(n_samples, n_signals)
    physical = (interleaved.astype(np.float64) - np.asarray(baselines)) / np.asarray(gains)
    return SignalRecord(
        samples=physical.T, fs=fs, label=label, subject=subject, session=session
    )


def synthetic_trial_samples(n_classes: int, n_channels: int, fs: float, trials_per_class: int,
                            trial_seconds: float) -> int:
    """The samples per synthetic trial, after refusing values the generator cannot use."""
    if min(n_classes, n_channels, trials_per_class) < 1:
        raise IngestError("all synthetic counts must be >= 1")
    for name, value in (("fs", fs), ("trial_seconds", trial_seconds)):
        if not np.isfinite(value):
            raise IngestError(f"synthetic {name} must be finite, got {value}")
    if fs < 1000:
        raise IngestError(f"fs too low for the 450 Hz band edge: {fs}")
    n = int(round(trial_seconds * fs))
    if n <= 27:  # the order-4 band-pass of 4 sections pads 3 * 9 samples each side
        raise IngestError(
            f"trial_seconds {trial_seconds} gives {n} samples at fs {fs}; the generator's "
            "order-4 band-pass needs trials of at least 28 samples"
        )
    return n


def generate_synthetic(
    n_classes: int,
    n_channels: int,
    fs: float,
    trials_per_class: int,
    trial_seconds: float,
    seed: int,
) -> list[SignalRecord]:
    """Seeded synthetic dataset: per class, band-limited noise with a
    class-specific center frequency and per-channel gain profile.

    Deterministic for a fixed argument tuple; classes are separable by
    energy, spectral-moment, and subband features.
    """
    n = synthetic_trial_samples(n_classes, n_channels, fs, trials_per_class, trial_seconds)
    rng = np.random.default_rng(seed)

    # Class-specific spectra: centers spread over the analysis band, plus a
    # random but seed-fixed per-channel gain profile.
    centers = np.linspace(60.0, min(380.0, 0.38 * fs), n_classes)
    widths = np.full(n_classes, 25.0)
    gains = 0.35 + 1.8 * rng.random((n_classes, n_channels))

    filters = [butter_bandpass(4, c - w, c + w, fs) for c, w in zip(centers, widths)]
    records = []
    noise = np.empty((n_channels, n))  # every draw fills this one buffer
    for g in range(n_classes):
        for t in range(trials_per_class):
            # The trial is built in place on the filter's output: shaped noise
            # at unit power per channel, times the class gains, plus 0.05 noise.
            samples = sosfiltfilt(filters[g], rng.standard_normal(out=noise))
            samples /= np.std(samples, axis=1, keepdims=True) + 1e-12
            samples *= gains[g][:, None]
            rng.standard_normal(out=noise)
            noise *= 0.05
            samples += noise
            records.append(
                SignalRecord(
                    samples=samples,
                    fs=fs,
                    label=g,
                    subject="synthetic",
                    session=f"trial{t}",
                )
            )
    return records
