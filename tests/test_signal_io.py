from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from emgbench import signal_io
from emgbench.features.extract import FeatureMatrix
from emgbench.features.tdd import FeatureError
from emgbench.signal_io import (
    IngestError,
    ManifestEntry,
    SignalRecord,
    generate_synthetic,
    load_canonical_csv,
    load_manifest,
    load_wfdb_record,
    write_dataset,
)


def make_manifest(tmp_path, entries, class_names):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"entries": entries, "class_names": class_names}))
    return path


class TestCanonicalCsv:
    def test_loads_transposed_layout(self, tmp_path):
        (tmp_path / "a.csv").write_text("1,2\n3,4\n5,6\n7,8\n")
        manifest = make_manifest(
            tmp_path, [{"path": "a.csv", "label": 0, "fs": 100.0}], ["rest"]
        )
        records = load_canonical_csv(manifest)
        assert len(records) == 1
        assert records[0].samples.shape == (2, 4)  # channels x time
        np.testing.assert_array_equal(records[0].samples[0], [1, 3, 5, 7])
        assert records[0].fs == 100.0

    def test_label_out_of_range(self, tmp_path):
        (tmp_path / "a.csv").write_text("1,2\n3,4\n")
        manifest = make_manifest(
            tmp_path,
            [{"path": "a.csv", "label": 17, "fs": 100.0}],
            [f"g{i}" for i in range(17)],
        )
        with pytest.raises(IngestError, match="label out of range"):
            load_canonical_csv(manifest)

    def test_nan_cell_names_location(self, tmp_path):
        (tmp_path / "a.csv").write_text("1,2\n3,NaN\n5,6\n")
        manifest = make_manifest(tmp_path, [{"path": "a.csv", "label": 0, "fs": 10.0}], ["g"])
        with pytest.raises(IngestError) as info:
            load_canonical_csv(manifest)
        assert str(info.value) == f"{tmp_path / 'a.csv'}: non-finite value nan at row 1, column 2"

    def test_non_numeric_cell(self, tmp_path):
        (tmp_path / "a.csv").write_text("1,abc\n3,4\n")
        manifest = make_manifest(tmp_path, [{"path": "a.csv", "label": 0, "fs": 10.0}], ["g"])
        with pytest.raises(IngestError) as info:
            load_canonical_csv(manifest)
        assert str(info.value) == (f"{tmp_path / 'a.csv'}: could not convert string 'abc' "
                                   "to float64 at row 0, column 2.")

    def test_empty_file(self, tmp_path):
        (tmp_path / "a.csv").write_text("")
        manifest = make_manifest(tmp_path, [{"path": "a.csv", "label": 0, "fs": 10.0}], ["g"])
        with pytest.raises(IngestError) as info:
            load_canonical_csv(manifest)
        assert str(info.value) == f"{tmp_path / 'a.csv'}: empty file"

    def test_missing_file(self, tmp_path):
        manifest = make_manifest(tmp_path, [{"path": "nope.csv", "label": 0, "fs": 10.0}], ["g"])
        with pytest.raises(IngestError) as info:
            load_canonical_csv(manifest)
        assert str(info.value) == f"{tmp_path / 'nope.csv'}: signal file not found"

    def test_one_row_trial_names_the_file(self, tmp_path):
        (tmp_path / "a.csv").write_text("1,2\n")
        manifest = make_manifest(tmp_path, [{"path": "a.csv", "label": 0, "fs": 10.0}], ["g"])
        with pytest.raises(IngestError) as info:
            load_canonical_csv(manifest)
        assert str(info.value).startswith(f"{tmp_path / 'a.csv'}: samples must be [channels x time]")

    def test_inconsistent_channel_count(self, tmp_path):
        (tmp_path / "a.csv").write_text("1,2\n3,4\n")
        (tmp_path / "b.csv").write_text("1\n2\n")
        manifest = make_manifest(
            tmp_path,
            [
                {"path": "a.csv", "label": 0, "fs": 10.0},
                {"path": "b.csv", "label": 0, "fs": 10.0},
            ],
            ["g"],
        )
        with pytest.raises(IngestError, match="inconsistent channel count"):
            load_canonical_csv(manifest)

    def test_duplicate_paths_rejected(self, tmp_path):
        (tmp_path / "a.csv").write_text("1,2\n3,4\n")
        manifest = make_manifest(
            tmp_path,
            [
                {"path": "a.csv", "label": 0, "fs": 10.0},
                {"path": "a.csv", "label": 0, "fs": 10.0},
            ],
            ["g"],
        )
        with pytest.raises(IngestError, match="not unique"):
            load_canonical_csv(manifest)

    @pytest.mark.parametrize("key", ["subject", "session"])
    @pytest.mark.parametrize("value", [3, ["s01"], None], ids=["int", "list", "null"])
    def test_subject_and_session_must_be_strings(self, tmp_path, key, value):
        """A non-string subject names the manifest, the entry and the key; it
        is not merged with its string form or left for numpy to trip over."""
        entry = {"path": "a.csv", "label": 0, "fs": 10.0, key: value}
        manifest = make_manifest(tmp_path, [entry], ["g"])
        with pytest.raises(IngestError) as info:
            load_manifest(manifest)
        expected = f"{manifest}: entry 'a.csv': {key} must be a string, got {value!r}"
        assert str(info.value) == expected

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"entries": [', "Expecting value"),
            ("[1]", "manifest must be an object with"),
            ('{"entries": []}', 'a "class_names" list of strings'),
            ('{"entries": 3, "class_names": ["g"]}', 'an "entries" list of objects'),
            ('{"entries": [{"label": 0, "fs": 10.0}], "class_names": ["g"]}',
             "manifest entry path must be a string, got None"),
            ('{"entries": [{"path": "a.csv", "label": "a", "fs": 10.0}], "class_names": ["g"]}',
             "entry 'a.csv': label must be an integer, got 'a'"),
            ('{"entries": [{"path": "a.csv", "label": 0}], "class_names": ["g"]}',
             "entry 'a.csv': a CSV or .npy entry needs a finite fs > 0, got None"),
            ('{"entries": [{"path": "a.csv", "label": 0, "fs": 1e400}], "class_names": ["g"]}',
             "entry 'a.csv': a CSV or .npy entry needs a finite fs > 0, got inf"),
            ('{"entries": [{"path": "a.csv", "label": 0, "fs": NaN}], "class_names": ["g"]}',
             "entry 'a.csv': a CSV or .npy entry needs a finite fs > 0, got nan"),
            ('{"entries": [{"path": "a.npy", "label": 0}], "class_names": ["g"]}',
             "entry 'a.npy': a CSV or .npy entry needs a finite fs > 0, got None"),
        ],
        ids=["bad_json", "not_an_object", "no_class_names", "entries_int", "no_path",
             "label_str", "csv_without_fs", "csv_fs_infinite", "csv_fs_nan", "npy_without_fs"],
    )
    def test_malformed_manifest_names_the_file(self, tmp_path, text, message):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        with pytest.raises(IngestError) as info:
            load_manifest(manifest)
        assert str(info.value).startswith(f"{manifest}: ")
        assert message in str(info.value)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        rec = SignalRecord(samples=rng.standard_normal((3, 40)), fs=1000.0, label=2)
        np.savetxt(tmp_path / "r.csv", rec.samples.T, fmt="%.17g", delimiter=",")
        manifest = make_manifest(
            tmp_path, [{"path": "r.csv", "label": 2, "fs": 1000.0}], ["a", "b", "c"]
        )
        loaded = load_canonical_csv(manifest)[0]
        np.testing.assert_array_equal(loaded.samples, rec.samples)

    def test_write_dataset_manifest(self, tmp_path, monkeypatch):
        """write_dataset writes one .npy trial per record, which loads bit for
        bit as generated, with no parse and no cache."""
        recs = generate_synthetic(2, 3, 1024, 2, 0.1, seed=0)
        manifest = write_dataset(recs, ["a", "b"], tmp_path / "ds")
        monkeypatch.setattr(signal_io, "parse_cached", lambda *args: pytest.fail("parsed"))
        loaded = load_canonical_csv(manifest)
        assert sorted(p.name for p in manifest.parent.iterdir()) == [
            "manifest.json", *(f"trial_{i:04d}.npy" for i in range(4))]

        def fields(r):
            return (r.samples.dtype, r.samples.shape, r.samples.tobytes(), r.fs, r.label,
                    r.subject, r.session)

        assert [fields(r) for r in loaded] == [fields(r) for r in recs]


def _savez(path, values):
    with open(path, "wb") as fh:  # given a name, np.savez would add ".npz" to it
        np.savez(fh, samples=values)


def _truncated(path, values):
    np.save(path, values)
    path.write_bytes(path.read_bytes()[:-8])


def _with_nan(path, values):
    values[2, 1] = np.nan
    np.save(path, values)


_MAGIC = "the magic string is not correct; expected b'\\x93NUMPY', got {head}"


class TestNpyTrials:
    """A manifest entry ending in .npy is read as the array np.save wrote,
    time x channels; anything but a 2-D float64 array is refused with the
    file's path first."""

    @pytest.mark.parametrize(
        "write, message",
        [
            (_savez, _MAGIC),
            (lambda path, values: path.write_bytes(pickle.dumps(values)), _MAGIC),
            (lambda path, values: path.write_bytes(b"not an array"), _MAGIC),
            (lambda path, values: path.write_bytes(b""),
             "EOF: reading magic string, expected 8 bytes got 0"),
            (_truncated, "Failed to read all data for array. Expected (4, 3) = 12 elements, "
                         "could only read 11 elements. (file seems not fully written?)"),
            (lambda path, values: np.save(path, values.astype(object), allow_pickle=True),
             "Object arrays cannot be loaded when allow_pickle=False"),
            (lambda path, values: np.save(path, values.astype(">f8")),
             "holds a 2-D >f8 array, not a 2-D float64 one"),
            (lambda path, values: np.save(path, values.astype(np.float32)),
             "holds a 2-D <f4 array, not a 2-D float64 one"),
            (lambda path, values: np.save(path, values.ravel()),
             "holds a 1-D <f8 array, not a 2-D float64 one"),
            (lambda path, values: np.save(path, values[..., None]),
             "holds a 3-D <f8 array, not a 2-D float64 one"),
            (lambda path, values: None, "signal file not found"),
            (_with_nan, "samples contain non-finite values"),
            (lambda path, values: np.save(path, values[:1]),
             "samples must be [channels x time] with length >= 2, got shape (3, 1)"),
        ],
        ids=["npz", "pickle", "garbage", "empty", "truncated", "object", "big_endian", "float32",
             "one_dimensional", "three_dimensional", "missing", "nan", "one_sample"],
    )
    def test_refusal_names_the_file(self, tmp_path, write, message):
        path = tmp_path / "a.npy"
        write(path, np.arange(12.0).reshape(4, 3))
        manifest = make_manifest(tmp_path, [{"path": "a.npy", "label": 0, "fs": 10.0}], ["g"])
        with pytest.raises(IngestError) as info:
            load_canonical_csv(manifest)
        head = repr(path.read_bytes()[:6]) if path.exists() else ""
        assert str(info.value) == f"{path}: " + message.format(head=head)
        assert not (tmp_path / ".emgbench-cache").exists()

    def test_channel_count_must_match_a_csv_entry(self, tmp_path):
        """.npy and CSV entries mix in one manifest, with one channel count."""
        (tmp_path / "b.csv").write_text("1,2\n3,4\n")
        np.save(tmp_path / "a.npy", np.arange(12.0).reshape(4, 3))
        manifest = make_manifest(tmp_path, [{"path": "b.csv", "label": 0, "fs": 10.0},
                                            {"path": "a.npy", "label": 0, "fs": 10.0}], ["g"])
        with pytest.raises(IngestError) as info:
            load_canonical_csv(manifest)
        assert str(info.value) == (f"inconsistent channel count: {tmp_path / 'a.npy'} has 3, "
                                   "expected 2")


def _write_trials(path, values):
    np.savetxt(path, values, fmt="%.17g", delimiter=",")


def _write_features(path, values):
    labels = np.arange(len(values)) % 3
    FeatureMatrix(values, tuple(f"f{j}" for j in range(values.shape[1])), labels).to_csv(path)


def _load_trials(path):
    samples = signal_io._read_trial(path, ManifestEntry(path.name, 0, fs=1.0)).samples.T
    return samples.dtype.str, samples.shape, samples.tobytes()


def _load_features(path):
    fm = FeatureMatrix.from_csv(path)
    return fm.feature_names, fm.values.shape, fm.values.tobytes(), fm.labels.tobytes()


# reader -> (write a valid CSV of values, load one into comparable bytes, the
# header that makes data rows a CSV of the reader, the type of its refusals,
# its refusal of a header with no data rows, its cache kind)
READERS = {
    "trials": (_write_trials, _load_trials, "", IngestError, "empty file", "trials-2"),
    "features": (_write_features, _load_features, "a,label\n", FeatureError,
                 "feature CSV has no data rows", "features-2"),
}


class TestCsvFastPath:
    """Trial and feature CSVs share one `np.loadtxt` parse: each reader reads
    a well-formed file exactly and refuses a bad one naming the file first."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1.5,-2\r\n3e-3,4\r\n", [[1.5, -2.0], [3e-3, 4.0]]),
            (" 1 , 2 \n3 ,\t4\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("1\n2\n3\n", [[1.0], [2.0], [3.0]]),
            ("1,2,3\n", [[1.0, 2.0, 3.0]]),
            ("0.1,2.5e-300\n-7,8", [[0.1, 2.5e-300], [-7.0, 8.0]]),
        ],
        ids=["crlf", "spaces", "single-column", "single-row", "no-final-newline"],
    )
    def test_well_formed_files_read_as_the_numbers_written(self, tmp_path, text, expected):
        """CR and LF line ends, spaces around cells, one column, one row and
        no final newline all read as the numbers written, bit for bit."""
        path = tmp_path / "a.csv"
        path.write_bytes(text.encode())
        loaded = signal_io.read_csv(path, "trials-2")
        assert loaded.dtype == np.float64
        assert loaded.shape == np.shape(expected)
        assert loaded.tobytes() == np.array(expected).tobytes()

    def test_full_precision_values_bit_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        values = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))
        np.savetxt(tmp_path / "a.csv", values, fmt="%.17g", delimiter=",")
        assert _load_trials(tmp_path / "a.csv")[2] == values.tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2\n3\n", "ragged row 1: cell count 1, against 2 in row 0"),
            ("1,2\n3,inf\n", "non-finite value inf at row 1, column 2"),
            ("1,2\n1e400,4\n", "non-finite value inf at row 1, column 1"),
            ("1,2,\n3,4,\n", "could not convert string '' to float64 at row 0, column 3."),
            ("1,2\n  \n3\n", "ragged row 1: cell count 1, against 2 in row 0"),
            ("1,2\n\n3,4\n5,6,7\n", "ragged row 2: cell count 3, against 2 in row 0"),
            ("1,2\n3,abc\n", "could not convert string 'abc' to float64 at row 1, column 2."),
            ("1,2\nNaN,4\n", "non-finite value nan at row 1, column 1"),
            ("  \n1,2\n", "could not convert string '  ' to float64 at row 0, column 1."),
        ],
        ids=["ragged", "inf", "overflow", "trailing-comma", "ragged-after-blank-line",
             "ragged-after-empty-line", "non-numeric", "nan", "whitespace-line"],
    )
    def test_bad_files_name_file_and_cell(self, tmp_path, text, message):
        """Both readers refuse a bad body with the same message after the file's
        path: the cell's row, column and value, or a ragged row's row."""
        for name, (_, load, header, error, _, _) in READERS.items():
            path = tmp_path / f"{name}.csv"
            path.write_text(header + text)
            with pytest.raises(error) as info:
                load(path)
            assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text", ["", "  \n"], ids=["empty", "whitespace"])
    def test_empty_file_raises_without_warning(self, tmp_path, text):
        for name, (_, load, header, error, message, _) in READERS.items():
            path = tmp_path / f"{name}.csv"
            path.write_text(header + text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error) as info:
                    load(path)
            assert str(info.value) == f"{path}: {message}"


class TestParseCache:
    """Trial and feature CSVs keep their parse in `.emgbench-cache/<name>/`
    beside them, keyed by the reader and the SHA-256 of the file's bytes."""

    @pytest.fixture(params=sorted(READERS))
    def reader(self, request):
        return READERS[request.param]

    @staticmethod
    def dataset(tmp_path, write, name="a.csv"):
        """A CSV of full-precision values whose row 1 starts with 0.25."""
        values = np.random.default_rng(5).standard_normal((12, 3)) * 1e-3
        values[1, 0] = 0.25
        path = tmp_path / name
        write(path, values)
        return path

    @staticmethod
    def entries(path):
        return sorted((path.parent / ".emgbench-cache" / path.name).glob("*.npy"))

    @staticmethod
    def fresh(load, path, tmp_path):
        """A parse of path's bytes that no cache can serve."""
        copy = tmp_path / "fresh" / path.name
        copy.parent.mkdir(exist_ok=True)
        (copy.parent / ".emgbench-cache").write_text("")
        shutil.copyfile(path, copy)
        return load(copy)

    @staticmethod
    def no_loadtxt(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt called on a cache hit")

        monkeypatch.setattr(np, "loadtxt", refuse)

    def test_hit_equals_a_fresh_parse_and_skips_loadtxt(self, reader, tmp_path, monkeypatch):
        write, load = reader[:2]
        path = self.dataset(tmp_path, write)
        first = load(path)
        (entry,) = self.entries(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert entry.name == f"{reader[5]}.{digest}.npy"
        assert (tmp_path / ".emgbench-cache").stat().st_mode & 0o777 == 0o700
        fresh = self.fresh(load, path, tmp_path)
        self.no_loadtxt(monkeypatch)
        assert load(path) == first == fresh

    def test_first_load_hashes_the_file_once(self, reader, tmp_path, monkeypatch):
        """With no entry of its reader, a CSV's bytes are hashed once, as they are parsed;
        the streamed hash that looks for an entry runs only when one may match."""
        write, load = reader[:2]
        load(self.dataset(tmp_path, write, name="b.csv"))  # the cache directory exists
        path = self.dataset(tmp_path, write)
        sha256, calls = hashlib.sha256, []
        monkeypatch.setattr(hashlib, "sha256", lambda *data: calls.append(data) or sha256(*data))
        load(path)
        assert [len(data) for data in calls] == [1]
        load(path)
        assert [len(data) for data in calls] == [1, 0]

    def test_same_size_edit_of_one_cell_is_picked_up(self, reader, tmp_path):
        write, load = reader[:2]
        path = self.dataset(tmp_path, write)
        sibling = self.dataset(tmp_path, write, name="a.csv.b.csv")
        before, _ = load(path), load(sibling)
        (old,) = self.entries(path)
        writing = old.with_name(f"{old.name}.99999.tmp")  # another process's unfinished write
        writing.write_bytes(b"partial")
        stat = path.stat()
        text = path.read_text()
        path.write_text(text.replace("\n0.25,", "\n0.75,", 1))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        after = load(path)
        assert after != before
        assert after == self.fresh(load, path, tmp_path)
        # The edited file keeps one entry; a file whose name starts with its
        # name keeps its own.
        assert len(self.entries(path)) == 1
        assert len(self.entries(sibling)) == 1
        assert writing.read_bytes() == b"partial"

    @pytest.mark.parametrize("damage", ["truncated", "float32", "one_dimensional", "not_npy",
                                        "empty"])
    def test_damaged_entry_is_parsed_again_and_rewritten(self, reader, damage, tmp_path,
                                                         monkeypatch):
        write, load = reader[:2]
        path = self.dataset(tmp_path, write)
        first = load(path)
        (entry,) = self.entries(path)
        matrix = np.load(entry)
        if damage == "truncated":
            entry.write_bytes(entry.read_bytes()[:-40])
        elif damage == "float32":
            np.save(entry, matrix.astype(np.float32))
        elif damage == "one_dimensional":
            np.save(entry, matrix.ravel())
        else:
            entry.write_bytes(b"" if damage == "empty" else b"not an array")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load(path) == first
        (rewritten,) = self.entries(path)
        assert np.load(rewritten).tobytes() == matrix.tobytes()
        self.no_loadtxt(monkeypatch)
        assert load(path) == first

    def test_bad_csv_raises_the_same_message_twice_and_leaves_no_entry(self, reader, tmp_path):
        _, load, header, error, _, _ = reader
        path = tmp_path / "a.csv"
        path.write_text(header + "1,2\n3,inf\n")
        for _ in range(2):
            with pytest.raises(error) as info:
                load(path)
            assert str(info.value) == f"{path}: non-finite value inf at row 1, column 2"
        assert not (tmp_path / ".emgbench-cache").exists()

    def test_entry_of_an_older_parse_is_not_served(self, tmp_path):
        """The previous trial parse skipped whitespace-only lines; its entry for
        such a file is not served, and the file is refused."""
        path = tmp_path / "a.csv"
        path.write_text("1,2\n   \n3,4\n")
        folder = tmp_path / ".emgbench-cache" / "a.csv"
        folder.mkdir(parents=True)
        folder.parent.chmod(0o700)
        planted = folder / f"trials-1.{hashlib.sha256(path.read_bytes()).hexdigest()}.npy"
        np.save(planted, np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(IngestError) as info:
            _load_trials(path)
        assert str(info.value) == f"{path}: ragged row 1: cell count 1, against 2 in row 0"
        assert self.entries(path) == [planted]

    def test_labels_are_checked_on_a_hit(self, tmp_path, monkeypatch):
        path = tmp_path / "a.csv"
        path.write_text("a,b,label\n1,2,0\n3,4,1.5\n")
        message = f"{path}: data row 1 has label 1.5, not a non-negative whole number below 2**63"
        with pytest.raises(FeatureError) as info:
            FeatureMatrix.from_csv(path)
        assert str(info.value) == message
        assert len(self.entries(path)) == 1
        self.no_loadtxt(monkeypatch)
        with pytest.raises(FeatureError) as info:
            FeatureMatrix.from_csv(path)
        assert str(info.value) == message

    def test_feature_csv_read_by_train_is_still_refused_as_a_trial(self, tmp_path):
        """Each reader keys its own entries: the cached parse of a feature CSV
        (header skipped) is never served as trial samples."""
        path = self.dataset(tmp_path, _write_features)
        FeatureMatrix.from_csv(path)
        with pytest.raises(IngestError) as info:
            _load_trials(path)
        assert str(info.value) == (f"{path}: could not convert string 'f0' to float64 "
                                   "at row 0, column 1.")
        assert [e.name.split(".")[0] for e in self.entries(path)] == ["features-2"]

    @pytest.mark.parametrize("owner", ["group_writable", "world_writable", "another_user"])
    def test_cache_of_another_user_is_neither_read_nor_written(self, reader, owner, tmp_path,
                                                               monkeypatch):
        """An entry planted in a cache directory that another user owns or can
        write is not served, and nothing is written there."""
        write, load = reader[:2]
        path = self.dataset(tmp_path, write)
        expected = load(path)
        (entry,) = self.entries(path)
        np.save(entry, np.zeros_like(np.load(entry)))
        cache = tmp_path / ".emgbench-cache"
        if owner == "another_user":
            uid = os.getuid()
            monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        else:
            cache.chmod(0o770 if owner == "group_writable" else 0o777)
        planted = entry.read_bytes()
        listing = sorted(cache.rglob("*"))
        assert load(path) == expected
        path.write_text(path.read_text() + "\n")  # a miss that would write a new entry
        assert load(path) == expected
        assert sorted(cache.rglob("*")) == listing
        assert entry.read_bytes() == planted

    def test_unwritable_cache_loads_and_writes_nothing(self, reader, tmp_path):
        """A regular file where the cache directory goes blocks it, as chmod
        would not for root."""
        write, load = reader[:2]
        path = self.dataset(tmp_path, write)
        expected = self.fresh(load, path, tmp_path)
        blocker = tmp_path / ".emgbench-cache"
        blocker.write_bytes(b"not a directory")
        listing = sorted(tmp_path.iterdir())
        assert load(path) == load(path) == expected
        assert sorted(tmp_path.iterdir()) == listing
        assert blocker.read_bytes() == b"not a directory"


def write_wfdb(tmp_path, name="rec", n_sig=2, fs=2048, n_samp=4, fmt="16", gain="100(0)/mV",
               values=None):
    header = [f"{name} {n_sig} {fs} {n_samp}"]
    for _ in range(n_sig):
        header.append(f"{name}.dat {fmt} {gain} 16 0 0 0 0 ch")
    (tmp_path / f"{name}.hea").write_text("\n".join(header) + "\n")
    if values is None:
        values = list(range(n_sig * n_samp))
    (tmp_path / f"{name}.dat").write_bytes(struct.pack(f"<{len(values)}h", *values))
    return tmp_path / f"{name}.hea"


class TestWfdb:
    def test_reads_format16(self, tmp_path):
        hea = write_wfdb(tmp_path, values=[0, 10, 1, 11, 2, 12, 3, 13])
        rec = load_wfdb_record(hea, label=1)
        assert rec.samples.shape == (2, 4)
        assert rec.fs == 2048
        # de-interleaved and gain-scaled
        np.testing.assert_allclose(rec.samples[0], [0.0, 0.01, 0.02, 0.03])
        np.testing.assert_allclose(rec.samples[1], [0.1, 0.11, 0.12, 0.13])

    @pytest.mark.parametrize(
        "options, edit, message",
        [
            ({"fmt": "212"}, None, "unsupported WFDB format: '212' (only format 16 is supported)"),
            ({"gain": "0(0)/mV"}, None, "gain of zero in WFDB header"),
            ({"gain": "abc/mV"}, None, "could not convert string to float: 'abc'"),
            ({}, ("rec 2 ", "rec x "), "invalid literal for int() with base 10: 'x'"),
            ({}, ("rec 2 ", "rec 0 "), "malformed WFDB record line: 'rec 0 2048 4'"),
            ({"n_sig": 1}, ("rec.dat 16 100(0)/mV 16 0 0 0 0 ch", "rec.dat"),
             "malformed WFDB signal line: 'rec.dat'"),
            ({}, ("rec.dat 16", "other.dat 16"), "multiple .dat files are not supported"),
            ({"fs": "nan"}, None, "sampling rate must be finite and positive, got nan"),
            ({"fs": "inf"}, None, "sampling rate must be finite and positive, got inf"),
        ],
        ids=["unsupported-format", "zero-gain", "gain-not-a-number", "count-not-an-integer",
             "no-signals", "one-field-signal-line", "two-dat-files", "fs-nan", "fs-infinite"],
    )
    def test_header_refusal_names_the_file(self, tmp_path, options, edit, message):
        """A header write_wfdb wrote with options, then with edit's first
        (old, new) replacement, is refused by an IngestError naming it first."""
        hea = write_wfdb(tmp_path, **options)
        if edit:
            hea.write_text(hea.read_text().replace(*edit, 1))
        with pytest.raises(IngestError) as info:
            load_wfdb_record(hea)
        assert str(info.value) == f"{hea}: {message}"

    def test_truncated_dat(self, tmp_path):
        hea = write_wfdb(tmp_path, values=[1, 2, 3])  # header wants 8
        with pytest.raises(IngestError, match="truncated signal file"):
            load_wfdb_record(hea)

    def test_sample_count_matches_header(self, tmp_path):
        hea = write_wfdb(tmp_path, n_sig=3, n_samp=7, values=list(range(21)))
        rec = load_wfdb_record(hea)
        assert rec.samples.shape == (3, 7)


class TestSynthetic:
    def test_shapes_and_labels(self):
        recs = generate_synthetic(2, 2, 2048, 3, 1.0, seed=7)
        assert len(recs) == 6
        assert all(r.samples.shape == (2, 2048) for r in recs)
        assert sorted({r.label for r in recs}) == [0, 1]

    def test_deterministic_for_seed(self):
        a = generate_synthetic(2, 2, 2048, 3, 1.0, seed=7)
        b = generate_synthetic(2, 2, 2048, 3, 1.0, seed=7)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.samples, rb.samples)

    def test_seeds_differ(self):
        a = generate_synthetic(2, 2, 2048, 3, 1.0, seed=7)
        b = generate_synthetic(2, 2, 2048, 3, 1.0, seed=8)
        assert not np.array_equal(a[0].samples, b[0].samples)

    def test_short_trial_rejected(self):
        """The band-pass pads 27 samples each side, so 28 is the shortest
        trial; a shorter one is refused by name, not by the filter."""
        assert generate_synthetic(1, 1, 1024, 1, 28 / 1024, seed=0)[0].samples.shape == (1, 28)
        with pytest.raises(IngestError, match=r"trial_seconds 0\.02 gives 20 samples.* 28 samples"):
            generate_synthetic(2, 2, 1024, 1, 0.02, seed=0)
        with pytest.raises(IngestError, match=r"trial_seconds 0 gives 0 samples"):
            generate_synthetic(2, 2, 1024, 1, 0, seed=0)

    @pytest.mark.parametrize("key", ["fs", "trial_seconds"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_fs_or_length_rejected(self, key, value):
        spec = dict(n_classes=2, n_channels=2, fs=1024, trials_per_class=1, trial_seconds=1.0)
        with pytest.raises(IngestError, match=f"synthetic {key} must be finite, got {value}"):
            generate_synthetic(**{**spec, key: value}, seed=0)

    def test_low_fs_rejected(self):
        with pytest.raises(IngestError, match="450 Hz band edge"):
            generate_synthetic(2, 2, 500, 1, 1.0, seed=0)

    def test_holds_under_four_trials_beside_its_output(self):
        """Each trial is built in place on the filter's output with one noise
        buffer, so beyond the trials it returns the generator's peak is the
        filter's working set: the noise, the padded copy and its block
        products, under 4 trials' bytes (3.24; 4.25 when each step made a new array)."""
        spec = dict(n_classes=3, n_channels=4, fs=2048.0, trials_per_class=3, trial_seconds=2.0)
        generate_synthetic(**spec, seed=0)  # the filters' block operators are built once
        tracemalloc.start()
        try:
            records = generate_synthetic(**spec, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        trial_bytes = records[0].samples.nbytes
        assert (peak - trial_bytes * len(records)) / trial_bytes < 4


class TestSignalRecord:
    def test_rejects_non_finite(self):
        with pytest.raises(IngestError, match="non-finite"):
            SignalRecord(samples=np.array([[1.0, np.inf]]), fs=10.0, label=0)

    def test_rejects_bad_fs(self):
        with pytest.raises(IngestError, match="positive"):
            SignalRecord(samples=np.ones((1, 4)), fs=0.0, label=0)

    @pytest.mark.parametrize("fs", [np.nan, np.inf])
    def test_rejects_non_finite_fs(self, fs):
        with pytest.raises(IngestError, match=f"must be finite and positive, got {fs}"):
            SignalRecord(samples=np.ones((1, 4)), fs=fs, label=0)

    def test_rejects_short_channels(self):
        with pytest.raises(IngestError, match="length >= 2"):
            SignalRecord(samples=np.ones((1, 1)), fs=10.0, label=0)
