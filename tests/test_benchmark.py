from __future__ import annotations

import gc
import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from emgbench import benchmark, preprocess, signal_io
from emgbench.benchmark import (
    BenchmarkConfig,
    ConfigError,
    cell_seed,
    read_bundle,
    render_table,
    run_benchmark,
    write_bundle,
)
from emgbench.classify.base import model_to_blob
from emgbench.classify.pipeline import MODEL_NAMES
from emgbench.preprocess import window_counts
from emgbench.signal_io import generate_synthetic, write_dataset

SMALL_SYNTH = {
    "synthetic": {
        "n_classes": 2,
        "n_channels": 2,
        "fs": 1024.0,
        "trials_per_class": 2,
        "trial_seconds": 1.0,
    }
}


def small_config(**overrides):
    kwargs = dict(
        dataset=SMALL_SYNTH,
        families=("ftdd",),
        models=("lda",),
        seed=7,
    )
    kwargs.update(overrides)
    return BenchmarkConfig(**kwargs)


class TestConfig:
    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError, match="unknown feature family"):
            small_config(families=("spectrogram",))

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown model"):
            small_config(models=("cnn",))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            BenchmarkConfig.from_dict({"dataset": SMALL_SYNTH, "epochs": 5})

    def test_dataset_needs_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            BenchmarkConfig(dataset={})

    def test_echo_records_decisions(self):
        echo = small_config().echo()
        decisions = echo["decisions"]
        assert decisions["averaging"] == "macro"
        # The descriptor constants, as every bundle records them.
        assert (decisions["moment_exponent_k"], decisions["lambda_mode"]) == (0.1, "channel_median")
        assert (decisions["eps"], decisions["irf_standard"]) == (1e-10, False)
        assert echo["band"] == {"low": 20.0, "high": 450.0, "order": 8}

    def test_cell_seed_distinguishes_cells(self):
        seeds = {cell_seed(0, f, m) for f in ("ftdd", "tsd") for m in ("lda", "knn")}
        assert len(seeds) == 4
        assert cell_seed(0, "ftdd", "lda") == cell_seed(0, "ftdd", "lda")


class TestRun:
    def test_single_cell(self):
        reports, errors = run_benchmark(small_config())
        assert errors == {}
        assert len(reports) == 1
        r = reports[0]
        assert (r.family, r.model) == ("ftdd", "lda")
        assert 0.0 <= r.metrics.accuracy <= 1.0
        assert r.confusion.total > 0
        assert "fit_seconds" in r.timing

    def test_failing_family_is_attributed_not_fatal(self, monkeypatch):
        # 10 ms windows are too short for a 5-level wavelet cascade but fine
        # for the time-domain family
        monkeypatch.setattr(preprocess, "WINDOW_MS", 10.0)
        config = small_config(families=("ftdd", "wavelet"))
        reports, errors = run_benchmark(config)
        assert [(r.family, r.model) for r in reports] == [("ftdd", "lda")]
        assert set(errors) == {("wavelet", "lda")}

    def test_subject_split_keeps_a_training_subject(self, tmp_path):
        """However large the test fraction, one subject stays in training."""
        records = generate_synthetic(2, 2, 1024.0, 4, 1.0, seed=7)
        records = (replace(r, subject=f"s{i % 2}") for i, r in enumerate(records))
        manifest = write_dataset(records, ["class0", "class1"], tmp_path)
        config = small_config(dataset={"manifest": str(manifest)}, subject_split=True,
                              test_fraction=0.8)
        reports, errors = run_benchmark(config)
        assert errors == {}
        table = benchmark.trial_table(config)
        n_windows = window_counts(table.fs, table.n_samples).sum()
        assert reports[0].confusion.total * 2 == n_windows  # one subject of two

    def test_report_order_matches_grid_order(self):
        config = small_config(families=("tsd", "ftdd"), models=("knn", "lda"))
        reports, _ = run_benchmark(config)
        assert [(r.family, r.model) for r in reports] == [
            ("tsd", "knn"),
            ("tsd", "lda"),
            ("ftdd", "knn"),
            ("ftdd", "lda"),
        ]

    def test_models_of_a_row_share_its_partition(self, monkeypatch):
        fits = []
        fit = benchmark.fit_pipeline

        def recorded(name, train, seed=0, member=None):
            fits.append((name, train.values.tobytes(), train.labels.tobytes(), seed))
            return fit(name, train, seed=seed, member=member)

        monkeypatch.setattr(benchmark, "fit_pipeline", recorded)
        models = ("lda", "knn", "svm")
        reports, errors = run_benchmark(small_config(families=("ftdd", "tsd"), models=models))
        assert errors == {}
        for family, row in (("ftdd", fits[:3]), ("tsd", fits[3:])):
            assert len({(values, labels) for _, values, labels, _ in row}) == 1
            assert [seed for *_, seed in row] == [cell_seed(7, family, m) for m in models]
            supports = {r.confusion.counts.sum(axis=1).tobytes() for r in reports
                        if r.family == family}
            assert len(supports) == 1

    def test_parallel_equals_serial(self):
        base = dict(families=("ftdd", "tsd"), models=("lda", "knn", "voting", "bagging_svm"))
        serial, err_s = run_benchmark(small_config(jobs=1, **base))
        parallel, err_p = run_benchmark(small_config(jobs=2, **base))
        assert err_s == err_p == {}
        serial_docs, parallel_docs = (
            [{k: v for k, v in r.to_json_dict().items() if k != "timing"} for r in reports]
            for reports in (serial, parallel)
        )
        assert json.dumps(serial_docs, sort_keys=True) == json.dumps(
            parallel_docs, sort_keys=True
        )

    def test_composite_cells_do_not_depend_on_the_grid(self):
        """Voting and bagging_svm build on their row's svm, knn and forest,
        each fitted under its own cell seed, whether or not those cells
        are in the grid or have run yet."""
        def docs(models):
            reports, errors = run_benchmark(small_config(families=("ftdd", "tsd"), models=models))
            assert errors == {}
            return {
                (r.family, r.model): {k: v for k, v in r.to_json_dict().items() if k != "timing"}
                for r in reports if r.model in ("voting", "bagging_svm")
            }

        alone = docs(("voting", "bagging_svm"))
        assert len(alone) == 4
        assert docs(MODEL_NAMES) == alone
        assert docs(("bagging_svm", "random_forest", "voting", "svm")) == alone

    def test_row_fits_each_pipeline_once(self, monkeypatch):
        fits, seen = [], {}
        fit = benchmark.fit_pipeline

        def recorded(name, train, seed=0, member=None):
            fits.append((name, train))
            seen[name] = fit(name, train, seed=seed, member=member)
            return seen[name]

        monkeypatch.setattr(benchmark, "fit_pipeline", recorded)
        models = ("voting", "svm", "knn", "random_forest", "bagging_svm")
        _, errors = run_benchmark(small_config(models=models))
        assert errors == {}
        assert sorted(name for name, _ in fits) == sorted(models)
        voters = seen["voting"].model.members
        assert [v.name for v in voters] == ["svm", "knn", "random_forest"]
        for voter in voters:
            assert voter is seen[voter.name]
        # the forest voting votes with is the row's random_forest cell
        train = dict(fits)["random_forest"]
        forest = fit("random_forest", train, seed=cell_seed(7, "ftdd", "random_forest"))
        assert model_to_blob(voters[2]) == model_to_blob(forest)

    def test_row_frees_its_pipelines_without_the_cycle_collector(self, monkeypatch):
        refs = []
        fit = benchmark.fit_pipeline

        def recorded(*a, **k):
            pipeline = fit(*a, **k)
            refs.append(weakref.ref(pipeline))
            return pipeline

        monkeypatch.setattr(benchmark, "fit_pipeline", recorded)
        gc.disable()
        try:
            _, errors = run_benchmark(small_config(models=("voting", "bagging_svm")))
            alive = [ref for ref in refs if ref() is not None]
        finally:
            gc.enable()
        assert errors == {} and len(refs) == 5  # voting, its 3 voters, bagging_svm
        assert alive == []

    @pytest.mark.parametrize("source", ["synthetic", "manifest"])
    def test_each_raw_trial_dies_before_the_next_is_filtered(self, source, tmp_path, monkeypatch):
        """The streamed pass holds no array of a trial, raw or filtered, when
        the next trial is produced, and no raw trial once its filtered copy
        exists; reference counting alone frees them."""
        dataset = SMALL_SYNTH
        produce = "sosfiltfilt"  # the generator filters once per trial it draws
        if source == "manifest":
            records = generate_synthetic(seed=7, **SMALL_SYNTH["synthetic"])
            dataset = {"manifest": str(write_dataset(records, ["class0", "class1"], tmp_path))}
            produce = "_read_npy"  # the loader reads one .npy file per trial
        raw, filtered, at_produce, at_extract = [], [], [], []
        bandpass, extract, producer = benchmark.bandpass, benchmark.extract, getattr(signal_io, produce)

        def alive(refs):
            return sum(ref() is not None for ref in refs)

        def owner(a):  # the array that holds a view's memory
            return a if a.base is None else owner(a.base)

        def produced(*a, **k):  # the memory of the raw trial's samples
            at_produce.append(alive(raw) + alive(filtered))
            samples = producer(*a, **k)
            raw.append(weakref.ref(owner(samples)))
            return samples

        def recorded(record):
            out = bandpass(record)
            filtered.append(weakref.ref(owner(out.samples)))
            return out

        def extracted(ws, family):
            at_extract.append(alive(raw))
            return extract(ws, family)

        monkeypatch.setattr(signal_io, produce, produced)
        monkeypatch.setattr(benchmark, "bandpass", recorded)
        monkeypatch.setattr(benchmark, "extract", extracted)
        gc.disable()
        try:
            features, failed = benchmark.extract_features(
                small_config(dataset=dataset, families=("ftdd", "tsd")),
                benchmark.trial_table(small_config(dataset=dataset)))
        finally:
            gc.enable()
        assert failed == {} and list(features) == ["ftdd", "tsd"]
        assert len(raw) == len(filtered) == 4
        assert at_produce == [0, 0, 0, 0]
        assert at_extract == [0] * 8

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_trial_is_alive_at_any_fit(self, jobs, monkeypatch):
        """No array of any trial, raw or filtered, is alive at a fit, on the
        calling thread or in the pool."""
        trials, alive = [], []
        bandpass, fit = benchmark.bandpass, benchmark.fit_pipeline

        def recorded(record):
            out = bandpass(record)
            trials.extend(weakref.ref(x.samples) for x in (record, out))
            return out

        def fitted(*a, **k):
            alive.append(sum(ref() is not None for ref in trials))
            return fit(*a, **k)

        monkeypatch.setattr(benchmark, "bandpass", recorded)
        monkeypatch.setattr(benchmark, "fit_pipeline", fitted)
        gc.disable()
        try:
            _, errors = run_benchmark(small_config(families=("ftdd", "tsd"), jobs=jobs))
        finally:
            gc.enable()
        assert errors == {} and len(trials) == 8
        assert alive == [0, 0]

    def test_streamed_peak_does_not_grow_with_the_trials(self):
        """Beyond its feature rows, the streamed pass's traced peak is about
        the same for 2 trials and for 12: it holds one trial at a time, where
        holding them all would add 10 trials' bytes or more."""
        spec = dict(n_classes=2, n_channels=4, fs=2048.0, trial_seconds=2.0)

        def peak_beyond_rows(trials_per_class):
            dataset = {"synthetic": {**spec, "trials_per_class": trials_per_class}}
            config = small_config(dataset=dataset, families=("ftdd", "wavelet"))
            table = benchmark.trial_table(config)
            tracemalloc.start()
            try:
                features, _ = benchmark.extract_features(config, table)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            rows = sum(fm.values.nbytes + fm.labels.nbytes for fm in features.values())
            return peak - rows

        peak_beyond_rows(1)  # the filters' block operators are built once
        trial_bytes = 4 * 4096 * 8
        growth = peak_beyond_rows(6) - peak_beyond_rows(1)
        assert abs(growth) < trial_bytes / 4, growth

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("fs", "entry 'trial_0002.npy' has fs 2048.0 and 2 channels, "
                   "entry 'trial_0000.npy' fs 1024.0 and 2 channels"),
            ("channels", "entry 'trial_0002.npy' has fs 1024.0 and 1 channels, "
                         "entry 'trial_0000.npy' fs 1024.0 and 2 channels"),
            ("short", "entry 'trial_0002.npy': record shorter than one window: "
                      "100 < 614 samples"),
        ],
        ids=["fs", "channels", "short"],
    )
    def test_refusal_comes_before_any_band_pass(self, damage, message, tmp_path, monkeypatch):
        """A manifest whose trials disagree in fs or channel count, or that
        holds a trial shorter than one window, is refused by the manifest's
        and the entry's names before a trial is read or band-passed."""
        records = generate_synthetic(seed=7, **SMALL_SYNTH["synthetic"])
        manifest = write_dataset(records, ["class0", "class1"], tmp_path)
        trial = tmp_path / "trial_0002.npy"
        if damage == "fs":
            doc = json.loads(manifest.read_text())
            doc["entries"][2]["fs"] = 2048.0
            manifest.write_text(json.dumps(doc))
        else:
            samples = np.load(trial)
            np.save(trial, samples[:, :1] if damage == "channels" else samples[:100])
        calls = []
        monkeypatch.setattr(benchmark, "bandpass", lambda record: calls.append(record))
        monkeypatch.setattr(signal_io, "_read_npy", lambda path: calls.append(path))
        with pytest.raises(ValueError) as info:
            run_benchmark(small_config(dataset={"manifest": str(manifest)}))
        assert str(info.value) == f"{manifest}: {message}"
        assert calls == []


class TestRendering:
    def test_table_layout(self):
        config = small_config(models=("lda", "knn"))
        reports, errors = run_benchmark(config)
        table = render_table(config.families, reports, errors)
        lines = table.splitlines()
        assert lines[0] == "=== ftdd ==="
        assert lines[1].split() == ["Models", "ACC", "P", "R", "F1"]
        assert lines[2].startswith("LDA")
        assert lines[3].startswith("KNN")
        assert len(lines) == 4  # the computed rows only: no placeholder rows

    def test_failed_row_visible(self, monkeypatch):
        monkeypatch.setattr(preprocess, "WINDOW_MS", 10.0)
        config = small_config(families=("wavelet",))
        reports, errors = run_benchmark(config)
        table = render_table(config.families, reports, errors)
        assert "FAILED" in table
        assert "=== wavelet ===" in table

    def test_bundle_files(self, tmp_path):
        config = small_config(models=("lda", "knn"))
        reports, errors = run_benchmark(config)
        write_bundle(tmp_path, config, reports, errors)
        for name in ("ftdd_lda.json", "ftdd_knn.json", "table.txt", "table.csv",
                     "resolved_config.json"):
            assert (tmp_path / name).exists()
        doc = json.loads((tmp_path / "ftdd_lda.json").read_text())
        assert doc["family"] == "ftdd"
        assert "config" not in doc  # the run's config is written once, below
        resolved = json.loads((tmp_path / "resolved_config.json").read_text())
        assert resolved["decisions"]["averaging"] == "macro"

    def test_read_bundle_returns_what_write_bundle_wrote(self, tmp_path, monkeypatch):
        monkeypatch.setattr(preprocess, "WINDOW_MS", 10.0)  # too short for the wavelet row
        config = small_config(families=("wavelet", "ftdd"), models=("lda", "knn"))
        reports, errors = run_benchmark(config)
        assert set(errors) == {("wavelet", "lda"), ("wavelet", "knn")}
        write_bundle(tmp_path, config, reports, errors)
        families, read, read_errors = read_bundle(tmp_path)
        assert (families, read_errors) == (["wavelet", "ftdd"], errors)

        def docs(cells):
            return sorted((r.to_json_dict() for r in cells), key=lambda d: d["model"])

        assert docs(read) == docs(reports)
        assert render_table(families, read, read_errors) == (tmp_path / "table.txt").read_text()
