from __future__ import annotations

import json

import pytest

from emgbench import benchmark
from emgbench.benchmark import (
    BenchmarkConfig,
    ConfigError,
    cell_seed,
    render_table,
    run_benchmark,
    write_bundle,
)
from emgbench.classify import MODEL_NAMES, model_to_blob

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
        assert echo["decisions"]["averaging"] == "macro"
        assert "moment_exponent_k" in echo["decisions"]
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

    def test_failing_family_is_attributed_not_fatal(self):
        # 10 ms windows are too short for a 5-level wavelet cascade but fine
        # for the time-domain family
        config = small_config(families=("ftdd", "wavelet"), window_ms=10.0)
        reports, errors = run_benchmark(config)
        assert [(r.family, r.model) for r in reports] == [("ftdd", "lda")]
        assert set(errors) == {("wavelet", "lda")}

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
                (r.family, r.model): {k: v for k, v in r.to_json_dict().items()
                                      if k not in ("timing", "config")}
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
            fits.append(name)
            seen[name] = fit(name, train, seed=seed, member=member)
            return seen[name]

        monkeypatch.setattr(benchmark, "fit_pipeline", recorded)
        models = ("voting", "svm", "knn", "random_forest", "bagging_svm")
        _, errors = run_benchmark(small_config(models=models))
        assert errors == {}
        assert sorted(fits) == sorted(models)
        voting = seen["voting"].model
        for name, voter in zip(("svm", "knn", "random_forest"), voting.members):
            assert model_to_blob(voter) == model_to_blob(seen[name].model)
            assert voter.seed == cell_seed(7, "ftdd", name)
        assert model_to_blob(voting.scaler) == model_to_blob(seen["svm"].scaler)


class TestRendering:
    def test_table_layout(self):
        reports, errors = run_benchmark(small_config(models=("lda", "knn")))
        table = render_table(reports, errors)
        lines = table.splitlines()
        assert lines[0] == "=== ftdd ==="
        assert lines[1].split() == ["Models", "ACC", "P", "R", "F1"]
        assert lines[2].startswith("LDA")
        assert lines[3].startswith("KNN")
        assert len(lines) == 4  # the computed rows only: no placeholder rows

    def test_failed_row_visible(self):
        config = small_config(families=("wavelet",), window_ms=10.0)
        reports, errors = run_benchmark(config)
        table = render_table(reports, errors)
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
        assert doc["config"]["decisions"]["averaging"] == "macro"
