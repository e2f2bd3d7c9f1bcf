from __future__ import annotations

import json
import re

import pytest

from emgbench import benchmark
from emgbench.cli import main

SYNTH_ARGS = [
    "synth",
    "--classes", "2",
    "--channels", "2",
    "--fs", "1024",
    "--trials", "2",
    "--seconds", "1",
    "--seed", "3",
]

SMALL_SPEC = json.dumps(
    {"n_classes": 2, "n_channels": 2, "fs": 1024.0, "trials_per_class": 2, "trial_seconds": 1.0}
)


def make_dataset(path, seed="3"):
    args = list(SYNTH_ARGS)
    args[args.index("--seed") + 1] = seed
    assert main(args + ["--out", str(path)]) == 0
    return path / "manifest.json"


class TestSynth:
    def test_writes_manifest_and_run_config(self, tmp_path, capsys):
        manifest_path = make_dataset(tmp_path / "data")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["class_names"] == ["class0", "class1"]
        assert len(manifest["entries"]) == 4
        run_config = json.loads((tmp_path / "data" / "run_config.json").read_text())
        assert run_config["seed"] == 3
        assert "emgbench_version" in run_config
        assert "wrote 4 trials" in capsys.readouterr().out

    def test_rerun_with_same_seed_is_identical(self, tmp_path):
        a = make_dataset(tmp_path / "a")
        b = make_dataset(tmp_path / "b")
        for name in ("manifest.json", "trial_0000.csv"):
            assert (a.parent / name).read_text() == (b.parent / name).read_text()

    def test_different_seeds_differ(self, tmp_path):
        a = make_dataset(tmp_path / "a", seed="3")
        b = make_dataset(tmp_path / "b", seed="4")
        assert (a.parent / "trial_0000.csv").read_text() != (b.parent / "trial_0000.csv").read_text()

    def test_refuses_nonempty_dir_without_force(self, tmp_path, capsys):
        out = tmp_path / "data"
        make_dataset(out)
        assert main(SYNTH_ARGS + ["--out", str(out)]) == 2
        assert "not empty" in capsys.readouterr().err
        assert main(SYNTH_ARGS + ["--out", str(out), "--force"]) == 0


class TestExtract:
    def test_wavelet_feature_csv_shape(self, tmp_path):
        manifest = make_dataset(tmp_path / "data")
        out = tmp_path / "wavelet.csv"
        code = main(["extract", "--manifest", str(manifest),
                     "--family", "wavelet", "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == 2 * 30 + 1  # 2 channels x 30 features + label
        assert header[0] == "ch0_D1_energy"
        assert header[-1] == "label"

    def test_unknown_family_is_usage_error(self, tmp_path, capsys):
        manifest = make_dataset(tmp_path / "data")
        with pytest.raises(SystemExit):
            main(["extract", "--manifest", str(manifest),
                  "--family", "mfcc", "--out", str(tmp_path / "x.csv")])

    def test_missing_manifest(self, tmp_path, capsys):
        code = main(["extract", "--manifest", str(tmp_path / "nope.json"),
                     "--family", "ftdd", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrainAndBench:
    def test_train_saves_loadable_model(self, tmp_path, capsys):
        manifest = make_dataset(tmp_path / "data")
        features = tmp_path / "ftdd.csv"
        main(["extract", "--manifest", str(manifest), "--family", "ftdd",
              "--out", str(features)])
        model_path = tmp_path / "model.json"
        code = main(["train", "--features", str(features), "--model", "lda",
                     "--out", str(model_path)])
        assert code == 0
        assert json.loads(model_path.read_text())["pipeline"] == "lda"
        assert "held-out accuracy" in capsys.readouterr().out

    def test_bench_single_cell(self, tmp_path, capsys):
        manifest = make_dataset(tmp_path / "data")
        out = tmp_path / "bundle"
        code = main(["bench", "--manifest", str(manifest),
                     "--families", "ftdd", "--models", "lda",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "=== ftdd ===" in captured
        assert "not implemented" not in captured and "CNN" not in captured
        assert (out / "ftdd_lda.json").exists()
        code = main(["report", "--bundle", str(out)])
        assert code == 0
        assert "LDA" in capsys.readouterr().out

    def test_bench_missing_dataset_source(self, capsys):
        assert main(["bench", "--families", "ftdd", "--models", "lda"]) == 2
        assert "required" in capsys.readouterr().err

    def test_bench_missing_manifest_file(self, tmp_path, capsys):
        code = main(["bench", "--manifest", str(tmp_path / "nope.json"),
                     "--families", "ftdd", "--models", "lda"])
        assert code == 2

    def test_bench_partial_synthetic_spec(self, capsys):
        code = main(["bench", "--synthetic", '{"n_channels": 2}',
                     "--families", "ftdd", "--models", "lda"])
        assert code == 2
        err = capsys.readouterr().err
        assert "missing synthetic keys" in err
        assert "'n_classes'" in err and "'trial_seconds'" in err

    def test_bench_test_fraction_out_of_range(self, capsys):
        code = main(["bench", "--synthetic", SMALL_SPEC, "--families", "ftdd",
                     "--models", "lda", "--test-fraction", "1.5"])
        assert code == 2
        assert "test_fraction must be in (0, 1), got 1.5" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bench_jobs_below_one(self, jobs, capsys):
        code = main(["bench", "--synthetic", SMALL_SPEC, "--families", "ftdd",
                     "--models", "lda", "--jobs", jobs])
        assert code == 2
        assert f"jobs must be an integer >= 1, got {jobs}" in capsys.readouterr().err

    @pytest.mark.parametrize("failing", ["one_cell", "every_cell", "one_cell_tsd_first"])
    def test_report_reproduces_table_with_failed_cells(self, failing, tmp_path, capsys,
                                                       monkeypatch):
        families = ["tsd", "ftdd"] if failing == "one_cell_tsd_first" else ["ftdd"]
        args = ["bench", "--synthetic", SMALL_SPEC, "--families", *families,
                "--models", "lda", "knn", "--out", str(tmp_path)]
        if failing != "every_cell":
            fit = benchmark.fit_pipeline

            def fit_failing_knn(name, *a, **k):
                if name == "knn":
                    raise ValueError("injected failure")
                return fit(name, *a, **k)

            monkeypatch.setattr(benchmark, "fit_pipeline", fit_failing_knn)
        else:
            args.append("--subject-split")  # synthetic data has one subject
        assert main(args) == 1
        capsys.readouterr()
        assert main(["report", "--bundle", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out == (tmp_path / "table.txt").read_text() + "\n"
        assert "FAILED" in out
        assert [line for line in out.splitlines() if line.startswith("===")] == [
            f"=== {family} ===" for family in families
        ]

    def test_bench_flags_override_config_file(self, tmp_path):
        config = tmp_path / "c.json"
        spec = {**json.loads(SMALL_SPEC), "trial_seconds": 2.0}  # 10 rows to train KNN on
        config.write_text(json.dumps({"dataset": {"synthetic": spec},
                                      "families": ["ftdd"], "models": ["lda"], "seed": 4}))
        out = tmp_path / "bundle"
        assert main(["bench", "--config", str(config), "--families", "tsd",
                     "--models", "knn", "--test-fraction", "0.5", "--out", str(out)]) == 0
        cells = [line.split(",")[:2] for line in (out / "table.csv").read_text().splitlines()[1:]]
        assert cells == [["tsd", "knn"]]
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert (resolved["families"], resolved["models"]) == (["tsd"], ["knn"])
        assert (resolved["test_fraction"], resolved["seed"]) == (0.5, 4)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "config must be a JSON object, got list"),
            ({"tdd": {"bogus": 1}}, r"unknown tdd keys: \['bogus'\]"),
            ({"band": {"low": 20, "high": 450, "order": 8, "bogus": 1}},
             r"unknown band keys: \['bogus'\]"),
            ({"band": {"low": 20, "high": 450}}, r"missing band keys: \['order'\]"),
            ({"jobs": 1.5}, r"jobs must be an integer >= 1, got 1\.5"),
            ({"window_ms": 0}, r"window_ms must be > 0, got 0"),
        ],
        ids=["list", "tdd_key", "band_key", "band_missing", "jobs_float", "window_zero"],
    )
    def test_bad_config_file_names_the_file(self, doc, message, tmp_path, capsys):
        config = tmp_path / "c.json"
        if isinstance(doc, dict):
            doc = {"dataset": {"synthetic": json.loads(SMALL_SPEC)}, **doc}
        config.write_text(json.dumps(doc))
        assert main(["bench", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ")
        assert re.search(message, err)

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EMG_SEED", "3")
        a = tmp_path / "a"
        assert main(["synth", "--classes", "2", "--channels", "2", "--fs", "1024",
                     "--trials", "2", "--seconds", "1", "--out", str(a)]) == 0
        b = make_dataset(tmp_path / "b", seed="3")
        assert (a / "trial_0000.csv").read_text() == (b.parent / "trial_0000.csv").read_text()
