from __future__ import annotations

import json
import re
import warnings

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


def small_bundle(out):
    """A bench bundle of ftdd x (lda, knn); returns its knn cell file."""
    assert main(["bench", "--synthetic", SMALL_SPEC, "--families", "ftdd",
                 "--models", "lda", "knn", "--out", str(out)]) == 0
    return out / "ftdd_knn.json"


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
        blob = json.loads(model_path.read_text())
        assert (blob["version"], blob["kind"], blob["name"]) == (5, "pipeline", "lda")
        assert "held-out accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "damage, message",
        [("cell", "could not convert string 'x' to float64"),
         ("header_only", "feature CSV has no data rows"),
         ("label_fraction", "data row 1 has label 1.5, not a non-negative whole number"),
         ("label_negative", "data row 1 has label -1, not a non-negative whole number"),
         ("label_huge", "data row 1 has label 1e+20, not a non-negative whole number below 2**63")],
        ids=["cell", "header_only", "label_fraction", "label_negative", "label_huge"],
    )
    def test_train_names_an_unreadable_feature_csv(self, damage, message, tmp_path, capsys):
        manifest = make_dataset(tmp_path / "data")
        features = tmp_path / "ftdd.csv"
        main(["extract", "--manifest", str(manifest), "--family", "ftdd",
              "--out", str(features)])
        header, first, *rest = features.read_text().splitlines()
        if damage == "cell":
            first = "x," + first.split(",", 1)[1]
        elif damage.startswith("label"):
            label = {"label_fraction": "1.5", "label_negative": "-1", "label_huge": "1e20"}[damage]
            first = first.rsplit(",", 1)[0] + "," + label
        rows = [] if damage == "header_only" else [first, *rest]
        features.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--features", str(features), "--model", "lda",
                         "--out", str(tmp_path / "model.json")])
        assert (code, caught) == (2, [])
        err = capsys.readouterr().err
        assert err.startswith(f"error: {features}: ")
        assert message in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("no_confusion", "missing field 'confusion'"),
            ("not_json", "Expecting"),
            ("count_str", "confusion counts must be integers, got '1'"),
            ("count_float", "confusion counts must be integers, got 1.0"),
            ("count_bool", "confusion counts must be integers, got True"),
            ("ragged", "confusion must be a 2 x 2 list of lists"),
            ("not_square", "confusion must be a 2 x 2 list of lists"),
            ("class_names_ints", "class_names must be a list of strings, got [0, 1]"),
        ],
        ids=["no_confusion", "not_json", "count_str", "count_float", "count_bool", "ragged",
             "not_square", "class_names_ints"],
    )
    def test_report_names_a_malformed_cell_file(self, damage, message, tmp_path, capsys):
        cell = small_bundle(tmp_path / "bundle")
        doc = json.loads(cell.read_text())
        cm = doc["confusion"]
        if damage == "no_confusion":
            del doc["confusion"]
        elif damage.startswith("count_"):
            cm[0][0] = {"count_str": "1", "count_float": 1.0, "count_bool": True}[damage]
        elif damage == "ragged":
            cm[1].pop()
        elif damage == "not_square":
            doc["confusion"] = [row + [0] for row in cm]
        elif damage == "class_names_ints":
            doc["class_names"] = [0, 1]
        cell.write_text('{"family": ' if damage == "not_json" else json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--bundle", str(cell.parent)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cell}: ")
        assert message in err

    @pytest.mark.parametrize(
        "name, doc, message",
        [("resolved_config.json", {"families": "ftdd"}, "families must be a list of strings"),
         ("resolved_config.json", {"families": ["ftdd", 1]}, "families must be a list of strings"),
         ("errors.json", {"ftdd/knn": "failed"}, "'ftdd/knn' is not a family:model key"),
         ("errors.json", {"ftdd:knn": 3}, "'ftdd:knn' is not a family:model key with a message")],
        ids=["families_str", "families_int", "error_key", "error_message"],
    )
    def test_report_names_a_malformed_bundle_file(self, name, doc, message, tmp_path, capsys):
        path = small_bundle(tmp_path / "bundle").parent / name
        written = json.loads(path.read_text()) if path.exists() else {}
        path.write_text(json.dumps({**written, **doc}))
        capsys.readouterr()
        assert main(["report", "--bundle", str(path.parent)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("edit", ["string_accuracy", "config_copy"])
    def test_report_recomputes_metrics_from_the_confusion_matrix(self, edit, tmp_path, capsys):
        """report reads no metric field back, so a cell whose accuracy is a
        string still renders as written; so does a cell that carries a copy
        of the run's config, as cell files once did."""
        cell = small_bundle(tmp_path / "bundle")
        bundle = cell.parent
        doc = json.loads(cell.read_text())
        if edit == "string_accuracy":
            doc["accuracy"] = str(doc["accuracy"])
        else:
            doc["config"] = json.loads((bundle / "resolved_config.json").read_text())
        cell.write_text(json.dumps(doc, indent=2, sort_keys=True))
        capsys.readouterr()
        assert main(["report", "--bundle", str(bundle)]) == 0
        assert capsys.readouterr().out == (bundle / "table.txt").read_text() + "\n"

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

    def test_bench_synthetic_spec_not_an_object(self, capsys):
        code = main(["bench", "--synthetic", "5", "--families", "ftdd", "--models", "lda"])
        assert code == 2
        assert "'synthetic' must be a JSON object, got int" in capsys.readouterr().err

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

    def test_failed_middle_family_keeps_its_place(self, tmp_path, capsys):
        spec = {"n_classes": 2, "n_channels": 1, "fs": 1024, "trials_per_class": 3,
                "trial_seconds": 2}  # tsd needs two channels
        assert main(["bench", "--synthetic", json.dumps(spec), "--families", "ftdd", "tsd",
                     "wavelet", "--models", "lda", "--out", str(tmp_path)]) == 1
        printed = capsys.readouterr().out
        assert main(["report", "--bundle", str(tmp_path)]) == 0
        reported = capsys.readouterr().out
        assert reported == (tmp_path / "table.txt").read_text() + "\n"
        for out in (printed, reported):
            assert [line for line in out.splitlines() if line.startswith("===")] == [
                "=== ftdd ===", "=== tsd ===", "=== wavelet ==="
            ]
        assert "FAILED: temporal-spatial descriptors need at least 2 channels" in reported

    def test_bench_duplicate_models_refused(self, tmp_path, capsys):
        assert main(["bench", "--synthetic", SMALL_SPEC, "--families", "ftdd",
                     "--models", "lda", "knn", "lda", "--out", str(tmp_path / "b")]) == 2
        assert "duplicate models: ['lda']" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

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
            ({"tdd": {"k": 0.1}}, r"unknown config keys: \['tdd'\]"),
            # window_ms, overlap and band are constants, not config keys: a
            # config that sets one, to any value, is refused by the key's name.
            ({"window_ms": 600}, r"unknown config keys: \['window_ms'\]"),
            ({"band": {"low": 20, "high": 450, "order": 8, "bogus": 1}},
             r"unknown config keys: \['band'\]"),
            ({"band": {"low": 20, "high": 450}}, r"unknown config keys: \['band'\]"),
            ({"jobs": 1.5}, r"jobs must be an integer >= 1, got 1\.5"),
            ({"window_ms": 0}, r"unknown config keys: \['window_ms'\]"),
            ({"seed": "x"}, r"seed must be an integer, got 'x'"),
            ({"seed": 1.5}, r"seed must be an integer, got 1\.5"),
            ({"seed": True}, r"seed must be an integer, got True"),
            ({"families": ["tsd", "ftdd", "tsd"]}, r"duplicate families: \['tsd'\]"),
            ({"families": "ftdd"}, r"families must be a list of names, got 'ftdd'"),
            ({"models": "lda"}, r"models must be a list of names, got 'lda'"),
            ({"dataset": {"synthetic": 5}}, r"'synthetic' must be a JSON object, got int"),
            ({"dataset": {"synthetic": {**json.loads(SMALL_SPEC), "trial_seconds": "1"}}},
             r"synthetic trial_seconds must be a number, got '1'"),
            ({"dataset": {"synthetic": {**json.loads(SMALL_SPEC), "n_classes": "2"}}},
             r"synthetic n_classes must be an integer, got '2'"),
            ({"dataset": {"manifest": 5}}, r"manifest must be a path string, got 5"),
            ({"overlap": "x"}, r"unknown config keys: \['overlap'\]"),
            ({"overlap": True}, r"unknown config keys: \['overlap'\]"),
            ({"test_fraction": "x"}, r"test_fraction must be a number, got 'x'"),
            ({"subject_split": "no"}, r"subject_split must be true or false, got 'no'"),
            ({"window_ms": True}, r"unknown config keys: \['window_ms'\]"),
            ({"band": {"low": "x", "high": 450, "order": 8}}, r"unknown config keys: \['band'\]"),
            ({"band": {"low": 20, "high": 450, "order": 8.5}}, r"unknown config keys: \['band'\]"),
            ({"band": {"low": 20, "high": 450, "order": True}},
             r"unknown config keys: \['band'\]"),
        ],
        ids=["list", "tdd_key", "window_default", "band_key", "band_missing", "jobs_float",
             "window_zero", "seed_str", "seed_float", "seed_bool", "duplicate_family", "families_str",
             "models_str", "synthetic_int", "trial_seconds_str", "n_classes_str",
             "manifest_int", "overlap_str", "overlap_bool", "test_fraction_str",
             "subject_split_str", "window_bool", "band_low_str", "order_float", "order_bool"],
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
