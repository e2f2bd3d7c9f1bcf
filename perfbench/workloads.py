"""The three workloads: how each builds its inputs, the work it times, what
it reports about that work, and the checks that its outputs are right.

Every function runs inside a fresh child interpreter (see child.py) and
calls the program through module attributes, so the traced run's wrappers
(tracing.py) see every call. `wd` is the workload's scratch directory.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import re
from pathlib import Path

import numpy as np

benchmark = importlib.import_module("emgbench.benchmark")
cli = importlib.import_module("emgbench.cli")
evaluate = importlib.import_module("emgbench.evaluate")
features = importlib.import_module("emgbench.features.extract")
pipeline = importlib.import_module("emgbench.classify.pipeline")
preprocess = importlib.import_module("emgbench.preprocess")
signal_io = importlib.import_module("emgbench.signal_io")

TRAIN_MODELS = ("knn", "random_forest", "bagging_knn", "adaboost", "voting", "lda")
TRAIN_TEST_FRACTION = 0.9

# Dataset shapes per size: `grid` is the grid and CSV dataset, `train` the
# dataset behind train-predict's feature CSV. `reference` is the ROADMAP
# reference grid. `bench` keeps its 8 channels and 2048 Hz, with fewer
# classes, trials and seconds, so that four timed grid reps fit in one run of
# the benchmark, which must end within 180 s.
SIZES = {
    "smoke": {
        "grid": dict(n_classes=3, n_channels=4, fs=2048.0, trials_per_class=2, trial_seconds=1.5),
        "train": dict(n_classes=3, n_channels=4, fs=2048.0, trials_per_class=4, trial_seconds=1.5),
    },
    "bench": {
        "grid": dict(n_classes=4, n_channels=8, fs=2048.0, trials_per_class=2, trial_seconds=4.0),
        "train": dict(n_classes=4, n_channels=8, fs=2048.0, trials_per_class=10, trial_seconds=5.0),
    },
    "reference": {
        "grid": dict(n_classes=8, n_channels=8, fs=2048.0, trials_per_class=10, trial_seconds=5.0),
        "train": dict(n_classes=8, n_channels=8, fs=2048.0, trials_per_class=10, trial_seconds=20.0),
    },
}


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the command line in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def bundle_digests(bundle: Path) -> tuple[str, str]:
    """Digest of the whole bundle with every "timing" field removed, and of
    table.csv alone."""
    def strip(doc):
        if isinstance(doc, dict):
            return {k: strip(v) for k, v in doc.items() if k != "timing"}
        if isinstance(doc, list):
            return [strip(v) for v in doc]
        return doc

    whole = hashlib.sha256()
    for path in sorted(bundle.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            data = json.dumps(strip(json.loads(data)), sort_keys=True).encode()
        whole.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    table = hashlib.sha256((bundle / "table.csv").read_bytes()).hexdigest()
    return whole.hexdigest(), table


def _table_f1(bundle: Path) -> list[float]:
    lines = (bundle / "table.csv").read_text().splitlines()[1:]
    return [float(line.split(",")[-1]) for line in lines]


def _bundle_failures(bundle: Path) -> int:
    errors = bundle / "errors.json"
    return len(json.loads(errors.read_text())) if errors.exists() else 0


class Grid:
    """The family x model grid on a synthetic dataset, through
    run_benchmark and write_bundle. Fit-bound; reads no file."""

    def setup(self, wd: Path, seed: int, size: str) -> None:
        config = {"dataset": {"synthetic": SIZES[size]["grid"]}, "seed": seed, "jobs": 1}
        benchmark.BenchmarkConfig.from_dict(config)
        (wd / "config.json").write_text(json.dumps(config))

    def prepare(self, wd: Path, seed: int, size: str):
        return benchmark.BenchmarkConfig.from_json(wd / "config.json")

    def run(self, wd: Path, config) -> dict:
        reports, errors = benchmark.run_benchmark(config)
        benchmark.write_bundle(wd / "bundle", config, reports, errors)
        return {"cells": len(reports) + len(errors), "failed": len(errors)}

    def summarize(self, wd: Path, state: dict) -> dict:
        digest, table = bundle_digests(wd / "bundle")
        return {
            "ops": state["cells"],
            "failed": state["failed"],
            "f1": _table_f1(wd / "bundle"),
            "bundle_digest": digest,
            "table_digest": table,
        }

    def check(self, wd: Path, seed: int, size: str, reps: list[dict]) -> dict:
        """Every repeat wrote the same bundle, timing fields aside."""
        first = reps[0]["bundle_digest"]
        failures = [
            f"repeat {i} bundle differs from repeat 0"
            for i, rep in enumerate(reps[1:], 1)
            if rep["bundle_digest"] != first
        ]
        return {"ops": len(reps) - 1, "failures": failures}


class CsvFeatures:
    """`emgbench bench --manifest` with LDA only over a canonical CSV copy of
    the grid's dataset. CSV parsing and feature extraction dominate."""

    def setup(self, wd: Path, seed: int, size: str) -> None:
        spec = SIZES[size]["grid"]
        code, _ = _cli([
            "synth", "--classes", str(spec["n_classes"]), "--channels", str(spec["n_channels"]),
            "--fs", str(spec["fs"]), "--trials", str(spec["trials_per_class"]),
            "--seconds", str(spec["trial_seconds"]), "--seed", str(seed),
            "--out", str(wd / "data"), "--force",
        ])
        if code != 0:
            raise RuntimeError(f"emgbench synth exited {code}")

    def prepare(self, wd: Path, seed: int, size: str):
        return [
            "bench", "--manifest", str(wd / "data" / "manifest.json"), "--models", "lda",
            "--seed", str(seed), "--jobs", "1", "--out", str(wd / "bundle"),
        ]

    def run(self, wd: Path, argv) -> dict:
        code, _ = _cli(argv)
        return {"code": code}

    def summarize(self, wd: Path, state: dict) -> dict:
        n_cells = len(features.FAMILIES)
        if state["code"] not in (0, 1):
            return {"ops": n_cells, "failed": n_cells, "f1": []}
        return {"ops": n_cells, "failed": _bundle_failures(wd / "bundle"), "f1": _table_f1(wd / "bundle")}

    def check(self, wd: Path, seed: int, size: str, reps: list[dict]) -> dict:
        """Features of the CSV-loaded trials equal, bit for bit, those of
        the same trials generated in memory."""
        from_csv = signal_io.load_canonical_csv(wd / "data" / "manifest.json")
        in_memory = signal_io.generate_synthetic(seed=seed, **SIZES[size]["grid"])
        windows = [
            preprocess.segment_records([preprocess.bandpass(r) for r in records])
            for records in (from_csv, in_memory)
        ]
        failures = []
        for family in features.FAMILIES:
            a, b = (features.extract(ws, family) for ws in windows)
            same = (
                a.feature_names == b.feature_names
                and a.values.tobytes() == b.values.tobytes()
                and a.labels.tobytes() == b.labels.tobytes()
            )
            if not same:
                failures.append(f"{family} features from CSV differ from in-memory features")
        return {"ops": len(features.FAMILIES), "failures": failures}


_ACCURACY = re.compile(r"held-out accuracy ([0-9.]+)")


class TrainPredict:
    """`emgbench train` on an ftdd feature CSV, once per model, with a small
    train and a large test share. Predict and save dominate."""

    def setup(self, wd: Path, seed: int, size: str) -> None:
        records = signal_io.generate_synthetic(seed=seed, **SIZES[size]["train"])
        ws = preprocess.segment_records([preprocess.bandpass(r) for r in records])
        features.extract(ws, "ftdd").to_csv(wd / "features.csv")

    def prepare(self, wd: Path, seed: int, size: str):
        return [
            [
                "train", "--features", str(wd / "features.csv"), "--model", model,
                "--test-fraction", str(TRAIN_TEST_FRACTION), "--seed", str(seed),
                "--out", str(wd / "models" / f"{model}.json"),
            ]
            for model in TRAIN_MODELS
        ]

    def run(self, wd: Path, argvs) -> dict:
        return {"results": [_cli(argv) for argv in argvs]}

    def summarize(self, wd: Path, state: dict) -> dict:
        accuracy = {}
        for model, (code, out) in zip(TRAIN_MODELS, state["results"]):
            found = _ACCURACY.search(out)
            if code == 0 and found:
                accuracy[model] = found.group(1)
        return {"ops": len(TRAIN_MODELS), "failed": len(TRAIN_MODELS) - len(accuracy), "accuracy": accuracy}

    def check(self, wd: Path, seed: int, size: str, reps: list[dict]) -> dict:
        """Each saved model reloads and predicts the same labels as a refit
        on the same split and seed, and scores the accuracy `train` printed."""
        fm = features.FeatureMatrix.from_csv(wd / "features.csv")
        train_idx, test_idx = evaluate.stratified_split(fm.labels, TRAIN_TEST_FRACTION, seed)
        test = fm.select(test_idx)
        class_names = [str(c) for c in range(int(fm.labels.max()) + 1)]
        printed = reps[-1]["accuracy"]  # the last rep wrote the saved models
        failures, f1 = [], []
        for model in TRAIN_MODELS:
            loaded = pipeline.Pipeline.load(wd / "models" / f"{model}.json").predict(test.values)
            refit = pipeline.fit_pipeline(model, fm.select(train_idx), seed=seed).predict(test.values)
            report = evaluate.metrics(
                evaluate.ConfusionMatrix.from_labels(test.labels, loaded, class_names)
            )
            f1.append(report.macro_f1)
            if not np.array_equal(loaded, refit):
                failures.append(f"{model}: reloaded model predicts other labels than a refit")
            elif printed.get(model) != f"{report.accuracy:.4f}":
                failures.append(f"{model}: reloaded accuracy {report.accuracy:.4f}, printed {printed.get(model)}")
        return {"ops": len(TRAIN_MODELS), "failures": failures, "f1": f1}


WORKLOADS = {"grid": Grid(), "csv-features": CsvFeatures(), "train-predict": TrainPredict()}
