"""Benchmark harness: runs the feature-family x classifier grid over a
dataset and renders the per-family results tables."""
from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .classify.pipeline import MODEL_LABELS, MODEL_NAMES, SHARED, Pipeline, fit_pipeline
from .evaluate import ConfusionMatrix, EvaluationReport, stratified_split
from .features.extract import FAMILIES, FeatureMatrix, extract
from .features.tdd import EPS, K
from .preprocess import (HIGH, LOW, ORDER, OVERLAP, WINDOW_MS, bandpass, segment_records,
                         window_counts, window_length)
from .signal_io import (TrialTable, generate_synthetic, load_canonical_csv, manifest_table,
                        synthetic_table, synthetic_trial_samples)

# synthetic key -> int for a count, float for any number
_SYNTH_KEYS = {"n_classes": int, "n_channels": int, "fs": float, "trials_per_class": int,
               "trial_seconds": float}


class ConfigError(ValueError):
    pass


@dataclass
class BenchmarkConfig:
    dataset: dict
    families: tuple[str, ...] = FAMILIES
    models: tuple[str, ...] = MODEL_NAMES
    seed: int = 0
    test_fraction: float = 0.2
    jobs: int = 1
    subject_split: bool = False

    def __post_init__(self):
        for key, known, kind in (("families", FAMILIES, "feature family"),
                                 ("models", MODEL_NAMES, "model")):
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)) or not all(isinstance(v, str) for v in values):
                raise ConfigError(f"{key} must be a list of names, got {values!r}")
            for v in values:
                if v not in known:
                    raise ConfigError(f"unknown {kind}: {v!r}")
            duplicates = sorted({v for v in values if values.count(v) > 1})
            if duplicates:
                raise ConfigError(f"duplicate {key}: {duplicates}")
            setattr(self, key, tuple(values))
        if set(self.dataset) not in ({"manifest"}, {"synthetic"}):
            raise ConfigError("dataset must have exactly one of 'manifest' or 'synthetic'")
        if "synthetic" in self.dataset:
            spec = _section(self.dataset["synthetic"], "synthetic", set(_SYNTH_KEYS))
            missing = set(_SYNTH_KEYS) - set(spec)
            if missing:
                raise ConfigError(f"missing synthetic keys: {sorted(missing)}")
            for key, kind in _SYNTH_KEYS.items():
                _check_number(spec[key], f"synthetic {key}", kind)
            if (n := synthetic_trial_samples(**spec)) < (wlen := window_length(spec["fs"])):
                raise ConfigError(f"synthetic trial_seconds {spec['trial_seconds']} gives trials "
                                  f"shorter than one window: {n} < {wlen} samples")
        elif not isinstance(self.dataset["manifest"], str):
            raise ConfigError(f"manifest must be a path string, got {self.dataset['manifest']!r}")
        _check_number(self.test_fraction, "test_fraction")
        if not (0 < self.test_fraction < 1):
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        _check_number(self.seed, "seed", int)
        if type(self.jobs) is not int or self.jobs < 1:
            raise ConfigError(f"jobs must be an integer >= 1, got {self.jobs!r}")
        if not isinstance(self.subject_split, bool):
            raise ConfigError(f"subject_split must be true or false, got {self.subject_split!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchmarkConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_json(cls, path: str | Path) -> "BenchmarkConfig":
        return cls.from_dict(read_config(path))

    def echo(self) -> dict:
        """Fully-resolved configuration and decision record for reports."""
        return {
            "dataset": self.dataset,
            "families": list(self.families),
            "models": list(self.models),
            "seed": self.seed,
            "test_fraction": self.test_fraction,
            "window_ms": WINDOW_MS,
            "overlap": OVERLAP,
            "band": {"low": LOW, "high": HIGH, "order": ORDER},
            "subject_split": self.subject_split,
            "decisions": {
                "moment_exponent_k": K,
                "lambda_mode": "channel_median",
                "eps": EPS,
                "irf_standard": False,
                "averaging": "macro",
                "voting": "hard vote over the row's fitted svm, knn and random_forest cells, "
                "each under its own cell seed",
                "scaling": "z-score for lda/svm/knn/bagging; identity for tree ensembles",
                "split": "subject-wise" if self.subject_split else "stratified by window",
            },
        }


def _check_number(value, name: str, kind: type = float) -> None:
    """Refuse a value that is not an int (kind int) or not an int or finite
    float (kind float); bools are refused either way. JSON reads 1e400 as
    inf and accepts NaN and Infinity."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _section(doc, name: str, keys: set[str]) -> dict:
    """A config sub-object whose keys are all among keys."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name!r} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - keys
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return doc


def read_config(path: str | Path) -> dict:
    """The JSON object of a config file, checked as a config on its own;
    an error in it names the file."""
    try:
        doc = json.loads(Path(path).read_text())
        BenchmarkConfig.from_dict(doc)
    except (ValueError, TypeError) as exc:  # bad JSON, keys or values
        raise ConfigError(f"{path}: {exc}") from None
    return doc


def cell_seed(global_seed: int, *keys: str) -> int:
    """A seed derived from the run's seed and keys: (family,) seeds the
    row's train/test split, (family, model) the cell's fit."""
    digest = hashlib.sha256(":".join([str(global_seed), *keys]).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def trial_table(config: BenchmarkConfig) -> TrialTable:
    """The trial table of the config's dataset, read without a sample; a
    manifest entry shorter than one window is refused by name."""
    if "synthetic" in config.dataset:
        return synthetic_table(**config.dataset["synthetic"])
    table = manifest_table(config.dataset["manifest"])
    wlen = window_length(table.fs)
    for name, n in zip(table.names, table.n_samples):
        if n < wlen:
            raise ConfigError(f"{config.dataset['manifest']}: entry {name!r}: record "
                              f"shorter than one window: {n} < {wlen} samples")
    return table


def extract_features(config: BenchmarkConfig,
                     table: TrialTable) -> tuple[dict[str, FeatureMatrix], dict[str, str]]:
    """The feature matrix of each of the config's families over the table's
    trials, and the error of each family whose kernel refused them.

    The trials are produced one at a time. Each is band-passed, windowed and
    handed to every family, whose rows go into one matrix per family,
    allocated once from the table's window counts; so no trial, raw or
    filtered, is alive when the next is produced.
    """
    counts = window_counts(table.fs, table.n_samples)
    ends = np.cumsum(counts)
    if "synthetic" in config.dataset:
        trials = generate_synthetic(seed=config.seed, **config.dataset["synthetic"])
    else:
        trials = load_canonical_csv(config.dataset["manifest"])
    values: dict[str, np.ndarray] = {}
    names, failed = {}, {}
    # Each trial goes straight to bandpass, so it dies once its filtered copy
    # exists: a loop variable (and enumerate's or zip's last item) would hold
    # it while the next trial is produced.
    for start, end in zip(ends - counts, ends):
        ws = segment_records([bandpass(next(trials))])
        for family in config.families:
            if family in failed:
                continue
            try:
                fm = extract(ws, family)
            except Exception as exc:  # such as tsd on one channel: the family's row fails
                failed[family] = str(exc)
                values.pop(family, None)
                continue
            if family not in values:
                values[family] = np.empty((ends[-1], fm.n_features))
                names[family] = fm.feature_names
            values[family][start:end] = fm.values
        del ws  # nor the filtered trial, when the next is produced
    labels = np.repeat(table.labels, counts)
    return {f: FeatureMatrix(v, names[f], labels) for f, v in values.items()}, failed


def _member(name: str, seed: int, family: str, train: FeatureMatrix,
            shared: dict[str, Pipeline]) -> Pipeline:
    """The row's pipeline `name`, fitted on train under its own cell seed. A
    SHARED pipeline is fitted once per row and kept in shared, so voting and
    bagging_svm reuse a sibling cell that ran, and fit one that did not."""
    if name in shared:
        return shared[name]
    pipeline = fit_pipeline(name, train, seed=cell_seed(seed, family, name),
                            member=lambda sibling: _member(sibling, seed, family, train, shared))
    if name in SHARED:
        shared[name] = pipeline
    return pipeline


def _run_row(config: BenchmarkConfig, class_names: list[str], family: str,
             train: FeatureMatrix, test: FeatureMatrix) -> tuple[list[EvaluationReport], dict]:
    """The reports of one family row's models, each trained on train and
    scored on test, and the error of each model that failed."""
    reports, errors, shared = [], {}, {}
    for model in config.models:
        try:
            t0 = time.perf_counter()
            pipeline = _member(model, config.seed, family, train, shared)
            t1 = time.perf_counter()
            predicted = pipeline.predict(test.values)
            timing = {"fit_seconds": t1 - t0, "predict_seconds": time.perf_counter() - t1}
            cm = ConfusionMatrix.from_labels(test.labels, predicted, class_names)
            reports.append(EvaluationReport(family=family, model=model, confusion=cm, timing=timing,
                                            seed=cell_seed(config.seed, family, model)))
        except Exception as exc:
            errors[(family, model)] = str(exc)
    return reports, errors


def _split_rows(config: BenchmarkConfig) -> tuple[list[str], list[tuple], dict]:
    """The class names, each family row's (family, train, test) features, and the
    error of each cell whose row failed. A function of its own, so that the unsplit
    feature matrices die when it returns, before the first fit."""
    table = trial_table(config)
    if config.subject_split and (n_subjects := np.unique(table.subjects).size) < 2:
        raise ConfigError(f"subject_split needs at least 2 subjects, the data has {n_subjects}")
    features, failed = extract_features(config, table)
    groups = None
    if config.subject_split:  # each window's subject
        groups = np.repeat(table.subjects, window_counts(table.fs, table.n_samples))

    # Every model of a family row trains and tests on the row's one split.
    rows: list[tuple[str, FeatureMatrix, FeatureMatrix]] = []
    errors = {(family, model): message for family, message in failed.items()
              for model in config.models}
    for family in list(features):
        fm = features.pop(family)  # so each unsplit matrix dies once it is split
        try:
            train_idx, test_idx = stratified_split(
                fm.labels, config.test_fraction, cell_seed(config.seed, family), groups=groups)
            rows.append((family, fm.select(train_idx), fm.select(test_idx)))
        except Exception as exc:  # a split failure fails the family's cells
            errors.update({(family, model): str(exc) for model in config.models})
    return list(table.class_names), rows, errors


def run_benchmark(config: BenchmarkConfig):
    """Execute every (family, model) cell.

    Returns (reports, errors); a failing cell lands in errors and does not
    abort the rest of the grid.
    """
    class_names, rows, errors = _split_rows(config)

    # One worker thread would get its own malloc heap, so --jobs 1 runs here.
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            futures = [pool.submit(_run_row, config, class_names, *row) for row in rows]
            results = [future.result() for future in futures]
    else:
        results = [_run_row(config, class_names, *row) for row in rows]
    reports = [report for row_reports, _ in results for report in row_reports]
    errors.update(error for _, row_errors in results for error in row_errors.items())
    return reports, errors


def render_table(families: Sequence[str], reports: list[EvaluationReport], errors: dict) -> str:
    """Per-family tables, in the order of families, with a row per model in
    the pipeline table's order and labels, listing only the cells that ran
    or failed."""
    by_cell = {(r.family, r.model): r for r in reports}
    lines = []
    for family in families:
        lines.append(f"=== {family} ===")
        lines.append(f"{'Models':<22}{'ACC':>8}{'P':>7}{'R':>7}{'F1':>7}")
        for model, name in MODEL_LABELS.items():
            if (family, model) in by_cell:
                r = by_cell[(family, model)]
                m = r.metrics
                lines.append(
                    f"{name:<22}{100 * m.accuracy:>8.2f}{m.macro_precision:>7.2f}"
                    f"{m.macro_recall:>7.2f}{m.macro_f1:>7.2f}"
                )
            elif (family, model) in errors:
                lines.append(f"{name:<22}  FAILED: {errors[(family, model)]}")
        lines.append("")
    return "\n".join(lines)


def render_csv(reports: list[EvaluationReport]) -> str:
    lines = ["family,model,accuracy,macro_precision,macro_recall,macro_f1"]
    for r in reports:
        m = r.metrics
        lines.append(
            f"{r.family},{r.model},{m.accuracy:.6f},{m.macro_precision:.6f},"
            f"{m.macro_recall:.6f},{m.macro_f1:.6f}"
        )
    return "\n".join(lines) + "\n"


def write_bundle(
    out_dir: str | Path,
    config: BenchmarkConfig,
    reports: list[EvaluationReport],
    errors: dict,
) -> None:
    """One JSON per cell plus the aggregate table (text and CSV) and the
    fully-resolved config."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for r in reports:
        path = out_dir / f"{r.family}_{r.model}.json"
        path.write_text(json.dumps(r.to_json_dict(), indent=2, sort_keys=True))
    (out_dir / "table.txt").write_text(render_table(config.families, reports, errors))
    (out_dir / "table.csv").write_text(render_csv(reports))
    (out_dir / "resolved_config.json").write_text(
        json.dumps(config.echo(), indent=2, sort_keys=True)
    )
    if errors:
        (out_dir / "errors.json").write_text(
            json.dumps({f"{f}:{m}": msg for (f, m), msg in errors.items()}, indent=2, sort_keys=True)
        )


def read_bundle(out_dir: str | Path) -> tuple[list[str], list[EvaluationReport], dict]:
    """The families, cell reports and errors of a bundle `write_bundle`
    wrote; each cell's metrics are recomputed from its confusion matrix. A
    file that is not JSON, or lacks or mistypes a field the table is built
    from, is a config error that names it."""
    out_dir = Path(out_dir)
    reports, errors, families = [], {}, None
    for path in sorted(out_dir.glob("*.json")):
        try:
            doc = json.loads(path.read_text())
            if path.name == "errors.json":
                errors = {tuple(cell.split(":")): message for cell, message in doc.items()}
                bad = [":".join(c) for c, m in errors.items() if len(c) != 2 or not isinstance(m, str)]
                if bad:
                    raise TypeError(f"{bad[0]!r} is not a family:model key with a message")
            elif path.name == "resolved_config.json":
                families = doc["families"]
                if not isinstance(families, list) or not all(isinstance(f, str) for f in families):
                    raise TypeError(f"families must be a list of strings, got {families!r}")
            elif "family" in doc and "model" in doc:
                reports.append(EvaluationReport.from_json_dict(doc))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise ConfigError(f"{path}: {detail}") from None
    if not reports and not errors:
        raise ConfigError(f"no cell reports found in {out_dir}")
    if families is None:
        raise ConfigError(f"{out_dir}: no resolved_config.json")
    return families, reports, errors
