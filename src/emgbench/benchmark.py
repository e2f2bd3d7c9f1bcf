"""Benchmark harness: runs the feature-family x classifier grid over a
dataset and renders the per-family results tables."""
from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .classify.pipeline import MODEL_NAMES, SHARED, Pipeline, fit_pipeline
from .evaluate import ConfusionMatrix, EvalError, EvaluationReport, metrics, stratified_split
from .features.extract import FAMILIES, FeatureMatrix, extract
from .features.tdd import TddParams
from .preprocess import bandpass, segment_records
from .signal_io import generate_synthetic, load_canonical_csv, load_manifest

MODEL_DISPLAY = {
    "lda": "LDA",
    "svm": "SVM",
    "knn": "KNN",
    "random_forest": "Random Forest",
    "voting": "Voting Ensemble",
    "bagging_knn": "Bagging KNN",
    "bagging_svm": "Bagging SVM",
    "adaboost": "AdaBoost",
}

_SYNTH_KEYS = {"n_classes", "n_channels", "fs", "trials_per_class", "trial_seconds"}
_BAND_KEYS = {"low", "high", "order"}


class ConfigError(ValueError):
    pass


@dataclass
class BenchmarkConfig:
    dataset: dict
    families: tuple[str, ...] = FAMILIES
    models: tuple[str, ...] = MODEL_NAMES
    seed: int = 0
    test_fraction: float = 0.2
    window_ms: float = 600.0
    overlap: float = 0.5
    band: tuple[float, float, int] = (20.0, 450.0, 8)
    jobs: int = 1
    tdd: TddParams = field(default_factory=TddParams)
    subject_split: bool = False

    def __post_init__(self):
        for fam in self.families:
            if fam not in FAMILIES:
                raise ConfigError(f"unknown feature family: {fam!r}")
        for m in self.models:
            if m not in MODEL_NAMES:
                raise ConfigError(f"unknown model: {m!r}")
        if set(self.dataset) not in ({"manifest"}, {"synthetic"}):
            raise ConfigError("dataset must have exactly one of 'manifest' or 'synthetic'")
        if "synthetic" in self.dataset:
            unknown = set(self.dataset["synthetic"]) - _SYNTH_KEYS
            if unknown:
                raise ConfigError(f"unknown synthetic keys: {sorted(unknown)}")
            missing = _SYNTH_KEYS - set(self.dataset["synthetic"])
            if missing:
                raise ConfigError(f"missing synthetic keys: {sorted(missing)}")
        if not (0 < self.test_fraction < 1):
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if type(self.jobs) is not int or self.jobs < 1:
            raise ConfigError(f"jobs must be an integer >= 1, got {self.jobs!r}")
        if not (isinstance(self.window_ms, (int, float)) and self.window_ms > 0):
            raise ConfigError(f"window_ms must be > 0, got {self.window_ms!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchmarkConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(doc)
        if "families" in kwargs:
            kwargs["families"] = tuple(kwargs["families"])
        if "models" in kwargs:
            kwargs["models"] = tuple(kwargs["models"])
        if "band" in kwargs:
            band = _section(kwargs["band"], "band", _BAND_KEYS)
            missing = _BAND_KEYS - set(band)
            if missing:
                raise ConfigError(f"missing band keys: {sorted(missing)}")
            kwargs["band"] = (float(band["low"]), float(band["high"]), int(band["order"]))
        if "tdd" in kwargs:
            tdd_keys = {f.name for f in fields(TddParams)}
            kwargs["tdd"] = TddParams(**_section(kwargs["tdd"], "tdd", tdd_keys))
        return cls(**kwargs)

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
            "window_ms": self.window_ms,
            "overlap": self.overlap,
            "band": {"low": self.band[0], "high": self.band[1], "order": self.band[2]},
            "subject_split": self.subject_split,
            "decisions": {
                "moment_exponent_k": self.tdd.k,
                "lambda_mode": self.tdd.lambda_mode,
                "eps": self.tdd.eps,
                "irf_standard": self.tdd.irf_standard,
                "averaging": "macro",
                "voting": "hard vote over the row's fitted svm, knn and random_forest cells, "
                "each under its own cell seed",
                "scaling": "z-score for lda/svm/knn/bagging; identity for tree ensembles",
                "split": "subject-wise" if self.subject_split else "stratified by window",
            },
        }


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


def _load_records(config: BenchmarkConfig):
    if "manifest" in config.dataset:
        manifest = load_manifest(config.dataset["manifest"])
        records = load_canonical_csv(config.dataset["manifest"])
        class_names = list(manifest.class_names)
    else:
        spec = config.dataset["synthetic"]
        records = generate_synthetic(seed=config.seed, **spec)
        class_names = [f"class{i}" for i in range(spec["n_classes"])]
    return records, class_names


def _subject_split(subjects: np.ndarray, test_fraction: float, seed: int):
    unique = sorted(set(subjects.tolist()))
    if len(unique) < 2:
        raise EvalError("subject-wise split needs at least 2 subjects")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(unique)
    n_test = max(1, int(round(len(unique) * test_fraction)))
    test_subjects = set(perm[:n_test].tolist())
    mask = np.array([s in test_subjects for s in subjects])
    return np.flatnonzero(~mask), np.flatnonzero(mask)


def run_benchmark(config: BenchmarkConfig):
    """Execute every (family, model) cell.

    Returns (reports, errors); a failing cell lands in errors and does not
    abort the rest of the grid.
    """
    records, class_names = _load_records(config)
    low, high, order = config.band
    filtered = [bandpass(rec, low, high, order) for rec in records]
    ws = segment_records(filtered, config.window_ms, config.overlap)
    window_subjects = np.array([rec.subject for rec in records])[ws.trial]

    # Every model of a family row trains and tests on the row's one split.
    partitions: dict[str, tuple[FeatureMatrix, FeatureMatrix]] = {}
    errors: dict[tuple[str, str], str] = {}
    for family in config.families:
        try:
            fm = extract(ws, family, config.tdd)
            split_seed = cell_seed(config.seed, family)
            if config.subject_split:
                train_idx, test_idx = _subject_split(
                    window_subjects, config.test_fraction, split_seed
                )
            else:
                train_idx, test_idx = stratified_split(fm.labels, config.test_fraction, split_seed)
            partitions[family] = fm.select(train_idx), fm.select(test_idx)
        except Exception as exc:  # a feature or split failure fails the family's cells
            for model in config.models:
                errors[(family, model)] = str(exc)

    def run_row(family: str) -> list[tuple[str, EvaluationReport | str]]:
        """Each model's report, or its error message, for one family row.

        The row fits each pipeline once, under its own cell seed: a
        composite cell reuses the row's fitted siblings, and fits one that
        has not run (or is not in the grid) itself. The row keeps the
        pipelines others build on until it ends, and no other."""
        train, test = partitions[family]
        fitted: dict[str, Pipeline] = {}

        def member(name: str) -> Pipeline:
            if name in fitted:
                return fitted[name]
            seed = cell_seed(config.seed, family, name)
            pipeline = fit_pipeline(name, train, seed=seed, member=member)
            if name in SHARED:
                fitted[name] = pipeline
            return pipeline

        def run_cell(model: str) -> EvaluationReport:
            t0 = time.perf_counter()
            pipeline = member(model)
            t1 = time.perf_counter()
            predicted = pipeline.predict(test.values)
            t2 = time.perf_counter()
            cm = ConfusionMatrix.from_labels(test.labels, predicted, class_names)
            return EvaluationReport(
                family=family,
                model=model,
                metrics=metrics(cm),
                confusion=cm,
                config=config.echo(),
                seed=cell_seed(config.seed, family, model),
                timing={"fit_seconds": t1 - t0, "predict_seconds": t2 - t1},
            )

        results = []
        for model in config.models:
            try:
                results.append((model, run_cell(model)))
            except Exception as exc:
                results.append((model, str(exc)))
        fitted.clear()  # member refers to itself, so only the cycle collector would free it
        return results

    rows = [family for family in config.families if family in partitions]
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(run_row, rows))
    else:
        results = [run_row(family) for family in rows]
    reports: list[EvaluationReport] = []
    for family, row in zip(rows, results):
        for model, outcome in row:
            if isinstance(outcome, str):
                errors[(family, model)] = outcome
            else:
                reports.append(outcome)
    return reports, errors


def render_table(reports: list[EvaluationReport], errors: dict | None = None) -> str:
    """Per-family tables in the row layout LDA .. AdaBoost, listing only the
    cells that ran or failed."""
    errors = errors or {}
    by_cell = {(r.family, r.model): r for r in reports}
    families = []
    for r in reports:
        if r.family not in families:
            families.append(r.family)
    for fam, _ in errors:
        if fam not in families:
            families.append(fam)
    lines = []
    for family in families:
        lines.append(f"=== {family} ===")
        lines.append(f"{'Models':<22}{'ACC':>8}{'P':>7}{'R':>7}{'F1':>7}")
        for model in MODEL_NAMES:
            name = MODEL_DISPLAY[model]
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
    (out_dir / "table.txt").write_text(render_table(reports, errors))
    (out_dir / "table.csv").write_text(render_csv(reports))
    (out_dir / "resolved_config.json").write_text(
        json.dumps(config.echo(), indent=2, sort_keys=True)
    )
    if errors:
        (out_dir / "errors.json").write_text(
            json.dumps({f"{f}:{m}": msg for (f, m), msg in errors.items()}, indent=2, sort_keys=True)
        )
