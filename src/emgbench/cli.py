"""Command-line entry point: synth, extract, train, bench, report.

Exit codes: 0 success, 1 benchmark cell failure, 2 usage/config error.
"""
from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  argparse's gettext imports it on the first parse; load it here
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark import (
    BenchmarkConfig,
    ConfigError,
    extract_features,
    read_bundle,
    read_config,
    render_table,
    run_benchmark,
    trial_table,
    write_bundle,
)
from .classify.pipeline import MODEL_NAMES, fit_pipeline
from .evaluate import ConfusionMatrix, metrics, stratified_split
from .features.extract import FAMILIES, FeatureMatrix
from .features.tdd import FeatureError
from .signal_io import CACHE_DIR, generate_synthetic, synthetic_table, write_dataset


def _write_run_config(out_dir: Path, args: argparse.Namespace) -> None:
    """Every run directory records its resolved arguments and versions."""
    doc = {k: v for k, v in vars(args).items() if k != "func"}
    doc["emgbench_version"] = __version__
    doc["python"] = sys.version.split()[0]
    (out_dir / "run_config.json").write_text(json.dumps(doc, indent=2, sort_keys=True, default=str))


def _clear_synth_output(out_dir: Path) -> None:
    """Remove what an earlier `synth` may have left in out_dir, so that none
    of it outlives the new dataset: its trials (.npy, or .csv from before
    trials were .npy), manifest, run config, and the CSV parse cache. Every
    other file stays."""
    for pattern in ("trial_*.npy", "trial_*.csv", "manifest.json", "run_config.json"):
        for path in out_dir.glob(pattern):
            if path.is_file() or path.is_symlink():
                path.unlink()
    cache = out_dir / CACHE_DIR
    if cache.is_dir() and not cache.is_symlink():
        shutil.rmtree(cache)


def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
        print(f"error: output directory {out_dir} is not empty (use --force)", file=sys.stderr)
        return 2
    if out_dir.is_dir():
        _clear_synth_output(out_dir)
    spec = dict(n_classes=args.classes, n_channels=args.channels, fs=args.fs,
                trials_per_class=args.trials, trial_seconds=args.seconds)
    table = synthetic_table(**spec)
    manifest = write_dataset(generate_synthetic(**spec, seed=args.seed), table.class_names, out_dir)
    _write_run_config(out_dir, args)
    print(f"wrote {len(table.labels)} trials and {manifest}")
    return 0


def cmd_extract(args) -> int:
    """One family's features of the manifest's trials, streamed as by `bench`."""
    config = BenchmarkConfig(dataset={"manifest": args.manifest}, families=(args.family,))
    features, failed = extract_features(config, trial_table(config))
    if failed:
        raise FeatureError(failed[args.family])
    fm = features[args.family]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    fm.to_csv(out)
    print(f"wrote {fm.n_rows} x {fm.n_features} feature matrix to {out}")
    return 0


def cmd_train(args) -> int:
    fm = FeatureMatrix.from_csv(args.features)
    train_idx, test_idx = stratified_split(fm.labels, args.test_fraction, args.seed)
    pipeline = fit_pipeline(args.model, fm.select(train_idx), seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    pipeline.save(out)
    test = fm.select(test_idx)
    classes = np.unique(fm.labels)  # scored over the labels present, however sparse
    true, predicted = np.searchsorted(classes, [test.labels, pipeline.predict(test.values)])
    cm = ConfusionMatrix.from_labels(true, predicted, [str(c) for c in classes])
    print(f"saved {args.model} to {out}; held-out accuracy {metrics(cm).accuracy:.4f}")
    return 0


_BENCH_FLAGS = ("families", "models", "seed", "test_fraction", "jobs", "subject_split")


def _config_from_args(args) -> BenchmarkConfig:
    """The config file (or the dataset of --manifest/--synthetic) with the
    flags given on the command line laid over it."""
    if args.config:
        doc = read_config(args.config)
    elif args.manifest:
        doc = {"dataset": {"manifest": args.manifest}}
    elif args.synthetic:
        doc = {"dataset": {"synthetic": json.loads(args.synthetic)}}
    else:
        raise ConfigError("one of --config, --manifest, or --synthetic is required")
    doc.update({k: getattr(args, k) for k in _BENCH_FLAGS if getattr(args, k) is not None})
    return BenchmarkConfig.from_dict(doc)


def cmd_bench(args) -> int:
    config = _config_from_args(args)
    reports, errors = run_benchmark(config)
    print(render_table(config.families, reports, errors))
    if args.out:
        out_dir = Path(args.out)
        write_bundle(out_dir, config, reports, errors)
        _write_run_config(out_dir, args)
        print(f"report bundle written to {out_dir}")
    return 1 if errors else 0


def cmd_report(args) -> int:
    """Re-render the aggregate table from a bundle (see `read_bundle`)."""
    print(render_table(*read_bundle(args.bundle)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emgbench", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--fs", type=float, default=2048.0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="filter, segment, and extract one feature family")
    p.add_argument("--manifest", required=True)
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="fit one model on a feature CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--model", choices=MODEL_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", dest="test_fraction", type=float, default=0.2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", help="run the feature x classifier benchmark grid")
    p.add_argument("--config", help="JSON benchmark config")
    p.add_argument("--manifest", help="dataset manifest path")
    p.add_argument("--synthetic", help="inline synthetic spec as JSON")
    p.add_argument("--families", nargs="+", choices=FAMILIES)
    p.add_argument("--models", nargs="+", choices=MODEL_NAMES)
    p.add_argument("--seed", type=int)
    p.add_argument("--test-fraction", dest="test_fraction", type=float)
    p.add_argument("--jobs", type=int)
    p.add_argument("--subject-split", dest="subject_split", action="store_true", default=None)
    p.add_argument("--out", help="report bundle output directory")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="re-render the table from a report bundle")
    p.add_argument("--bundle", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
