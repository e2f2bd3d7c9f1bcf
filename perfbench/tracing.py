"""Spans for the traced run, recorded from outside the program.

`install` wraps the layer functions wherever the program looks them up (the
defining module, `emgbench.benchmark` and `emgbench.cli`), so a traced phase
records one span per call. Spans stay in memory and are written out once,
when the phase ends; `reduce_phase` turns one phase's spans into per-layer
times and counts.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Spans (id, name, layer, start, end, parent) plus counters, in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": name.split(".", 1)[0],
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function in place. Counters are taken after
    the span closes, so their cost lands in `driver.self_s`."""
    # import_module, because `emgbench.features.extract` as an attribute is
    # the function the package re-exports, not the module.
    benchmark, pipeline, cli, evaluate, features, preprocess, signal_io = (
        importlib.import_module(f"emgbench.{name}")
        for name in (
            "benchmark", "classify.pipeline", "cli", "evaluate",
            "features.extract", "preprocess", "signal_io",
        )
    )

    def patch(home, attr, wrapper):
        original = getattr(home, attr)
        wrapped = functools.wraps(original)(wrapper(original))
        for module in (home, benchmark, cli):
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)

    def timed(name):
        return lambda fn: lambda *a, **k: tracer.call(name, fn, *a, **k)

    def load_canonical_csv(fn):
        def run(manifest_path):
            records = tracer.call("signal_io.load_s", fn, manifest_path)
            base = Path(manifest_path).parent
            for entry in signal_io.load_manifest(manifest_path).entries:
                tracer.counts["signal_io.bytes_read"] += (base / entry.path).stat().st_size
            return records
        return run

    def segment_records(fn):
        def run(*a, **k):
            ws = tracer.call("preprocess.segment_s", fn, *a, **k)
            tracer.counts["preprocess.windows"] += len(ws)
            return ws
        return run

    def extract(fn):
        def run(ws, family, *a, **k):
            fm = tracer.call(f"features.{family}_s", fn, ws, family, *a, **k)
            tracer.counts[f"features.{family}.columns"] = fm.n_features
            return fm
        return run

    def fit_pipeline(fn):
        return lambda name, *a, **k: tracer.call(f"classify.fit_s.{name}", fn, name, *a, **k)

    def run_benchmark(fn):
        def run(config):
            reports, errors = tracer.call("benchmark.run_s", fn, config)
            tracer.counts["benchmark.cells"] += len(reports) + len(errors)
            tracer.counts["benchmark.cells_failed"] += len(errors)
            return reports, errors
        return run

    def write_bundle(fn):
        def run(out_dir, *a, **k):
            tracer.call("benchmark.write_bundle_s", fn, out_dir, *a, **k)
            tracer.counts["benchmark.bundle_bytes"] += _dir_bytes(out_dir)
        return run

    patch(signal_io, "generate_synthetic", timed("signal_io.synth_s"))
    patch(signal_io, "load_canonical_csv", load_canonical_csv)
    patch(signal_io, "write_dataset", timed("signal_io.write_s"))
    patch(preprocess, "bandpass", timed("preprocess.bandpass_s"))
    patch(preprocess, "segment_records", segment_records)
    patch(features, "extract", extract)
    patch(evaluate, "stratified_split", timed("evaluate.split_s"))
    patch(evaluate, "metrics", timed("evaluate.metrics_s"))
    patch(pipeline, "fit_pipeline", fit_pipeline)
    patch(benchmark, "run_benchmark", run_benchmark)
    patch(benchmark, "write_bundle", write_bundle)

    fm_cls, pipe_cls = features.FeatureMatrix, pipeline.Pipeline
    to_csv, from_csv = fm_cls.to_csv, fm_cls.from_csv.__func__
    predict, save = pipe_cls.predict, pipe_cls.save

    def fm_to_csv(self, path):
        tracer.call("features.to_csv_s", to_csv, self, path)

    def fm_from_csv(cls, path):
        return tracer.call("features.from_csv_s", from_csv, cls, path)

    def pipe_predict(self, values):
        labels = tracer.call(f"classify.predict_s.{self.name}", predict, self, values)
        tracer.counts["classify.predict_rows"] += len(labels)
        return labels

    def pipe_save(self, path):
        tracer.call("classify.save_s", save, self, path)
        tracer.counts["classify.model_bytes"] += Path(path).stat().st_size

    fm_cls.to_csv = fm_to_csv
    fm_cls.from_csv = classmethod(fm_from_csv)
    pipe_cls.predict = pipe_predict
    pipe_cls.save = pipe_save


def reduce_phase(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced phase whose traced region took wall_s.

    Times are inclusive per span name, plus each layer's self time (its
    spans minus their child spans). `driver.self_s` is the part of wall_s
    that no span covers, so the layer self times and it sum to wall_s.
    """
    spans = trace["spans"]
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float, trace["counts"])
    covered = 0.0
    for s in spans:
        duration = s["end"] - s["start"]
        out[s["name"]] += duration
        out[f"{s['layer']}.self_s"] += duration - child_s[s["id"]]
        if s["parent"] is None:
            covered += duration
    for prefix in ("classify.fit_s.", "classify.predict_s."):
        total = prefix.rstrip(".")
        out[total] = sum(v for k, v in out.items() if k.startswith(prefix))
    out["trace.wall_s"] = wall_s
    out["driver.self_s"] = wall_s - covered
    return dict(out)
