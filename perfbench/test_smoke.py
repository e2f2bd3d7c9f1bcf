"""Tests of the benchmark itself, on tiny inputs:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@functools.lru_cache(maxsize=None)
def _smoke(workload: str, trace: str) -> subprocess.CompletedProcess:
    return _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--size", "smoke")


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_its_checks_and_reports_every_metric(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == "1":
        self_s = sum(v for name, v in values.items() if name.endswith(".self_s"))
        assert self_s == pytest.approx(values["trace.wall_s"], rel=1e-9)
    else:
        assert all(v > 0 for v in values.values())


def test_benchmark_json_names_the_workloads_that_exist():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_the_tracer_produces_every_declared_per_layer_metric():
    """run.py reads the per-layer names from BENCHMARK.json and reports 0 for
    a name no span or counter produced; every name but these two must read
    nonzero on some workload, or it is misspelt or no longer traced."""
    may_be_zero = {"benchmark.cells_failed", "trace.overhead_s"}
    seen = set()
    for workload in run.WORKLOADS:
        proc = _smoke(workload, "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        seen |= {name for name, m in metrics.items() if m["value"] != 0}
    assert set(run.PER_LAYER) - may_be_zero - seen == set()


def test_exits_nonzero_without_printing_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "grid", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_bundle_digest_ignores_timing_only(tmp_path):
    cell = {"family": "ftdd", "model": "lda", "accuracy": 0.5, "timing": {"fit_seconds": 1.0}}
    (tmp_path / "table.csv").write_text("family,model\nftdd,lda\n")

    def digest(doc):
        (tmp_path / "ftdd_lda.json").write_text(json.dumps(doc))
        return workloads.bundle_digests(tmp_path)

    base = digest(cell)
    assert digest({**cell, "timing": {"fit_seconds": 2.0}}) == base
    assert digest({**cell, "accuracy": 0.75}) != base
