"""emgbench benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

Run from the repository root; the program is imported from `src/`. The
workload's inputs are built from --seed (which is also the grid and split
seed) and then timed repeatedly for about --seconds, each timed rep in a
fresh interpreter at --jobs 1; with --trace 0 further setups are spread
over that window, for a median setup time. With --trace 0 the last line
of stdout is a JSON object with the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced setup and traced reps, which
alternate with untraced ones to measure the tracing overhead. The line
before it records the environment and the output digests. The exit code is
0 only when every correctness check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import reduce_phase

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# BENCHMARK.json is the one list of workloads and metrics; the per-layer
# names are the ones tracing.reduce_phase produces.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Per size: setups per run (--trace 0), the fewest timed reps (--trace 0) or
# untraced/traced pairs (--trace 1) whatever --seconds says, and the seconds
# after which a run gives up. A bench run must end within 180 s.
RUNS = {
    "smoke": {"setups": 2, "min_reps": 2, "min_pairs": 1, "limit_s": 170.0},
    "bench": {"setups": 5, "min_reps": 4, "min_pairs": 2, "limit_s": 170.0},
    "reference": {"setups": 1, "min_reps": 2, "min_pairs": 1, "limit_s": 1800.0},
}


class ChildError(RuntimeError):
    pass


class Runner:
    """Spawns the phases of one run in child interpreters under a deadline."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload, self.seed, self.size = workload, seed, size
        self.wd = WORK / workload
        self.deadline = time.monotonic() + RUNS[size]["limit_s"]
        # One BLAS thread: on a small shared host a second BLAS thread waits
        # on a busy core and makes wall time swing; the workloads run at
        # --jobs 1, so the run then uses one core throughout.
        self.env = dict(
            os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"
        )
        self.n = 0

    def phase(self, phase: str, trace: bool = False, **extra) -> tuple[dict, dict | None, float]:
        """Run one phase; return its result, its spans (if traced) and the
        seconds from spawn to exit."""
        self.n += 1
        out = self.wd / f"{self.n:03d}-{phase}{'-traced' if trace else ''}.json"
        trace_out = out.with_suffix(".trace.json")
        request = {
            "phase": phase, "workload": self.workload, "seed": self.seed, "size": self.size,
            "root": str(ROOT), "wd": str(self.wd), "trace": trace, "out": str(out),
            "trace_out": str(trace_out), **extra,
        }
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildError(f"no time left for the {phase} phase")
        request["spawned"] = start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(request)],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise ChildError(f"{phase} phase did not end before the run's deadline") from None
        elapsed = time.monotonic() - start
        if proc.returncode != 0:
            raise ChildError(f"{phase} phase exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        spans = json.loads(trace_out.read_text()) if trace else None
        return json.loads(out.read_text()), spans, elapsed

    def rep(self, trace: bool = False):
        shutil.rmtree(self.wd / "bundle", ignore_errors=True)
        return self.phase("rep", trace)


def _git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(child_env: dict) -> dict:
    """Where the numbers were taken; child_env has the numpy, scipy and BLAS
    thread count that a setup phase saw."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **child_env,
        "git_sha": _git_sha(),
    }


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    """Execute one benchmark run, print its record and result; return the
    exit code."""
    plan = RUNS[size]
    runner = Runner(workload, seed, size)
    shutil.rmtree(runner.wd, ignore_errors=True)
    runner.wd.mkdir(parents=True)

    setups = [runner.phase("setup", trace)]
    n_setups = 1 if trace else plan["setups"]

    reps, traced, executed, durations = [], [], [], []
    measure_start = time.monotonic()
    least = plan["min_pairs"] if trace else plan["min_reps"]
    while True:
        estimate = statistics.median(durations) if durations else 0.0
        now = time.monotonic()
        over = now - measure_start + estimate > seconds
        if len(durations) >= least and (over or now + 2 * estimate >= runner.deadline):
            break
        rep, _, took = runner.rep()
        reps.append(rep)
        executed.append(rep)
        if trace:
            rep_t, spans, took_t = runner.rep(trace=True)
            traced.append((rep_t, spans))
            executed.append(rep_t)
            took += took_t
        durations.append(took)
        due = len(setups) * seconds / n_setups
        if len(setups) < n_setups and time.monotonic() - measure_start >= due:
            # The further setups are spread evenly over the timed window, so
            # that their median samples the host across the run, not at one
            # moment; they rebuild the same inputs and do not count against
            # --seconds.
            t0 = time.monotonic()
            setups.append(runner.phase("setup"))
            measure_start += time.monotonic() - t0
    setups += [runner.phase("setup") for _ in range(n_setups - len(setups))]

    check, _, _ = runner.phase("check", reps=executed)
    attempted = sum(r["ops"] for r in executed) + check["ops"]
    failed = sum(r["failed"] for r in executed) + len(check["failures"])
    for failure in check["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)

    if trace:
        setup, setup_spans, _ = setups[0]
        parts = [reduce_phase(setup_spans, setup["build_s"])]
        per_rep = [reduce_phase(spans, r["wall_s"]) for r, spans in traced]
        parts.append({k: _mean([p.get(k, 0.0) for p in per_rep]) for k in PER_LAYER})
        values = {k: sum(p.get(k, 0.0) for p in parts) for k in PER_LAYER}
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r, _ in traced)
            - statistics.median(r["wall_s"] for r in reps)
        )
        units = PER_LAYER
    else:
        f1 = check.get("f1") or [f for r in reps for f in r.get("f1", [])]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "setup_s": statistics.median(s["setup_s"] for s, _, _ in setups),
            "success_rate": (attempted - failed) / attempted,
            "macro_f1": _mean(f1),
        }
        units = END_TO_END

    record = {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "environment": environment(setups[0][0]["env"]),
        "setups": len(setups), "reps": len(reps), "traced_reps": len(traced),
        "rep_wall_s": [r["wall_s"] for r in reps],
        "setup_s": [s["setup_s"] for s, _, _ in setups],
        "digests": {k: reps[0][k] for k in ("bundle_digest", "table_digest") if k in reps[0]},
        "failures": check["failures"],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    (runner.wd / "result.json").write_text(json.dumps({**record, "result": result}, indent=2))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=tuple(RUNS), default="bench",
        help="smoke: tiny inputs for the benchmark's own tests; reference: "
             "the ROADMAP reference grid, too slow for the 180 s run limit",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "emgbench" / "__init__.py").is_file():
        print(f"error: no emgbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
