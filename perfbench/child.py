"""One phase of a benchmark run in a fresh interpreter.

    python3 perfbench/child.py '<request as JSON>'

The request names the phase (setup, rep or check), the workload, the seed,
the size, the workload directory, whether to trace, and the file to write
the result to. A fresh process per phase keeps each rep's peak RSS its own
and makes setup pay for the imports, as a user's run does.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _blas_threads():
    """OpenBLAS thread count of the numpy in use, or None if not found."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def main() -> None:
    req = json.loads(sys.argv[1])
    root = Path(req["root"])
    sys.path.insert(0, str(root / "src"))
    wd, seed, size = Path(req["wd"]), req["seed"], req["size"]
    result: dict = {}

    import emgbench
    if Path(emgbench.__file__).resolve().parent != (root / "src" / "emgbench").resolve():
        raise SystemExit(f"emgbench imported from {emgbench.__file__}, not from {root / 'src'}")

    import tracing
    import workloads

    workload = workloads.WORKLOADS[req["workload"]]
    tracer = tracing.Tracer() if req["trace"] else None
    if tracer:
        tracing.install(tracer)

    if req["phase"] == "setup":
        t0 = time.perf_counter()
        workload.setup(wd, seed, size)
        # Seconds since the parent spawned this process: interpreter start,
        # imports and the build. CLOCK_MONOTONIC is shared by all processes.
        result["setup_s"] = time.monotonic() - req["spawned"]
        result["build_s"] = time.perf_counter() - t0
        import numpy
        import scipy

        result["env"] = {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": _blas_threads(),
        }
    elif req["phase"] == "rep":
        inputs = workload.prepare(wd, seed, size)
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        state = workload.run(wd, inputs)
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        result = {
            "wall_s": wall,
            "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            "peak_rss_mb": after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            **workload.summarize(wd, state),
        }
    else:
        result = workload.check(wd, seed, size, req["reps"])

    if tracer:
        Path(req["trace_out"]).write_text(json.dumps(tracer.to_json()))
    Path(req["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
