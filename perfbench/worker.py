"""One benchmark process: import scfold from the checkout's src/, build the
workload, warm up, print ``ready``, then run closed-loop passes and print
their raw results as one JSON line.

Started by run.py, which times it from process start to ``ready`` for
setup_s. With --setup-only it exits after ``ready``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
# a pass is repeated at least this often, so every scenario summary is
# compared with the one of an earlier pass
MIN_PASSES = 2


def blas_info():
    """BLAS name, version and thread count as numpy reports and runs them."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads = int(getattr(handle, sym)())
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def machine():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), **blas_info()}


def speed_probe():
    """Median time of a fixed pure-Python loop, in ms: the machine's speed
    when the run was made, for reading its timings."""
    times = []
    for _ in range(15):
        t0 = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(perf_counter() - t0)
    return 1000 * statistics.median(times)


def measure(run_pass, ops, seconds, trace, min_passes, scratch):
    """Passes until the next one would end after `seconds`, at least
    `min_passes`. With tracing, passes alternate traced and untraced,
    starting traced."""
    passes = []
    start = perf_counter()
    longest = 0.0
    while True:
        tracer = tracing.Tracer() if trace and len(passes) % 2 == 0 else None
        if tracer:
            tracer.install()
        try:
            rows = run_pass(ops, scratch, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        wall = sum(r[1] for r in rows)
        entry = {"traced": tracer is not None, "pass_s": wall, "rows": rows}
        if tracer:
            entry["layers"] = tracing.layer_metrics(tracer.spans)
            last = tracer
        passes.append(entry)
        longest = max(longest, wall)
        if len(passes) >= min_passes and perf_counter() - start + longest > seconds:
            break
    result = {"passes": passes}
    if trace:
        result["bindings"] = last.bindings
        result["spans"] = [s.row() for s in last.spans]
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--min-passes", type=int, default=MIN_PASSES)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import scfold

    where = Path(scfold.__file__).resolve().parent
    if where != ROOT / "src" / "scfold":
        raise SystemExit(f"imported scfold from {where}, not from this checkout")
    import workloads  # imports scfold, so only once src/ is on the path

    scratch = OUT / f"tmp-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed)
        workloads.warm_up(scratch)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        probe = speed_probe()
        result = measure(workloads.run_pass, ops, args.seconds, bool(args.trace),
                         args.min_passes, scratch)
        result["probe_ms"] = [probe, speed_probe()]
        result["ops"] = [{"name": op.name, "timed": op.timed, "seed": op.seed}
                         for op in ops]
        result["machine"] = machine()
        if args.trace:
            path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps(result.pop("spans")), encoding="utf-8")
            result["spans_file"] = str(path.relative_to(ROOT))
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
