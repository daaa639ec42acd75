"""scfold benchmark: closed-loop workloads of in-process ``scfold run`` calls
and grid-kernel calls, one caller, one operation at a time.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads: solve (perturb, pairing), grid (grid kernels, shiftmap,
porkbarrel) and light (germ, stokes, groupoid, brokenpath). Each run starts
SETUP_REPEATS fresh worker processes; the last one measures. The report
ends with one JSON line {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics setup_s and pass_s, with --trace 1 the
per-layer metrics of a run whose passes alternate traced and untraced.
--smoke runs one traced pass of every workload as a self-test.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "grid", "light")
# setup_s is the median over this many fresh processes
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def start_worker(workload, seed, *extra):
    """Start a worker; returns (process, seconds from start to ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker for {workload} failed during setup")
    return proc, ready


def finish_worker(proc, expect_result=True):
    """Wait for a worker; returns the JSON of its last output line."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or (expect_result and not out.strip()):
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]) if expect_result else None


def summary(values):
    """(median, N, label and value of the highest percentile with at least
    ten samples above it, or None)."""
    n = len(values)
    if n < 11:
        return statistics.median(values), n, None
    rank = n - 10  # nearest rank: ten samples lie beyond the rank-th value
    return statistics.median(values), n, (f"p{100 * rank // n}", sorted(values)[rank - 1])


def fmt_row(name, unit, values):
    med, n, pct = summary(values)
    tail = f"{pct[0]} {pct[1]:.4f}" if pct else "no percentile (N < 11)"
    return f"  {name:<40} {med:12.6g} {unit:<6} N={n:<4} {tail}"


def count(result):
    rows = [r for p in result["passes"] for r in p["rows"]]
    return len(rows), [r for r in rows if not r[2]]


def measure(args):
    """SETUP_REPEATS fresh workers, all timed to ready; the last measures."""
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        proc, ready = start_worker(args.workload, args.seed, "--setup-only")
        setups.append(ready)
        finish_worker(proc, expect_result=False)
    proc, ready = start_worker(args.workload, args.seed, "--seconds", str(args.seconds),
                               "--trace", str(args.trace))
    setups.append(ready)
    return setups, finish_worker(proc)


def report(args, setups, result):
    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted, failures = count(result)
    m = result["machine"]
    print(f"scfold benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in m.items()))
    print("speed probe (fixed Python loop, ms) before/after the passes: "
          + " / ".join(f"{v:.1f}" for v in result["probe_ms"]))
    print("operations (scenario seed): " + ", ".join(
        f"{op['name']}({op['seed']})" for op in result["ops"]))
    print(f"correctness: {attempted - len(failures)} of {attempted} operations passed; "
          f"failed_frac {len(failures) / attempted:.4f}")
    for name, secs, _, detail in failures:
        print(f"  FAILED {name} after {secs:.3f} s: {detail}")

    metrics = {}
    if plain:
        print("end to end, tracing off:")
        print(fmt_row("setup_s", "s", setups))
        pass_s = [p["pass_s"] for p in plain]
        print(fmt_row("pass_s", "s", pass_s))
        for op in result["ops"]:
            if op["timed"]:
                times = [r[1] for p in plain for r in p["rows"] if r[0] == op["name"]]
                print(fmt_row(f"{op['name']}_s", "s", times))
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "pass_s": (statistics.median(pass_s), "s")}
    if args.trace:
        print("per layer, traced passes (medians):")
        layers = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers["trace.pass_s"] = statistics.median(p["pass_s"] for p in traced)
        if plain:
            layers["trace.overhead_s"] = layers["trace.pass_s"] - metrics["pass_s"][0]
        metrics = {k: (int(layers[k]) if u == "count" and layers[k] == int(layers[k])
                       else layers[k], u)
                   for k, u in tracing.PER_LAYER.items() if k in layers}
        for k, (v, u) in metrics.items():
            print(f"  {k:<40} {v:12.6g} {u}")
        print(f"  patched bindings: {', '.join(result['bindings'])}")
        print(f"  spans of the last traced pass: {result['spans_file']}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke():
    """One traced pass per workload. Beyond the operations' own gates, every
    workload must see solve_germ calls and time outside run_scenario: both
    pass only through patched `from .x import y` bindings."""
    ok = True
    for workload in WORKLOADS:
        t0 = perf_counter()
        proc, _ = start_worker(workload, 0, "--trace", "1", "--min-passes", "1")
        result = finish_worker(proc)
        attempted, failures = count(result)
        layers = result["passes"][0]["layers"]
        good = (not failures and layers["germs.solve_germ_calls"] > 0
                and layers["cli.overhead_s"] > 0)
        ok &= good
        print(f"smoke {workload}: {'ok' if good else 'FAILED'} "
              f"{attempted - len(failures)}/{attempted} operations, "
              f"{perf_counter() - t0:.1f} s, solve_germ "
              f"{layers['germs.solve_germ_failed']}/{layers['germs.solve_germ_calls']} "
              f"failed, cli overhead {layers['cli.overhead_s']:.4f} s")
        for name, _, _, detail in failures:
            print(f"  FAILED {name}: {detail}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one traced pass of every workload, as a self-test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    if not (ROOT / "src" / "scfold" / "__init__.py").is_file():
        print(f"no scfold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        setups, result = measure(args)
        line = report(args, setups, result)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
