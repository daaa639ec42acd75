"""Operations of the three benchmark workloads and their correctness gates.

An operation is either an in-process ``scfold run`` of one scenario or the
grid-kernel call sequence. Each returns ``(ok, detail)``; a failing
operation is counted, never dropped.

Scenario seeds. The solver scenarios (perturb, pairing, porkbarrel) cost
between 2 and 15 s depending on their seed (perturb: 3.0 s at seed 1, 15.3 s
at seed 3), so a seed drawn from the workload seed would make runs at
different workload seeds incomparable. They run at their default seed 0, the
seed of the ROADMAP baseline table. Every other input is drawn from the
workload seed: the germ scenario's operator, the grid-kernel vectors and the
embedding-report samples, and the seed passed to the scenarios whose cost
does not depend on it.
"""

from __future__ import annotations

import io
import shutil
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from scfold import cli
from scfold.sc_core import WeightedGridScale, embedding_report

SOLVER_SEED = 0

# the porkbarrel default scale, n = 2049
GRID_SCALE = (64.0, 1 / 16, (0.0, 0.01, 0.02, 0.03))
# embedding_constant(2) of GRID_SCALE from the dense generalized eigh; a
# faster eigensolver must agree within EMBEDDING_RTOL
EMBEDDING_REFERENCE = 0.9813500357805157
EMBEDDING_RTOL = 1e-6
# u' G_3 u against |u|_3^2; both are sums of the same positive terms
GRAM_RTOL = 1e-9


@dataclass
class Operation:
    name: str
    timed: bool  # gets its own per-operation median in the report
    run: object  # callable(out_dir: Path) -> (ok: bool, detail: str)
    seed: int | None = None


class ScenarioOp:
    """``scfold run <scenario>`` in process, gated on its exit code and on
    a summary byte-identical to the one of the first call."""

    def __init__(self, scenario, seed):
        self.scenario = scenario
        self.seed = seed
        self.reference = None

    def __call__(self, out_dir):
        argv = ["run", self.scenario, "--seed", str(self.seed),
                "--out", str(out_dir), "--quiet"]
        with redirect_stdout(io.StringIO()):  # the worker's stdout is its protocol
            rc = cli.main(argv)
        summary = (out_dir / f"{self.scenario}_summary.json").read_bytes()
        if self.reference is None:
            self.reference = summary
        if rc != 0:
            return False, f"exit code {rc}"
        if summary != self.reference:
            return False, "summary differs from the first pass"
        return True, ""


class GridKernelOp:
    """Fresh porkbarrel-size scale: norms at levels 0-3, gram(3) and
    embedding_report(scale, 2)."""

    def __init__(self, seed):
        self.seed = seed
        n = WeightedGridScale(*GRID_SCALE).n
        self.vectors = np.random.default_rng(seed).standard_normal((4, n))

    def __call__(self, out_dir):
        scale = WeightedGridScale(*GRID_SCALE)
        norms = [scale.norm(v, m) for m, v in enumerate(self.vectors)]
        u = self.vectors[3]
        quad = float(u @ (scale.gram(3) @ u))
        rep = embedding_report(scale, 2, seed=self.seed)
        if not rep.passed:
            return False, f"embedding report violated: {rep.max_ratio} > {rep.constant}"
        if abs(rep.constant - EMBEDDING_REFERENCE) > EMBEDDING_RTOL * EMBEDDING_REFERENCE:
            return False, f"embedding constant {rep.constant!r} != {EMBEDDING_REFERENCE!r}"
        if abs(quad - norms[3] ** 2) > GRAM_RTOL * norms[3] ** 2:
            return False, f"u'G_3u = {quad!r} but |u|_3^2 = {norms[3] ** 2!r}"
        return True, ""


def build(workload, seed):
    """Operations of one pass, in order; every pass repeats the same inputs."""
    def scenario(name, timed, s):
        return Operation(name, timed, ScenarioOp(name, s), s)

    if workload == "solve":
        return [scenario("perturb", True, SOLVER_SEED),
                scenario("pairing", True, SOLVER_SEED)]
    if workload == "grid":
        return [Operation("grid_kernels", True, GridKernelOp(seed), seed),
                scenario("shiftmap", True, seed),
                scenario("porkbarrel", True, SOLVER_SEED)]
    if workload == "light":
        return [scenario("germ", True, seed),
                scenario("stokes", True, seed),
                scenario("groupoid", False, seed),
                scenario("brokenpath", False, seed)]
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(scratch):
    """Untimed, part of setup: one germ run. Without it the first porkbarrel
    run in a process took 3.0 s and later ones 2.2 s; after it the first run
    took 2.1 s (2 cores, OpenBLAS 0.3.31 with 2 threads). Its outcome is not
    an operation's: a failing germ scenario shows in the light workload."""
    out = scratch / "warm-up"
    with redirect_stdout(io.StringIO()):
        cli.main(["run", "germ", "--seed", "0", "--out", str(out), "--quiet"])
    shutil.rmtree(out, ignore_errors=True)


def run_pass(ops, scratch, tracer=None):
    """One closed-loop pass: each operation starts when the previous one
    has returned. Returns [(name, seconds, ok, detail)]."""
    rows = []
    for op in ops:
        out = scratch / op.name
        span = tracer.span(f"op.{op.name}") if tracer else nullcontext()
        t0 = perf_counter()
        try:
            with span:
                ok, detail = op.run(out)
        except Exception as exc:  # a raising operation is a failed one
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        shutil.rmtree(out, ignore_errors=True)
        rows.append((op.name, elapsed, ok, detail))
    return rows
