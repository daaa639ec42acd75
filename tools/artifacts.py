"""Scenario artifact writer, built on the standard library and scfold only.

Runs every catalog scenario at every given seed, as ``scfold run NAME --seed
SEED --out OUT/NAME-SEED --quiet`` would, in this one process. Comparing two
commits is then one command per checkout and a ``diff -r`` of the two output
trees. It is a tool, not a test: tier-1 does not run it.

    python tools/artifacts.py OUT --seeds 0-9
    python tools/artifacts.py OUT --seeds 0,3,5
    python tools/artifacts.py OUT --seeds 0-9 --demos

With ``--demos`` it also runs every script in demos/ and writes what it
prints to ``OUT/demos/<name>.txt``, so the same ``diff -r`` compares them.

BLAS runs on one thread (set before numpy loads, unless the environment says
otherwise), so that dense factorizations sum in one order. Each run prints
``NAME-SEED pass`` or ``NAME-SEED FAIL``; the exit status is 1 when any
scenario check failed or any run raised, 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_seeds(text):
    """Seeds from a comma-separated list of integers and inclusive ranges a-b."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output root")
    parser.add_argument("--seeds", type=parse_seeds, default=[0],
                        help="seeds, e.g. 0-9 or 0,3,5 (default 0)")
    parser.add_argument("--demos", action="store_true",
                        help="also write each demo's output to OUT/demos/NAME.txt")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from scfold.cli import main as scfold_main
    from scfold.scenarios import SCENARIOS

    status = 0
    for name in SCENARIOS:
        for seed in args.seeds:
            out = args.out / f"{name}-{seed}"
            code = scfold_main(["run", name, "--seed", str(seed),
                                "--out", str(out), "--quiet"])
            print(f"{name}-{seed} {'pass' if code == 0 else 'FAIL'}", flush=True)
            status = status or int(code != 0)
    if args.demos:
        (args.out / "demos").mkdir(parents=True, exist_ok=True)
        for path in sorted((ROOT / "demos").glob("*.py")):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                runpy.run_path(str(path), run_name="__main__")
            (args.out / "demos" / f"{path.stem}.txt").write_text(printed.getvalue())
            print(f"demos/{path.stem} done", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
