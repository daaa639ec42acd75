"""Spans around the public entry points of the scfold modules, installed from
outside the package, and the per-layer metrics derived from them.

A span records its name, start, end, parent and the exception that left it.
A function is patched at every module binding, so a name imported with
``from .germs import solve_germ`` is traced as well. Self time is a span's
duration minus the durations of its direct children; calls are nested on a
single thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# (module, attribute, span name). Methods are given as Class.method.
WRAPPED = (
    ("sc_core", "WeightedGridScale.diff", "sc_core.diff"),
    ("sc_core", "WeightedGridScale.norm", "sc_core.norm"),
    ("sc_core", "WeightedGridScale.gram", "sc_core.gram"),
    ("sc_core", "WeightedGridScale.embedding_constant", "sc_core.embedding_constant"),
    ("sc_core", "fredholm_split", "sc_core.fredholm_split"),
    ("sc_calculus", "sc1_probe", "sc_calculus.sc1_probe"),
    ("retracts", "retract_tangent_basis", "retracts.tangent_basis"),
    ("retracts", "retraction_check", "retracts.retraction_check"),
    ("germs", "solve_germ", "germs.solve_germ"),
    ("germs", "germ_from_map", "germs.germ_from_map"),
    ("germs", "solution_sheet", "germs.solution_sheet"),
    ("perturbation", "control_pair_build", "perturbation.control_pair_build"),
    ("perturbation", "solution_set", "perturbation.solution_set"),
    ("perturbation", "perturb_to_transversal", "perturbation.perturb_to_transversal"),
    ("perturbation", "cobordism_compare", "perturbation.cobordism_compare"),
    ("branched_integration", "integrate", "branched_integration.integrate"),
    ("branched_integration", "de_rham_pairing", "branched_integration.de_rham_pairing"),
    # the public groupoid functions run_groupoid uses, summed into one layer
    ("groupoids", "FiniteGroup.cyclic", "groupoids.cyclic"),
    ("groupoids", "EpGroupoid.from_translation_action", "groupoids.from_translation_action"),
    ("groupoids", "EpGroupoid.find_object", "groupoids.find_object"),
    ("groupoids", "EpGroupoid.identity", "groupoids.identity"),
    ("groupoids", "isotropy", "groupoids.isotropy"),
    ("groupoids", "natural_representation", "groupoids.natural_representation"),
    ("groupoids", "Functor.identity", "groupoids.functor_identity"),
    ("groupoids", "Diagram.from_functor", "groupoids.from_functor"),
    ("groupoids", "refinement_check", "groupoids.refinement_check"),
    ("groupoids", "compose_generalized", "groupoids.compose_generalized"),
    ("groupoids", "Diagram.orbit_map", "groupoids.orbit_map"),
    ("groupoids", "orbit_space", "groupoids.orbit_space"),
    ("groupoids", "OrbitSpace.orbit_count", "groupoids.orbit_count"),
    ("scenarios", "run_scenario", "scenarios.run_scenario"),
)

# metric -> unit, in report order; "<span>_s" is the summed self time and
# "<span>_calls" the number of spans of that name
PER_LAYER = {
    "sc_core.diff_s": "s",
    "sc_core.gram_s": "s",
    "sc_core.embedding_constant_s": "s",
    "sc_core.norm_calls": "count",
    "sc_core.norm_s": "s",
    "sc_core.fredholm_split_calls": "count",
    "sc_calculus.sc1_probe_s": "s",
    "retracts.tangent_basis_s": "s",
    "retracts.retraction_check_s": "s",
    "germs.solve_germ_calls": "count",
    "germs.solve_germ_s": "s",
    "germs.solve_germ_failed": "count",
    "germs.solve_germ_ok_ratio": "ratio",
    "germs.solve_germ_iters": "count",
    "germs.germ_from_map_calls": "count",
    "germs.solution_sheet_s": "s",
    "perturbation.control_pair_build_s": "s",
    "perturbation.solution_set_calls": "count",
    "perturbation.solution_set_s": "s",
    "perturbation.cobordism_compare_s": "s",
    "perturbation.transversal_attempts": "count",
    "branched_integration.integrate_calls": "count",
    "branched_integration.integrate_s": "s",
    "branched_integration.de_rham_pairing_s": "s",
    "groupoids.calls": "count",
    "groupoids.s": "s",
    "cli.overhead_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 for a root
    start: float = 0.0
    end: float = 0.0
    error: str | None = None  # class name of the exception that left it
    iterations: int | None = None  # SolveInfo.iterations of solve_germ

    def row(self):
        return [self.name, self.parent, self.start, self.end, self.error]


class Tracer:
    """Spans of one traced pass: install() patches the WRAPPED functions,
    uninstall() restores them."""

    def __init__(self):
        self.spans = []
        self.bindings = []  # "module.name" or "Class.method" patched
        self._open = []
        self._patches = []

    @contextmanager
    def span(self, name):
        span = Span(name, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self._open.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if name == "germs.solve_germ":
                    span.iterations = result[1].iterations
            return result
        return traced

    def _patch(self, owner, attr, value, label):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)
        self.bindings.append(label)

    def install(self):
        """Patch every target; module functions at every scfold module that
        binds them."""
        targets = {m: importlib.import_module(f"scfold.{m}") for m, _, _ in WRAPPED}
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "scfold" or k.startswith("scfold.")]
        for modname, path, name in WRAPPED:
            owner = targets[modname]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            raw = owner.__dict__[attr]
            if classes:
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._patch(owner, attr, wrapped, path)
                continue
            wrapped = self._wrap(name, raw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, wrapped,
                                    f"{mod.__name__.removeprefix('scfold.')}.{key}")

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def layer_metrics(spans):
    """Per-layer metrics of one pass from its spans, all but trace.*."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    own = [s.end - s.start - c for s, c in zip(spans, child)]
    self_s = defaultdict(float)
    calls = Counter()
    for s, t in zip(spans, own):
        self_s[s.name] += t
        calls[s.name] += 1

    def inside(i, name):
        while i >= 0:
            if spans[i].name == name:
                return True
            i = spans[i].parent
        return False

    out = {}
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition("_")
        if kind == "s":
            out[metric] = self_s[base]
        elif kind == "calls":
            out[metric] = calls[base]
    solves = [s for s in spans if s.name == "germs.solve_germ"]
    failed = sum(s.error == "NonConvergenceError" for s in solves)
    iters = [s.iterations for s in solves if s.iterations is not None]
    out.update({
        "groupoids.calls": sum(n for k, n in calls.items() if k.startswith("groupoids.")),
        "groupoids.s": sum(t for k, t in self_s.items() if k.startswith("groupoids.")),
        "germs.solve_germ_failed": failed,
        "germs.solve_germ_ok_ratio": (len(solves) - failed) / len(solves) if solves else 0.0,
        "germs.solve_germ_iters": statistics.median(iters) if iters else 0,
        "perturbation.transversal_attempts": sum(
            inside(s.parent, "perturbation.perturb_to_transversal")
            for s in spans if s.name == "perturbation.solution_set"),
        # an operation's own time around run_scenario: argument parsing,
        # config loading, JSON and artifact writes
        "cli.overhead_s": sum(own[s.parent] for s in spans
                              if s.name == "scenarios.run_scenario" and s.parent >= 0),
    })
    return {k: v for k, v in out.items() if not k.startswith("trace.")}
