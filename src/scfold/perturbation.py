"""Strong bundles with bi-level filtration, multisections and transversal search.

Bundle elements carry a base level m and a fiber level k constrained by
k <= m+1; plain sections land at (m, m), one-level-up sections at (m, m+1) and
form the admissible class of perturbations. Multisection weights are exact
rationals end to end: convolution, norms and solution counts never leave
fractions. Compactness certification is sample-based and says so in its
report; perturbation directions are drawn from cokernel bases at failing
solutions rather than blind randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _fd
from ._text import json_text
from .errors import (
    AmbiguousRankError,
    BiLevelError,
    ConfigError,
    ExhaustedAttemptsError,
    NotASolutionError,
    UnchartedPointError,
    check_keys,
    read_config,
)
from .germs import fixed_points, germ_from_map, solve_germ
from .retracts import good_position_check
from .sc_core import FiniteDimScale, PartialQuadrant, fredholm_split

FIBER_MATCH_TOL = 1e-9
# the stricter surjectivity floor of the transversal search: solutions whose
# smallest singular value is at most this count as failing
SUSPECT_FLOOR = 1e-4
# residual at which a corrector point counts as a zero
CORRECTOR_ACCEPT_TOL = 1e-8
# kernel-grid points per positive-index solution patch, and sample points of
# a chart with zero-dimensional fiber
CURVE_SAMPLES = 33


@dataclass
class BundleChart:
    """One chart of a strong bundle: a base domain with a fiber scale."""

    name: str
    domain: object  # ScDomain
    fiber: object   # ScScale; dimension zero is allowed

    @property
    def base_scale(self):
        return self.domain.scale

    def fiber_dim(self):
        return self.fiber.dim(0)


class StrongBundleModel:
    """Charted strong bundle with the double filtration 0 <= k <= m+1."""

    def __init__(self, charts, name="bundle"):
        self.charts = {c.name: c for c in charts}
        self.fiber_dims = {c.name: c.fiber_dim() for c in charts}
        self.name = name

    def chart(self, chart_id):
        if chart_id not in self.charts:
            raise UnchartedPointError(f"no chart named {chart_id!r}")
        return self.charts[chart_id]

    def element(self, chart_id, base, base_level, fiber, fiber_level):
        return BundleElement(self, chart_id, np.asarray(base, dtype=float),
                             base_level, np.asarray(fiber, dtype=float), fiber_level)


@dataclass
class BundleElement:
    model: StrongBundleModel
    chart_id: str
    base: np.ndarray
    base_level: int
    fiber: np.ndarray
    fiber_level: int

    def __post_init__(self):
        if not (0 <= self.fiber_level <= self.base_level + 1):
            raise BiLevelError(
                f"fiber level {self.fiber_level} violates k <= m+1 with "
                f"base level {self.base_level}"
            )
        chart = self.model.chart(self.chart_id)
        if not chart.domain.contains(self.base, 0):
            raise UnchartedPointError("base point outside the chart domain")


class BundleSection:
    """Base-to-fiber evaluator with a declared class tag.

    tag "sc" maps level m to bi-level (m, m); tag "sc_plus" to (m, m+1).
    fn(chart_id, x) evaluates rows: x of shape (..., d) gives values of shape
    (..., fiber_dim), and a 1-D x is the one-row case. jac(chart_id, x), when
    given, is the chart Jacobian of fn at the rows of x, shape
    (..., fiber_dim, d).
    """

    def __init__(self, model, fn, tag="sc", jac=None, name="section"):
        if tag not in ("sc", "sc_plus"):
            raise ValueError(f"unknown section tag {tag!r}")
        self.model = model
        self.fn = fn
        self.tag = tag
        self.jac = jac
        self.name = name

    def __call__(self, chart_id, base):
        base = np.asarray(base, dtype=float)
        value = np.asarray(self.fn(chart_id, base), dtype=float)
        return _fd.check_rows(base, value, (self.model.fiber_dims[chart_id],),
                              "section {!r}", self.name, arg="x")

    def derivative_matrix(self, chart_id, base, step=_fd.JACOBIAN_STEP):
        """The fiber_dim x d Jacobian at each row of base: jac's array from
        one call, or central differences of fn at the given step (one per
        row, or one for all) for a section without a jac."""
        out_dim = self.model.fiber_dims[chart_id]
        if self.jac is None:
            return _fd.jacobian(lambda z: self(chart_id, z), base, out_dim, step)
        base = np.asarray(base, dtype=float)
        return _fd.check_rows(base, self.jac(chart_id, base), (out_dim, base.shape[-1]),
                              "section {!r}", self.name, arg="x")


def zero_section(model, tag="sc_plus", name="zero"):
    """The zero section; its serial kind, not its name, marks it as zero."""
    dims = model.fiber_dims
    sec = BundleSection(
        model, lambda cid, x: np.zeros(x.shape[:-1] + (dims[cid],)), tag=tag,
        jac=lambda cid, x: np.zeros(x.shape[:-1] + (dims[cid], x.shape[-1])),
        name=name)
    sec.serial_kind = "zero"
    return sec


@dataclass
class BiLevelReport:
    rows: list  # (chart_id, base_level, fiber_diag, required, ok)

    @property
    def passed(self):
        return all(r[-1] for r in self.rows)


def bilevel_check(section, samples):
    """Verify the declared class tag on samples (chart_id, base, base_level).

    The fiber regularity is estimated with the fiber scale's diagnostic; plain
    sections need fiber level m, one-level-up sections need m+1.
    """
    rows = []
    for chart_id, base, m in samples:
        chart = section.model.chart(chart_id)
        v = section(chart_id, base)
        required = m + 1 if section.tag == "sc_plus" else m
        cap = min(m + 1, chart.fiber.max_level)
        diag = chart.fiber.regularity_level(v, cap=cap)
        ok = diag >= min(required, cap)
        rows.append((chart_id, m, diag, required, ok))
    return BiLevelReport(rows)


@dataclass
class RegularizingReport:
    rows: list  # (chart_id, base_level m, fiber_diag, base_diag, ok)
    counterexamples: list

    @property
    def passed(self):
        return not self.counterexamples


def regularizing_check(section, samples):
    """Whenever the section value is admissible one level up, the base point
    must already carry that extra level; counterexamples are reported."""
    rows = []
    bad = []
    for chart_id, base, m in samples:
        chart = section.model.chart(chart_id)
        v = section(chart_id, base)
        cap_f = min(m + 1, chart.fiber.max_level)
        fiber_diag = chart.fiber.regularity_level(v, cap=cap_f)
        cap_b = min(m + 1, chart.base_scale.max_level)
        base_diag = chart.base_scale.regularity_level(base, cap=cap_b)
        if fiber_diag >= m + 1 and cap_f >= m + 1:
            ok = base_diag >= min(m + 1, cap_b)
        else:
            ok = True  # hypothesis not triggered
        rows.append((chart_id, m, fiber_diag, base_diag, ok))
        if not ok:
            bad.append((chart_id, m, fiber_diag, base_diag))
    return RegularizingReport(rows, bad)


class AuxiliaryNorm:
    """Fiber-wise norm on the (0, 1) part of the bundle."""

    def __init__(self, model, norm_fn=None):
        self.model = model
        self.norm_fn = norm_fn

    def __call__(self, chart_id, fiber_coeffs):
        if self.norm_fn is not None:
            return float(self.norm_fn(chart_id, np.asarray(fiber_coeffs, dtype=float)))
        fiber = self.model.chart(chart_id).fiber
        level = min(1, fiber.max_level)
        return fiber.norm(fiber_coeffs, level)

    def verify_axioms(self, chart_id, sample_count=64, seed=0):
        """Positive homogeneity and triangle inequality on sampled fiber pairs,
        each within 1e-10 (relative to 1 + |a| for homogeneity)."""
        rng = np.random.default_rng(seed)
        d = self.model.chart(chart_id).fiber_dim()
        for _ in range(sample_count):
            a = rng.standard_normal(d)
            b = rng.standard_normal(d)
            t = abs(rng.standard_normal())
            if abs(self(chart_id, t * a) - t * self(chart_id, a)) > 1e-10 * (1 + self(chart_id, a)):
                return False
            if self(chart_id, a + b) > self(chart_id, a) + self(chart_id, b) + 1e-10:
                return False
        return True


# ---------------------------------------------------------------------------
# multisections


class Multisection:
    """Finite weighted family of one-level-up sections per chart.

    Weights are exact rationals summing to one; evaluation adds the weights of
    branches passing through a bundle element within the fiber tolerance.
    """

    def __init__(self, model, branches, name="multisection"):
        self.model = model
        self.name = name
        self.branches = []
        self._solution_sets = {}
        total = Fraction(0)
        for section, weight in branches:
            w = Fraction(weight)
            if w <= 0:
                raise ValueError("weights must be positive rationals")
            if section.tag != "sc_plus":
                raise ValueError("multisection branches must be one-level-up sections")
            self.branches.append((section, w))
            total += w
        if total != 1:
            raise ValueError(f"weights must sum to one exactly, got {total}")

    @classmethod
    def zero(cls, model):
        return cls(model, [(zero_section(model), Fraction(1))], name="zero")

    def is_zero(self):
        return all(getattr(s, "serial_kind", None) == "zero" for s, _ in self.branches)

    def eval(self, element):
        """Total weight of branches through the element; empty sum is zero."""
        chart = self.model.chart(element.chart_id)
        total = Fraction(0)
        for section, w in self.branches:
            v = section(element.chart_id, element.base)
            if chart.fiber.norm(v - element.fiber, 0) <= FIBER_MATCH_TOL:
                total += w
        return total

    def norm(self, aux_norm, chart_id, base):
        """Max of the auxiliary norm over branch values at the point."""
        vals = [aux_norm(chart_id, s(chart_id, base)) for s, _ in self.branches]
        return max(vals) if vals else 0.0

    def support_inside(self, region, sample_points):
        """True when every branch vanishes at the sampled points outside the region."""
        for chart_id, x in sample_points:
            if region.contains(chart_id, x):
                continue
            for s, _ in self.branches:
                v = s(chart_id, x)
                if np.linalg.norm(v) > FIBER_MATCH_TOL:
                    return False
        return True

    def describe(self):
        """Structured text form: branch kind, parameters and rational weight."""
        rows = []
        for section, w in self.branches:
            kind = getattr(section, "serial_kind", None)
            params = getattr(section, "serial_params", None)
            rows.append({
                "kind": kind or "opaque",
                "name": section.name,
                "params": params,
                "weight": str(w),
            })
        return json_text({"schema": "multisection/1", "branches": rows})


def constant_branch_section(model, value, name=None):
    """One-level-up section with a constant fiber value; serializable."""
    v = np.atleast_1d(np.asarray(value, dtype=float))
    sec = BundleSection(
        model, lambda cid, x: np.tile(v, x.shape[:-1] + (1,)), tag="sc_plus",
        jac=lambda cid, x: np.zeros(x.shape[:-1] + (v.size, x.shape[-1])),
        name=name or f"const{v.tolist()}")
    sec.serial_kind = "constant"
    sec.serial_params = {"value": v.tolist()}
    return sec


def multisection_from_config(model, text_or_dict):
    """Load a multisection of constant and zero branches from structured text."""
    cfg = read_config(text_or_dict, {"schema", "branches"}, "multisection keys")
    branches = []
    for row in cfg.get("branches", []):
        check_keys(row, {"kind", "name", "params", "weight"}, "branch keys")
        kind = row.get("kind")
        if kind == "constant":
            sec = constant_branch_section(model, row["params"]["value"],
                                          name=row.get("name"))
        elif kind == "zero":
            sec = zero_section(model, name=row.get("name", "zero"))
        else:
            raise ConfigError(f"unknown branch kind {kind!r}")
        branches.append((sec, Fraction(row["weight"])))
    return Multisection(model, branches)


def multisection_sum(l1, l2):
    """Convolution sum: branch sums with multiplied weights, coinciding
    branches merged by pointwise comparison on a fixed sample set: five points
    per chart, center + 0.3 N(0, I) drawn with seed 7, branches counting as
    equal within FIBER_MATCH_TOL."""
    if l1.model is not l2.model:
        raise ValueError("multisections live on different bundle models")
    model = l1.model
    merge_samples = []
    for cid, chart in model.charts.items():
        center = chart.domain.center
        d = center.size
        rng = np.random.default_rng(7)
        for _ in range(5):
            merge_samples.append((cid, center + 0.3 * rng.standard_normal(d)))

    new = [(_branch_sum(model, s1, s2), w1 * w2)
           for s1, w1 in l1.branches for s2, w2 in l2.branches]

    merged = []
    for sec, w in new:
        hit = None
        for i, (other, _) in enumerate(merged):
            same = True
            for cid, x in merge_samples:
                if np.linalg.norm(sec(cid, x) - other(cid, x)) > FIBER_MATCH_TOL:
                    same = False
                    break
            if same:
                hit = i
                break
        if hit is None:
            merged.append((sec, w))
        else:
            merged[hit] = (merged[hit][0], merged[hit][1] + w)
    return Multisection(model, merged, name=f"{l1.name}⊕{l2.name}")


def _branch_sum(model, a, b):
    """a + b named "a+b", built as a zero or constant branch when both are
    zero or constant, so that the sum serializes; else their _combination."""
    name = f"{a.name}+{b.name}"
    kinds = {getattr(a, "serial_kind", None), getattr(b, "serial_kind", None)}
    if kinds == {"zero"}:
        return zero_section(model, name=name)
    if kinds <= {"zero", "constant"}:
        value = sum(np.asarray(s.serial_params["value"]) for s in (a, b)
                    if s.serial_kind == "constant")
        return constant_branch_section(model, value, name=name)
    return _combination(model, a, b, 1.0, 1.0, name)


def _combination(model, a, b, wa, wb, name):
    """One-level-up section wa a + wb b; its jac is wa a.jac + wb b.jac when
    both a and b have a jac, and it has none otherwise."""
    def fn(cid, x):
        return wa * a(cid, x) + wb * b(cid, x)

    def jac(cid, x):
        return wa * a.jac(cid, x) + wb * b.jac(cid, x)

    both = a.jac is not None and b.jac is not None
    return BundleSection(model, fn, tag="sc_plus", jac=jac if both else None,
                         name=name)


def multisection_norm(l, aux_norm, chart_id, base):
    return l.norm(aux_norm, chart_id, base)


# ---------------------------------------------------------------------------
# compactness control


@dataclass
class ControlRegion:
    balls: dict  # chart_id -> list of (center, radius)

    def contains(self, chart_id, x):
        return self.interior_margin(chart_id, x) >= 0

    def interior_margin(self, chart_id, x):
        x = np.asarray(x, dtype=float)
        best = -np.inf
        for center, radius in self.balls.get(chart_id, []):
            best = max(best, radius - np.linalg.norm(x - center))
        return best


@dataclass
class ControlPair:
    region: ControlRegion
    aux_norm: AuxiliaryNorm
    report: dict

    def __post_init__(self):
        # perturb_to_transversal's results, keyed by (f, epsilon, seed)
        self._transversal = {}

    @property
    def certified(self):
        return self.report.get("certified", False)


def control_pair_build(f, aux_norm, margin=0.5, seed=0):
    """Neighborhood of the sampled zero set certified by sublevel sampling.

    Zeros are found per chart by the Gauss-Newton corrector from 24 seeded
    starts; the region is the union of balls of the given margin around them.
    The certificate checks, on 200 samples per chart split evenly over its
    balls, that the unit sublevel set of the auxiliary norm of the section
    inside the closed region stays at positive distance from the region
    boundary. A zero farther from the chart center than 0.9 of the chart
    radius means the zero set escapes the window and certification fails.
    The certificate is a sampling surrogate and records its seeds.
    """
    model = f.model
    rng = np.random.default_rng(seed)
    balls = {}
    escaped = []
    for cid, chart in model.charts.items():
        if chart.fiber_dim() == 0:
            found = [chart.domain.center.copy()]
        else:
            found = _seeded_zeros(lambda z: f(cid, z),
                                  lambda z, h: f.derivative_matrix(cid, z, h),
                                  chart, 24, rng)
        for x_sol in found:
            if np.linalg.norm(x_sol - chart.domain.center) > 0.9 * _chart_radius(chart):
                escaped.append((cid, x_sol))
            balls.setdefault(cid, []).append((x_sol, margin))
    region = ControlRegion(balls)
    stray = []
    for cid, blist in balls.items():
        chart = model.charts[cid]
        if chart.fiber_dim() == 0:
            continue
        for center, radius in blist:
            # one draw per ball, the numbers of one draw per sample
            xs = center + radius * rng.uniform(-1, 1, (200 // len(blist), center.size))
            for x, fx in zip(xs, f(cid, xs)):
                if aux_norm(cid, fx) <= 1.0 and region.interior_margin(cid, x) <= 1e-9:
                    stray.append((cid, x))
    certified = not escaped and not stray
    report = {
        "certified": certified,
        "escaped_zeros": escaped,
        "stray_sublevel_points": stray,
        "seed": seed,
        "surrogate": "sample-based sublevel certification",
    }
    return ControlPair(region, aux_norm, report)


def _chart_radius(chart):
    """Level-0 radius of the chart's domain; 1 for a domain without radii."""
    return chart.domain.radii[0] if chart.domain.radii else 1.0


def _seeded_zeros(fn, jac, chart, count, rng):
    """Distinct zeros of fn in the chart's domain, from count starts drawn
    from rng uniformly in the box of half-width _chart_radius around the
    center and solved together by _fd.gauss_newton; a row counts as a zero
    when its residual is at most CORRECTOR_ACCEPT_TOL, and zeros closer than
    1e-5 to an earlier one, in start order, are dropped."""
    d = chart.domain.center.size
    starts = (chart.domain.center
              + _chart_radius(chart) * rng.uniform(-1, 1, (count, d)))
    xs, res = _fd.gauss_newton(fn, starts, chart.fiber_dim(), jac=jac)
    zs = xs[res <= CORRECTOR_ACCEPT_TOL]
    return _distinct(zs[[chart.domain.contains(x, 0) for x in zs]], 1e-5)


def _distinct(points, min_distance):
    """The rows of a (k, d) array, in order, that lie at least min_distance
    from every earlier row kept."""
    far = _fd.norms(points[:, None] - points[None]) >= min_distance
    keep = []
    for i in range(len(points)):
        if far[i, keep].all():
            keep.append(i)
    return list(points[keep])


# ---------------------------------------------------------------------------
# solution sets


@dataclass
class SolutionBranch:
    chart_id: str
    branch_index: int
    weight: Fraction
    points: list
    dimension: int
    parametrize: object = None  # kernel rows (..., index) -> points (..., d)
    kernel_range: tuple = None
    failed_samples: int = 0  # kernel-grid points whose Picard solve failed


def solution_set(f, l, seed=0):
    """Weighted solution samples of the multisection equation per branch.

    Each active branch solves f(x) = s_i(x) through the Gauss-Newton corrector
    from 40 seeded starts per chart, stepping with the derivative_matrix of f
    minus that of s_i; zero-dimensional solutions are deduplicated,
    positive-index solutions get a kernel parametrization by Picard iteration
    on the germ normal form over a patch of radius 0.8 times the chart radius,
    whose AmbiguousRankError propagates (never at fiber dimension 1). Charts
    with zero-dimensional fiber contribute their whole sampled region at the
    branch weight.

    The result is a pure function of f and seed, so l keeps it, keyed by the
    identity of f and by seed: a repeat call returns the same list, which is
    shared and read-only.
    """
    key = (f, seed)
    if key in l._solution_sets:
        return l._solution_sets[key]
    model = f.model
    rng = np.random.default_rng(seed)
    out = []
    for cid, chart in model.charts.items():
        d = chart.domain.center.size
        radius = _chart_radius(chart)
        if chart.fiber_dim() == 0:
            # empty fiber: the whole sampled chart region solves the equation
            if d == 1:
                offs = np.linspace(-0.9, 0.9, CURVE_SAMPLES)[:, None]
            else:
                offs = rng.uniform(-0.9, 0.9, size=(CURVE_SAMPLES, d))
            pts = [chart.domain.center + radius * o for o in offs]
            pts = [p for p in pts if chart.domain.contains(p, 0)]
            out.append(SolutionBranch(cid, -1, Fraction(1), pts, d,
                                      parametrize=None))
            continue
        for bi, (section, w) in enumerate(l.branches):
            def diff(x, s=section, cid=cid):
                return f(cid, x) - s(cid, x)

            def diff_jac(x, h, s=section, cid=cid):
                return f.derivative_matrix(cid, x, h) - s.derivative_matrix(cid, x, h)

            sols = _seeded_zeros(diff, diff_jac, chart, 40, rng)
            if not sols:
                continue
            index = d - chart.fiber_dim()
            if index <= 0:
                out.append(SolutionBranch(cid, bi, w, sorted(sols, key=tuple), 0))
            else:
                pr = 0.8 * radius
                for x_sol in _distinct(np.array(sorted(sols, key=tuple)), 2 * pr):
                    pg = germ_from_map(diff, x_sol, chart.fiber_dim(),
                                       radius=max(4.0 * pr, 4.0))

                    def parametrize(kappa, pg=pg):
                        return pg.ambient(kappa, fixed_points(
                            pg.germ, kappa, 0, _fd.CORRECTOR_TOL, 300))

                    kgrid = np.linspace(-pr, pr, CURVE_SAMPLES)
                    kap_rows = np.repeat(kgrid[:, None], index, axis=1)
                    with np.errstate(over="ignore", invalid="ignore"):
                        wfix, info = solve_germ(pg.germ, kap_rows, 0,
                                                tol=_fd.CORRECTOR_TOL, max_iter=300)
                        grid_pts = pg.ambient(kap_rows, wfix)
                    keep = [e is None and chart.domain.contains(p, 0)
                            for p, e in zip(grid_pts, info.errors)]
                    pts, valid = list(grid_pts[keep]), kgrid[keep]
                    krange = (valid[0], valid[-1]) if valid.size else None
                    if not pts:
                        # degenerate curve: keep the corrector's raw point so
                        # transversality still inspects it
                        pts = [x_sol]
                        parametrize = None
                    out.append(SolutionBranch(
                        cid, bi, w, pts, index, parametrize, krange,
                        failed_samples=sum(e is not None for e in info.errors)))
    l._solution_sets[key] = out
    return out


# ---------------------------------------------------------------------------
# linearizations and transversality


@dataclass
class LinearizationSet:
    chart_id: str
    point: np.ndarray
    operators: list  # (branch_index, weight, matrix, ScFredholmData)

    def min_surjectivity(self):
        """Smallest fiber_dim-th singular value over the operators, read from
        their splits; 0 when an operator has fewer singular values than rows."""
        vals = []
        for _, _, mat, data in self.operators:
            if mat.shape[0] == 0:
                vals.append(np.inf)
                continue
            sv = data.singular_values
            vals.append(float(sv[mat.shape[0] - 1]) if sv.size >= mat.shape[0] else 0.0)
        return min(vals) if vals else np.inf


def linearization_set(f, l, chart_id, x, alternative=None):
    """Operators (f - s_i)'(x) over the active branches at a solution, each
    with its fredholm_split, whose AmbiguousRankError propagates;
    NotASolutionError when no branch is active.

    When an alternative local section structure is supplied the two operator
    sets must coincide up to permutation, entrywise within 1e-10.
    """
    chart = f.model.chart(chart_id)
    x = np.asarray(x, dtype=float)
    if not chart.domain.contains(x, 0):
        raise UnchartedPointError("base point outside the chart domain")
    fx = f(chart_id, x)
    active = [(bi, section, w) for bi, (section, w) in enumerate(l.branches)
              if chart.fiber.norm(section(chart_id, x) - fx, 0) <= FIBER_MATCH_TOL]
    if not active:
        raise NotASolutionError("the multisection vanishes on the section value here")
    df = f.derivative_matrix(chart_id, x)
    ops = []
    for bi, section, w in active:
        mat = df - section.derivative_matrix(chart_id, x)
        ops.append((bi, w, mat, fredholm_split(mat)))
    result = LinearizationSet(chart_id, x, ops)
    if alternative is not None:
        other = linearization_set(f, alternative, chart_id, x)
        if not _operator_sets_match(result, other, 1e-10):
            raise ValueError(
                "linearization set depends on the local section structure"
            )
    return result


def _operator_sets_match(a, b, tol):
    if len(a.operators) != len(b.operators):
        return False
    used = set()
    for _, _, mat_a, _ in a.operators:
        hit = None
        for j, (_, _, mat_b, _) in enumerate(b.operators):
            if j in used:
                continue
            if mat_a.shape == mat_b.shape and np.max(np.abs(mat_a - mat_b)) <= tol:
                hit = j
                break
        if hit is None:
            return False
        used.add(hit)
    return True


@dataclass
class TransversalReport:
    rows: list  # (chart_id, point, branch, min_singular, good_position_ok)
    failures: list

    @property
    def passed(self):
        return not self.failures


def transversal_check(f, l, branches, boundary=False, floor=_fd.SURJECTIVITY_FLOOR):
    """Surjectivity of every linearization at every sampled solution; with
    boundary also good position of the kernels against the active tangent
    quadrant, at constant 0.5.

    floor is the surjectivity threshold on the smallest singular value;
    searches that must treat nearly-degenerate points as failures pass a
    stricter value (solutions are only resolved to the square root of the
    solver tolerance at degenerate roots). Points of undecidable rank,
    diag(1e9, 1) too, fail as "ambiguous rank" whatever the floor.
    """
    rows = []
    failures = []
    for branch in branches:
        chart = f.model.chart(branch.chart_id)
        if chart.fiber_dim() == 0:
            for p in branch.points:
                rows.append((branch.chart_id, p, branch.branch_index, np.inf, True))
            continue
        for p in branch.points:
            try:
                lset = linearization_set(f, l, branch.chart_id, p)
            except NotASolutionError:
                failures.append((branch.chart_id, p, branch.branch_index,
                                 "not-a-solution"))
                continue
            except AmbiguousRankError:
                failures.append((branch.chart_id, p, branch.branch_index,
                                 "ambiguous rank"))
                continue
            sv = lset.min_surjectivity()
            ok = sv > floor
            gp_ok = True
            if ok and boundary:
                gp_ok = _kernels_in_good_position(chart, lset, p)
            rows.append((branch.chart_id, p, branch.branch_index, sv, gp_ok))
            if not ok:
                failures.append((branch.chart_id, p, branch.branch_index,
                                 f"min singular value {sv:g}"))
            elif not gp_ok:
                failures.append((branch.chart_id, p, branch.branch_index,
                                 "good-position failure"))
    return TransversalReport(rows, failures)


def _kernels_in_good_position(chart, lset, point):
    qidx = chart.domain.quadrant.quadrant_indices
    active = tuple(i for i in qidx if abs(point[i]) <= 1e-9)
    tangent_quadrant = PartialQuadrant(FiniteDimScale(point.size), active)
    for _, _, _, data in lset.operators:
        kernel = data.kernel
        if kernel.shape[1] == 0:
            continue
        rep = good_position_check(kernel, tangent_quadrant, data.complement, 0.5,
                                  sample_count=200, seed=1)
        if not rep.passed:
            return False
    return True


# ---------------------------------------------------------------------------
# transversal perturbation search


def _bump_profile(center, radius):
    """chi(x) = exp(1 - 1/(1 - t^2)) with t = |x - c| / r, zero for t >= 1,
    and its gradient -2 chi(x) (x - c) / (r^2 (1 - t^2)^2), at the rows of x."""
    center = np.asarray(center, dtype=float)

    def chi(x):
        t = _fd.norms(np.asarray(x, dtype=float) - center) / radius
        # 1 - t^2 is at least 2^-53 for t < 1, so the floor changes nothing
        # there and sends exp to exactly zero for t >= 1
        return np.exp(1.0 - 1.0 / np.maximum(1.0 - t * t, 2.0 ** -60))

    def grad(x):
        dx = np.asarray(x, dtype=float) - center
        c = chi(x)
        q = _fd.norms(dx) / radius
        on = c != 0.0
        u = np.where(on, 1.0 - q * q, 1.0)
        g = (-2.0 * c / (radius * radius * u * u))[..., None] * dx
        return np.where(on[..., None], g, 0.0)

    return chi, grad


def perturb_to_transversal(f, cp, epsilon, seed=0):
    """One-level-up multisection below the norm budget, supported in the
    certified region, making every linearization at the perturbed solution set
    surjective.

    Directions come from cokernel bases of the failing linearizations, bump
    localized in the control region and rescaled under the budget; an empty
    cokernel, or one the guard band cannot decide, gives way to the whole
    fiber. It makes at most 20 attempts, deterministic given the seed;
    solution_set's AmbiguousRankError propagates. Internally the stricter
    floor SUSPECT_FLOOR marks nearly-degenerate solutions as failing, since
    degenerate roots are only resolved to the solver tolerance's square root.

    The result is a pure function of f, epsilon and seed, so cp keeps it,
    keyed by the identity of f, by epsilon and by seed: a repeat call returns
    the same multisection, whose solution sets are then already solved.
    """
    if not (0 < epsilon < 1):
        raise ValueError("the norm budget must lie in (0, 1)")
    if not cp.certified:
        raise ValueError("control pair is not certified")
    key = (f, epsilon, seed)
    if key not in cp._transversal:
        cp._transversal[key] = _transversal_search(f, cp, epsilon, seed)
    return cp._transversal[key]


def _transversal_search(f, cp, epsilon, seed):
    model = f.model
    zero = Multisection.zero(model)
    sols = solution_set(f, zero, seed=seed)
    report = transversal_check(f, zero, sols, floor=SUSPECT_FLOOR)
    if report.passed:
        return zero
    rng = np.random.default_rng(seed)
    worst = report
    dims = model.fiber_dims
    for attempt in range(20):
        offsets = {}
        for cid, chart in model.charts.items():
            if chart.fiber_dim() == 0:
                continue
            # the chart's first failing point aims the bump; only it is split
            p0 = next((np.asarray(p) for chart_id2, p, _, _ in worst.failures
                       if chart_id2 == cid), None)
            if p0 is None:
                continue
            mat = f.derivative_matrix(cid, p0)
            try:
                coker = fredholm_split(mat).cokernel
            except AmbiguousRankError:
                coker = np.eye(mat.shape[0])
            if coker.shape[1] == 0:
                coker = np.eye(mat.shape[0])
            coeff = rng.uniform(0.3, 1.0, coker.shape[1]) * rng.choice([-1.0, 1.0])
            vec = coker @ coeff
            balls = cp.region.balls.get(cid, [])
            if balls:
                center, radius = min(
                    balls, key=lambda b: np.linalg.norm(b[0] - p0))
            else:
                center, radius = p0, 1.0
            raw_norm = cp.aux_norm(cid, vec)
            scale = 0.5 * epsilon / max(raw_norm, 1e-30)
            offsets[cid] = (*_bump_profile(center, radius), scale * vec)

        def pert_fn(cid, x, offsets=offsets):
            if cid not in offsets:
                return np.zeros(x.shape[:-1] + (dims[cid],))
            chi, _, vec = offsets[cid]
            return chi(x)[..., None] * vec

        def pert_jac(cid, x, offsets=offsets):
            if cid not in offsets:
                return np.zeros(x.shape[:-1] + (dims[cid], x.shape[-1]))
            _, grad, vec = offsets[cid]
            return vec[:, None] * grad(x)[..., None, :]

        branch = BundleSection(model, pert_fn, tag="sc_plus", jac=pert_jac,
                               name=f"cokernel-shift-{attempt}")
        tau = Multisection(model, [(branch, Fraction(1))],
                           name=f"transversal-{attempt}")
        sols = solution_set(f, tau, seed=seed + attempt + 1)
        rep = transversal_check(f, tau, sols, floor=SUSPECT_FLOOR)
        if rep.passed and _norm_ok(tau, cp, sols, epsilon) and _support_ok(tau, cp):
            return tau
        worst = rep if rep.failures else worst
    raise ExhaustedAttemptsError(
        "no transversal perturbation within 20 attempts",
        report=worst)


def _norm_ok(tau, cp, branches, epsilon):
    """No solution point where the auxiliary norm of tau reaches epsilon."""
    return not any(tau.norm(cp.aux_norm, b.chart_id, p) >= epsilon
                   for b in branches for p in b.points)


def _support_ok(tau, cp):
    """tau vanishes at those of 20 seeded samples per chart, within twice the
    chart radius of its center, that fall outside the certified region."""
    rng = np.random.default_rng(123)
    samples = [(cid, chart.domain.center + 2.0 * _chart_radius(chart)
                * rng.uniform(-1, 1, chart.domain.center.size))
               for cid, chart in tau.model.charts.items() for _ in range(20)]
    return tau.support_inside(cp.region, samples)


# ---------------------------------------------------------------------------
# weighted counts and cobordism comparison


def orientation_sign(f, multisection, branch, p):
    """Sign of det(f'(p) - s_i'(p)) for the branch's active section s_i, in
    the standard frames: 1, -1, or 0 when the linearization is singular or
    not square. Without a multisection, or on a branch of no section, it is
    the sign of det f'(p)."""
    mat = f.derivative_matrix(branch.chart_id, p)
    if multisection is not None and branch.branch_index >= 0:
        section = multisection.branches[branch.branch_index][0]
        mat = mat - section.derivative_matrix(branch.chart_id, p)
    # slogdet's sign does not underflow to 0 as det does, as for 0.01 I at n = 200
    sign = np.linalg.slogdet(mat)[0] if mat.shape[0] == mat.shape[1] else 0.0
    return 1 if sign > 0 else (-1 if sign < 0 else 0)


def weighted_count(f, branches, multisection=None):
    """Signed weighted count over zero-dimensional solution branches.

    Each point counts with its orientation_sign; weights stay rational so
    the count is exact.
    """
    total = Fraction(0)
    for branch in branches:
        if branch.dimension != 0:
            raise ValueError("weighted counts need index-zero branches")
        for p in branch.points:
            total += branch.weight * orientation_sign(f, multisection, branch, p)
    return total


@dataclass
class CobordismReport:
    count0: Fraction | None
    count1: Fraction | None
    family_failures: list
    checks: dict

    @property
    def passed(self):
        return all(self.checks.values())


def cobordism_compare(f, tau0, tau1, cp, seed=0):
    """Interpolating family between two admissible perturbations with weighted
    counts compared at the endpoints.

    The family uses convex branch interpolation over all branch pairs, whose
    weights stay exactly rational. Family transversality is sampled at
    t = 0, 0.25, 0.5, 0.75 and 1; the endpoint comparison is exact for index
    zero. The counts are taken on the endpoint solution sets whose norm,
    support and transversality were checked.
    """
    endpoint_sols = []
    for tau in (tau0, tau1):
        sols = solution_set(f, tau, seed=seed)
        endpoint_sols.append(sols)
        if not _norm_ok(tau, cp, sols, 1.0):
            raise ValueError("perturbation norm violates the budget")
        if not _support_ok(tau, cp):
            raise ValueError("perturbation support leaves the certified region")
        rep = transversal_check(f, tau, sols)
        if not rep.passed:
            raise ValueError("endpoint pair is not transversal")

    model = f.model
    family_failures = []
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        branches = []
        for s0, w0 in tau0.branches:
            for s1, w1 in tau1.branches:
                sec = _combination(model, s0, s1, 1 - t, t, f"interp-{t}")
                branches.append((sec, w0 * w1))
        tau_t = Multisection(model, branches, name=f"family-{t}")
        sols_t = solution_set(f, tau_t, seed=seed + int(100 * t))
        rep = transversal_check(f, tau_t, sols_t)
        if not rep.passed:
            family_failures.append((t, rep.failures))

    sols0, sols1 = endpoint_sols
    # counts apply when every branch is index zero; an empty solution set
    # counts as zero by the empty-sum convention
    count0 = count1 = None
    if all(b.dimension == 0 for b in sols0):
        count0 = weighted_count(f, sols0, tau0)
    if all(b.dimension == 0 for b in sols1):
        count1 = weighted_count(f, sols1, tau1)
    checks = {
        "family_transversal": not family_failures,
        "counts_equal": (count0 == count1) if (count0 is not None and count1 is not None) else True,
    }
    return CobordismReport(count0, count1, family_failures, checks)
