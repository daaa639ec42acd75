"""Weighted branch families, differential forms, canonical measures and Stokes checks.

Branches are parametrized manifolds-with-corners given by chart maps from
reference cubes; weights are positive rationals. The measure of a region is
(1 / effective symmetry order) times the weighted sum of per-branch pull-back
integrals, computed by tensor Gauss quadrature on the reference cells. Forms
default to a polynomial coefficient representation so the exterior derivative
is exact and Stokes residuals isolate quadrature error.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _fd
from ._fd import MEMBERSHIP_TOL
from ._text import json_text
from .errors import (
    MissingDerivativeError,
    UnchartedPointError,
    check_keys,
    read_config,
)
from .perturbation import orientation_sign, perturb_to_transversal, solution_set


# ---------------------------------------------------------------------------
# differential forms


# x ** e as a float64 scalar computes it, libm's pow element by element:
# numpy's array power squares or runs SIMD code that can differ in the last bit
_pow = np.vectorize(math.pow, otypes=[float])


def _sorted_key(idx):
    """Sort a multi-index, tracking the permutation sign; repeated indices kill
    the term."""
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return None, 0
    # count inversions
    inv = sum(1 for i in range(len(idx)) for j in range(i + 1, len(idx))
              if idx[i] > idx[j])
    sign = -1 if inv % 2 else 1
    return tuple(sorted(idx)), sign


class Polynomial:
    """Multivariate polynomial as a dict from exponent tuples to coefficients,
    evaluated at the rows of x: shape (..., n_vars) to (...,)."""

    def __init__(self, n_vars, terms=None):
        self.n_vars = n_vars
        self.terms = dict(terms or {})

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[:-1])
        for expo, c in self.terms.items():
            mono = np.ones(x.shape[:-1])
            for i, e in enumerate(expo):
                if e:
                    mono = mono * _pow(x[..., i], e)
            total += c * mono
        return total[()]

    def partial(self, i):
        out = {}
        for expo, c in self.terms.items():
            if expo[i] == 0:
                continue
            new = list(expo)
            new[i] -= 1
            key = tuple(new)
            out[key] = out.get(key, 0.0) + c * expo[i]
        return Polynomial(self.n_vars, out)

    @classmethod
    def constant(cls, n_vars, c):
        return cls(n_vars, {tuple([0] * n_vars): float(c)})

    @classmethod
    def coordinate(cls, n_vars, i):
        expo = [0] * n_vars
        expo[i] = 1
        return cls(n_vars, {tuple(expo): 1.0})


class PolynomialForm:
    """Skew form with polynomial coefficients: sum over increasing index
    tuples I of c_I(x) dx_I, evaluated at rows: x and each vector of shape
    (..., n_vars) give values of shape (...,), each term's minors in one
    stacked determinant. The exterior derivative differentiates the
    coefficients exactly."""

    def __init__(self, n_vars, degree, terms):
        self.n_vars = n_vars
        self.degree = degree
        self.terms = {}
        for idx, poly in terms.items():
            key, sign = _sorted_key(idx)
            if key is None:
                continue
            if not isinstance(poly, Polynomial):
                poly = Polynomial(n_vars, poly)
            if sign < 0:
                poly = Polynomial(n_vars, {e: -c for e, c in poly.terms.items()})
            if key in self.terms:
                merged = dict(self.terms[key].terms)
                for e, c in poly.terms.items():
                    merged[e] = merged.get(e, 0.0) + c
                self.terms[key] = Polynomial(n_vars, merged)
            else:
                self.terms[key] = poly

    def __call__(self, x, *vectors):
        if len(vectors) != self.degree:
            raise ValueError(f"need {self.degree} tangent vectors")
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[:-1])
        if vectors:
            vmat = np.stack([np.asarray(v, dtype=float) for v in vectors], axis=-1)
        for idx, poly in self.terms.items():
            minor = np.linalg.det(vmat[..., list(idx), :]) if vectors else 1.0
            total += poly(x) * minor
        return total[()]

    def exterior_derivative(self):
        out = {}
        for idx, poly in self.terms.items():
            for j in range(self.n_vars):
                dp = poly.partial(j)
                if not dp.terms:
                    continue
                new_idx = (j,) + idx
                key, sign = _sorted_key(new_idx)
                if key is None:
                    continue
                add = {e: sign * c for e, c in dp.terms.items()}
                if key in out:
                    for e, c in add.items():
                        out[key].terms[e] = out[key].terms.get(e, 0.0) + c
                else:
                    out[key] = Polynomial(self.n_vars, add)
        return PolynomialForm(self.n_vars, self.degree + 1, out)


class CallbackForm:
    """Form given by an evaluator of rows, fn(x, *vectors) with x and each
    vector of shape (..., n_vars) giving (...,); its exterior derivative must
    be requested through the finite-difference fallback."""

    def __init__(self, n_vars, degree, fn):
        self.n_vars = n_vars
        self.degree = degree
        self.fn = fn

    def __call__(self, x, *vectors):
        if len(vectors) != self.degree:
            raise ValueError(f"need {self.degree} tangent vectors")
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.fn(x, *vectors), dtype=float)
        return _fd.check_rows(x, out, (), "form", arg="x")[()]

    def exterior_derivative(self, fd_fallback=False):
        if not fd_fallback:
            raise MissingDerivativeError(
                "no exterior-derivative supplier; pass fd_fallback=True")
        base = self
        step = _fd.JACOBIAN_STEP

        def dfn(x, *vectors):
            # alternating sum of directional derivatives of the contractions
            total = 0.0
            for i, v in enumerate(vectors):
                rest = vectors[:i] + vectors[i + 1:]
                fplus = base(np.asarray(x) + step * np.asarray(v), *rest)
                fminus = base(np.asarray(x) - step * np.asarray(v), *rest)
                total += (-1) ** i * (fplus - fminus) / (2 * step)
            return total

        return CallbackForm(self.n_vars, self.degree + 1, dfn)


def exterior_derivative(form, fd_fallback=False):
    """d of a form; exact for the polynomial representation."""
    if isinstance(form, PolynomialForm):
        return form.exterior_derivative()
    return form.exterior_derivative(fd_fallback=fd_fallback)


def skew_symmetry_residual(form, samples, seed=0):
    """Max violation of the swap-sign rule at sampled points and vectors."""
    if form.degree < 2:
        return 0.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for x in samples:
        vecs = [rng.standard_normal(form.n_vars) for _ in range(form.degree)]
        v1 = form(x, *vecs)
        swapped = list(vecs)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        v2 = form(x, *swapped)
        worst = max(worst, abs(v1 + v2))
    return worst


def morphism_invariance_residual(form, morphism_pairs):
    """Max violation of pull-back invariance over sampled morphisms.

    morphism_pairs: list of (x, vectors, y, mapped_vectors) with y the image
    of x and mapped_vectors the tangent images.
    """
    worst = 0.0
    for x, vecs, y, mapped in morphism_pairs:
        worst = max(worst, abs(form(y, *mapped) - form(x, *vecs)))
    return worst


# ---------------------------------------------------------------------------
# branches


@dataclass
class Cell:
    """Reference cube mapped into an object chart.

    chart_map takes rows of reference coordinates in the given bounds, shape
    (..., dim), to points of shape (..., n); jac, shape (..., n, dim), may be
    omitted, in which case finite differences are used. sign flips the cell's
    orientation contribution.
    """

    dim: int
    chart_map: object
    jac: object = None
    bounds: tuple = None
    sign: int = 1

    def __post_init__(self):
        if self.bounds is None:
            self.bounds = tuple((0.0, 1.0) for _ in range(self.dim))
        self.bounds = tuple((float(a), float(b)) for a, b in self.bounds)

    def point(self, q):
        q = np.asarray(q, dtype=float)
        return _fd.check_rows(q, np.asarray(self.chart_map(q), dtype=float),
                              (None,), "cell of dimension {}", self.dim, arg="q")

    def jacobian(self, q):
        q = np.asarray(q, dtype=float)
        if self.jac is None:
            return _fd.jacobian(self.point, q, None, _fd.JACOBIAN_STEP)
        return _fd.check_rows(q, np.asarray(self.jac(q), dtype=float),
                              (None, self.dim), "cell of dimension {}", self.dim,
                              arg="q")

    def boundary_cells(self):
        """Faces with the induced orientation of the standard cube."""
        faces = []
        for j in range(self.dim):
            for side, value in ((0, self.bounds[j][0]), (1, self.bounds[j][1])):
                # outward convention: sign (-1)^j for the upper face, opposite
                # for the lower one
                face_sign = self.sign * ((-1) ** j) * (1 if side == 1 else -1)
                faces.append(self._face(j, value, face_sign))
        return faces

    def _face(self, axis, value, sign):
        rest = [self.bounds[k] for k in range(self.dim) if k != axis]

        keep = [k for k in range(self.dim) if k != axis]

        def face_map(q):
            return self.point(np.insert(q, axis, value, axis=-1))

        def face_jac(q):
            return self.jacobian(np.insert(q, axis, value, axis=-1))[..., keep]

        return Cell(self.dim - 1, face_map, face_jac, tuple(rest), sign)


@dataclass
class Branch:
    """One weighted branch: a manifold-with-corners triangulated into cells."""

    cells: list
    weight: Fraction
    name: str = "branch"
    membership: object = None  # optional exact membership predicate

    def __post_init__(self):
        self.weight = Fraction(self.weight)
        if self.weight <= 0:
            raise ValueError("branch weights must be positive rationals")

    @property
    def dim(self):
        return self.cells[0].dim if self.cells else 0

    def contains(self, y):
        """Membership by the exact predicate when there is one, else by
        distance at most MEMBERSHIP_TOL to a cell."""
        if self.membership is not None:
            return bool(self.membership(np.asarray(y, dtype=float)))
        y = np.asarray(y, dtype=float)
        for cell in self.cells:
            if _cell_distance(cell, y) <= MEMBERSHIP_TOL:
                return True
        return False


def _cell_distance(cell, y):
    """Distance from y to the image of the cell: coarse 9-point grid per axis
    with a local Gauss-Newton polish on the closest reference point."""
    grids = [np.linspace(a, b, 9) for a, b in cell.bounds]
    best_q = None
    best_d = np.inf
    for q in itertools.product(*grids):
        d = np.linalg.norm(cell.point(np.array(q)) - y)
        if d < best_d:
            best_d, best_q = d, np.array(q)
    q = best_q.astype(float)
    for _ in range(40):
        r = cell.point(q) - y
        jac = cell.jacobian(q)
        try:
            step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        except np.linalg.LinAlgError:
            break
        q_new = np.clip(q - step,
                        [a for a, _ in cell.bounds], [b for _, b in cell.bounds])
        if np.linalg.norm(cell.point(q_new) - y) >= best_d - 1e-15:
            break
        q = q_new
        best_d = np.linalg.norm(cell.point(q) - y)
    return best_d


class BranchedFamily:
    """Finite weighted family of branches with symmetry bookkeeping.

    The weight function adds the weights of branches containing the point.
    effective_order is the order of the effective symmetry group entering the
    measure normalization; when left unset it defaults to one with a warning.
    """

    def __init__(self, branches, effective_order=None, name="branched-family"):
        self.branches = list(branches)
        self.name = name
        if effective_order is None:
            warnings.warn(
                "no effective symmetry order supplied; defaulting to 1",
                stacklevel=2)
            effective_order = 1
        self.effective_order = int(effective_order)

    def theta(self, y):
        """Sum of the weights of the branches containing y within
        MEMBERSHIP_TOL."""
        total = Fraction(0)
        hit = False
        for b in self.branches:
            if b.contains(y):
                total += b.weight
                hit = True
        return total if hit else Fraction(0)


def theta_eval(family, y):
    """Sum of weights of branches containing y within MEMBERSHIP_TOL; a point
    far from every cell raises UnchartedPointError."""
    y = np.asarray(y, dtype=float)
    value = family.theta(y)
    if value == 0:
        covered = any(
            _cell_distance(cell, y) < 10.0 for b in family.branches for cell in b.cells
        )
        if not covered:
            raise UnchartedPointError("point lies outside every covered neighborhood")
    return value


# ---------------------------------------------------------------------------
# integration


@dataclass
class WeightedMeasureResult:
    value: float
    quadrature_order: int
    per_branch: list  # (branch name, raw integral before weights)
    est_error: float

    def formula_value(self, weights, effective_order):
        total = 0.0
        for (_, raw), w in zip(self.per_branch, weights):
            total += float(w) * raw
        return total / effective_order


def _gauss_nodes(bounds, order):
    """Nodes of the tensor Gauss rule of one order on a box, in
    itertools.product order (the last axis fastest), and their weights."""
    pts, wts = _fd.gauss01(order)
    idx = np.indices((len(pts),) * len(bounds)).reshape(len(bounds), -1).T
    q = np.stack([(a + (b - a) * pts)[i] for (a, b), i in zip(bounds, idx.T)], axis=-1)
    return q, np.prod(wts[idx], axis=-1)


def integrate(family, form, region=None, order=12):
    """Weighted measure of a region against a top-degree form.

    region is None for the whole family or a dict from branch name to a list
    of reference sub-boxes. The combination rule divides by the effective
    symmetry order; per-branch raw integrals and a quadrature error estimate
    (difference against order-1 lower quadrature) are reported.

    Each cell, or cell and sub-box, makes one chart and one Jacobian call over
    the nodes of both Gauss rules, and the form is called once, over the rows
    of every cell of every branch.
    """
    for b in family.branches:
        if b.dim != form.degree:
            raise ValueError(
                f"form degree {form.degree} does not match branch dimension {b.dim}")
        for cell in b.cells:
            if cell.sign not in (-1, 1):
                raise ValueError("branch cells must carry an orientation sign")
    orders = dict.fromkeys((order, max(order - 1, 1)))  # one rule when they agree
    chosen = [region is None or region.get(b.name) is not None
              for b in family.branches]
    points, jacs = [], []
    pieces = []  # (branch index, cell sign, box volume, node weights per rule)
    for k, b in enumerate(family.branches):
        if not chosen[k]:
            continue
        for cell in b.cells:
            for box in [cell.bounds] if region is None else region[b.name]:
                if cell.dim == 0:
                    # a point is one node of weight one on a box of volume one
                    point = cell.point(np.zeros(0))[None]
                    points.append(point)
                    jacs.append(np.zeros(point.shape + (0,)))
                    pieces.append((k, cell.sign, 1, [np.ones(1)]))
                    continue
                q, weights = zip(*(_gauss_nodes(box, o) for o in orders))
                q = np.concatenate(q)
                jacs.append(cell.jacobian(q))
                points.append(cell.point(q))
                pieces.append((k, cell.sign, math.prod(hi - lo for lo, hi in box),
                               weights))
    if pieces:
        values = form(np.concatenate(points),
                      *np.moveaxis(np.concatenate(jacs), -1, 0))
    raw = [0.0] * len(family.branches)
    raw_low = [0.0] * len(family.branches)
    start = 0
    for k, sign, scale, weights in pieces:
        sums = []
        for w in weights:
            # summed left to right from 0.0, as one node at a time: pairwise
            # np.sum would move the round-off of Stokes residuals
            rule = w * values[start:start + len(w)]
            sums.append(sign * scale * (0.0 + np.cumsum(rule)[-1]))
            start += len(w)
        raw[k] += sums[0]
        raw_low[k] += sums[-1]
    per_branch = []
    total = 0.0
    low_total = 0.0
    for k, b in enumerate(family.branches):
        per_branch.append((b.name, raw[k]))
        if not chosen[k]:
            continue
        total += float(b.weight) * raw[k]
        low_total += float(b.weight) * raw_low[k]
    value = total / family.effective_order
    est_error = abs(total - low_total) / family.effective_order
    return WeightedMeasureResult(value, order, per_branch, est_error)


def integrate_boundary(family, form, order=12):
    """Same combination rule over the induced boundaries of all branch cells."""
    for b in family.branches:
        if b.dim != form.degree + 1:
            raise ValueError("boundary integration needs degree = dimension - 1")
    boundary_branches = []
    for b in family.branches:
        faces = []
        for cell in b.cells:
            if cell.dim == 0:
                continue
            faces.extend(cell.boundary_cells())
        if not faces:
            continue
        boundary_branches.append(Branch(faces, b.weight, name=b.name))
    if not boundary_branches:
        return WeightedMeasureResult(0.0, order, [], 0.0)
    bfam = BranchedFamily(boundary_branches, family.effective_order,
                          name=f"∂{family.name}")
    return integrate(bfam, form, order=order)


def stokes_residual(family, form, order=12):
    """|integral of d(form) - boundary integral of form| at the given order."""
    inner = integrate(family, exterior_derivative(form, fd_fallback=True),
                      order=order)
    outer = integrate_boundary(family, form, order=order)
    return abs(inner.value - outer.value)


# ---------------------------------------------------------------------------
# standard branch constructions


def _matrix_rows(entries):
    """(..., n, m) array from an n x m nested list of (...,) arrays."""
    return np.stack([np.stack(row, axis=-1) for row in entries], axis=-2)


def disk_branch(radius=1.0, weight=Fraction(1), quadrants=4, name="disk"):
    """Unit disk as polar quadrant cells; internal radial faces cancel in
    boundary integrals."""
    cells = []
    for k in range(quadrants):
        a0, a1 = k / quadrants, (k + 1) / quadrants

        def chart(q, a0=a0, a1=a1):
            r = radius * q[..., 0]
            th = 2 * np.pi * (a0 + (a1 - a0) * q[..., 1])
            return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)

        def jac(q, a0=a0, a1=a1):
            r = radius * q[..., 0]
            th = 2 * np.pi * (a0 + (a1 - a0) * q[..., 1])
            dth = 2 * np.pi * (a1 - a0)
            return _matrix_rows([
                [radius * np.cos(th), -r * dth * np.sin(th)],
                [radius * np.sin(th), r * dth * np.cos(th)],
            ])

        cells.append(Cell(2, chart, jac))
    return Branch(cells, weight, name=name,
                  membership=lambda y: np.linalg.norm(y) <= radius + MEMBERSHIP_TOL)


def half_disk_branch(sign, radius=1.0, weight=Fraction(1, 2), name=None):
    """Upper (+1) or lower (-1) half disk; the diameter face participates in
    boundary sums and cancels against the matching half."""
    def chart(q):
        r = radius * q[..., 0]
        th = np.pi * q[..., 1] if sign > 0 else np.pi + np.pi * q[..., 1]
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)

    def jac(q):
        r = radius * q[..., 0]
        th = np.pi * q[..., 1] if sign > 0 else np.pi + np.pi * q[..., 1]
        return _matrix_rows([
            [radius * np.cos(th), -r * np.pi * np.sin(th)],
            [radius * np.sin(th), r * np.pi * np.cos(th)],
        ])

    side = "upper" if sign > 0 else "lower"
    return Branch([Cell(2, chart, jac)], weight, name=name or f"{side}-half")


def segment_branch(start, end, weight=Fraction(1), name="segment"):
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)

    def chart(q):
        return start + q[..., :1] * (end - start)

    def jac(q):
        return np.broadcast_to((end - start)[:, None],
                               q.shape[:-1] + (len(start), 1))

    return Branch([Cell(1, chart, jac)], weight, name=name)


def curve_branch(parametrize, lo, hi, weight=Fraction(1), name="curve"):
    """One-dimensional branch from a pointwise parametrization callable on
    [lo, hi]; its chart calls it once per row."""
    def chart(q):
        points = [parametrize(lo + t * (hi - lo)) for t in q.ravel()]
        return np.asarray(points, dtype=float).reshape(q.shape[:-1] + (-1,))

    return Branch([Cell(1, chart, None)], weight, name=name)


def point_branch(point, weight=Fraction(1), sign=1, name="point"):
    point = np.asarray(point, dtype=float)
    return Branch([Cell(0, lambda q: point, None, (), sign)], weight, name=name)


# ---------------------------------------------------------------------------
# pairing against perturbed solution sets


@dataclass
class PairingReport:
    values: list
    spread: float
    dimension_matched: bool

    @property
    def value(self):
        return self.values[0] if self.values else 0.0

    @property
    def stable(self):
        """The largest pairwise deviation of the trial values is at most 1e-6."""
        return self.spread <= 1e-6


def de_rham_pairing(f, cp, form, trials=5, seed=0):
    """Integral of the form over perturbed weighted solution sets.

    Each trial draws a fresh transversal perturbation with norm budget 0.1,
    builds branch structures from the solution set and integrates them with
    effective symmetry order 1. A degree mismatch with
    the solution dimension returns exactly zero. The report carries all trial
    values; it is stable when their max pairwise deviation is at most 1e-6.
    """
    values = []
    matched = True
    for t in range(trials):
        tau = perturb_to_transversal(f, cp, 0.1, seed=seed + 17 * t)
        sols = solution_set(f, tau, seed=seed + 17 * t + 1)
        dims = {b.dimension for b in sols} or {0}
        if dims != {form.degree}:
            matched = False
            values.append(0.0)
            continue
        if form.degree == 0:
            # 0-forms pair with signed points branch by branch
            total = Fraction(0)
            for b in sols:
                for p in b.points:
                    sign = orientation_sign(f, tau, b, p)
                    total += b.weight * sign * Fraction(form(p)).limit_denominator(10 ** 12)
            values.append(total)
        else:
            branches = []
            for b in sols:
                if b.parametrize is None or b.kernel_range is None:
                    continue
                lo, hi = b.kernel_range
                branches.append(curve_branch(
                    lambda k, b=b: b.parametrize(np.full(b.dimension, k)),
                    lo, hi, weight=b.weight, name=f"sol-{b.chart_id}-{b.branch_index}"))
            fam = BranchedFamily(branches, 1)
            values.append(integrate(fam, form, order=12).value)
    spread = 0.0
    for a in values:
        for b in values:
            spread = max(spread, abs(float(a) - float(b)))
    return PairingReport(values, spread, matched)


# ---------------------------------------------------------------------------
# serialization


def family_from_config(text_or_dict):
    """Load a branched family from structured text: polynomial chart maps,
    weights and orientation signs per branch."""
    cfg = read_config(text_or_dict, {"schema", "effective_order", "branches"},
                      "family config keys")
    branches = []
    for bspec in cfg.get("branches", []):
        check_keys(bspec, {"name", "weight", "cells"}, "branch keys")
        cells = []
        for cspec in bspec["cells"]:
            check_keys(cspec, {"dim", "map", "sign", "bounds"}, "cell keys")
            dim = int(cspec["dim"])
            polys = [Polynomial(dim, {tuple(map(int, k.split(","))): float(v)
                                      for k, v in comp.items()})
                     for comp in cspec["map"]]
            partials = [[p.partial(j) for j in range(dim)] for p in polys]

            def chart(q, polys=polys):
                return np.stack([p(q) for p in polys], axis=-1)

            def jac(q, partials=partials):
                return _matrix_rows([[pj(q) for pj in row] for row in partials])

            cells.append(Cell(dim, chart, jac,
                              tuple(tuple(b) for b in cspec.get("bounds", [])) or None,
                              int(cspec.get("sign", 1))))
        branches.append(Branch(cells, Fraction(bspec["weight"]),
                               name=bspec.get("name", "branch")))
    return BranchedFamily(branches, cfg.get("effective_order"))


def form_from_config(text_or_dict):
    """Load a polynomial form from structured text coefficients.

    Schema: {"n_vars", "degree", "terms": {"i,j,...": {"e0,e1,...": coeff}}}
    where the outer keys are increasing coordinate index tuples and the inner
    keys are exponent tuples.
    """
    cfg = read_config(text_or_dict, {"schema", "n_vars", "degree", "terms"},
                      "form config keys")
    n = int(cfg["n_vars"])
    terms = {}
    for idx_key, poly_spec in cfg.get("terms", {}).items():
        idx = tuple(int(i) for i in idx_key.split(",")) if idx_key else ()
        poly = Polynomial(n, {tuple(int(e) for e in ek.split(",")): float(c)
                              for ek, c in poly_spec.items()})
        terms[idx] = poly
    return PolynomialForm(n, int(cfg["degree"]), terms)


def result_to_json(result):
    return json_text(result)
