"""Idempotent smooth self-maps, their varying-dimension images, and boundary geometry.

The image of an idempotent map inside a partial quadrant is the local model
for spaces whose dimension may jump along a parameter. Membership in the image
is the fixed-point residual |r(x) - x|_0 <= 1e-9. Rank decisions near jump
loci use a guard band: relative singular values inside (1e-10, 1e-8) raise
instead of tie-breaking silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _fd
from .errors import (
    DegenerateBasisError,
    DomainExitError,
    ImageMismatchError,
    NonIdempotentError,
    WindowExitError,
)
from .sc_calculus import ScDomain, ScMap, whole_scale_domain
from .sc_core import (
    FiniteDimScale,
    PartialQuadrant,
    WeightedGridScale,
    degeneracy_index,
    direct_sum,
)

MEMBERSHIP_TOL = 1e-9
PROJECTION_TOL = 1e-10


@dataclass
class Splicing:
    """Parametrized family of linear projections on a fiber scale.

    project(v, e) must be linear and idempotent in e for every admissible
    parameter v; dproject(v, e, dv, de) is the derivative of the joint map
    (v, e) -> pi_v(e) at one point, applied to rows of tangent directions:
    dv of shape (..., pdim) and de of shape (..., fdim) give (..., fdim).
    """

    domain: ScDomain
    fiber: object
    project: object
    dproject: object = None

    def check_idempotent(self, parameter_samples, fiber_samples):
        worst = 0.0
        for v in parameter_samples:
            for e in fiber_samples:
                once = self.project(v, e)
                twice = self.project(v, once)
                worst = max(worst, self.fiber.norm(twice - once, 0))
        if worst > PROJECTION_TOL:
            raise NonIdempotentError(
                f"projection family violates idempotence: residual {worst:g}"
            )
        return worst


class Retraction:
    """Idempotent map r on a domain in a partial quadrant, with derivative access.

    dfn(x, h), when given, is Dr(x) at one point x of shape (d,) applied to
    the rows of h: (..., d) gives (..., d), and a 1-D h is the one-row case.
    """

    def __init__(self, domain, fn, dfn=None, name="retraction"):
        self.domain = domain
        self.fn = fn
        self.dfn = dfn
        self.name = name

    @property
    def scale(self):
        return self.domain.scale

    @property
    def quadrant(self):
        return self.domain.quadrant

    def __call__(self, coeffs):
        return np.asarray(self.fn(np.asarray(coeffs, dtype=float)), dtype=float)

    def derivative(self, coeffs, directions):
        """Dr(x) applied to the rows of directions, from one dfn call, else by
        centered differences of fn. The rows are made contiguous, so a dfn's
        sums along the last axis equal its one-row sums bit for bit; a dfn
        result shaped for one row on a batch raises ValueError."""
        x = np.asarray(coeffs, dtype=float)
        h = np.ascontiguousarray(directions, dtype=float)
        if self.dfn is None:
            return _fd.directional_derivative(self.fn, x, h)
        out = np.asarray(self.dfn(x, h), dtype=float)
        if h.ndim > 1 and out.shape != h.shape[:-1] + x.shape:
            raise ValueError(
                f"retraction {self.name!r} derivative returned shape {out.shape} "
                f"for rows h of shape {h.shape}; rows need shape "
                f"{h.shape[:-1] + x.shape}")
        return out

    def in_image(self, coeffs, tol=MEMBERSHIP_TOL):
        return self.scale.norm(self(coeffs) - coeffs, 0) <= tol

    def restrict(self, sub_membership, name=None):
        """Restriction to the preimage of an open subset of the image; the
        result is again a retraction onto that subset."""
        dom = ScDomain(
            self.domain.quadrant,
            center=self.domain.center,
            radii=self.domain.radii,
            predicate=lambda x: (
                (self.domain.predicate is None or self.domain.predicate(x))
                and sub_membership(self(x))
            ),
        )
        return Retraction(dom, self.fn, self.dfn, name=name or f"{self.name}|sub")


def retraction_check(r, samples, levels=None):
    """Max idempotence residual |r(r(x)) - r(x)|_m over samples and levels."""
    levels = range(r.scale.max_level + 1) if levels is None else levels
    worst = 0.0
    for x in samples:
        once = r(x)
        twice = r(once)
        for m in levels:
            worst = max(worst, r.scale.norm(twice - once, m))
    return worst


def tangent_retraction_check(r, samples, directions):
    """Idempotence of the tangent map (x, h) -> (r(x), Dr(x)h) on the image."""
    worst = 0.0
    for x, h in zip(samples, directions):
        rx = r(x)
        dh = r.derivative(rx, r.derivative(rx, h)) - r.derivative(rx, h)
        worst = max(worst, r.scale.norm(dh, 0))
    return worst


@dataclass
class LocalScModel:
    """A retract presented by its witnessing retraction inside a quadrant."""

    retraction: Retraction

    @property
    def quadrant(self):
        return self.retraction.quadrant

    def contains(self, coeffs):
        return self.retraction.in_image(coeffs)

    def degeneracy(self, coeffs):
        return degeneracy_index(self.quadrant, coeffs)


def splicing_to_retraction(sp, parameter_samples=None, fiber_samples=None, name="spliced"):
    """r(v, e) = (v, pi_v(e)) on the sum of parameter and fiber scales.

    The image is the set of projection fixed points. Idempotence of the family
    is verified on the supplied samples before the retraction is built.
    """
    if parameter_samples is not None and fiber_samples is not None:
        sp.check_idempotent(parameter_samples, fiber_samples)
    pscale = sp.domain.scale
    sum_scale = direct_sum(pscale, sp.fiber)
    pdim = pscale.dim(0)
    quadrant = PartialQuadrant(sum_scale, sp.domain.quadrant.quadrant_indices)
    dom = ScDomain(quadrant)

    def fn(x):
        v, e = x[:pdim], x[pdim:]
        return np.concatenate([v, sp.project(v, e)])

    dfn = None
    if sp.dproject is not None:
        def dfn(x, h):
            v, e = x[:pdim], x[pdim:]
            dv, de = h[..., :pdim], h[..., pdim:]
            return np.concatenate([dv, sp.dproject(v, e, dv, de)], axis=-1)

    return Retraction(dom, fn, dfn, name=name)


def _poly_bump(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = (1.0 - t[inside] ** 2) ** 4
    return out


def _poly_bump_deriv(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = -8.0 * t[inside] * (1.0 - t[inside] ** 2) ** 3
    return out


def bump_splicing(scale):
    """Rank-jumping projection family from a translated bump profile.

    For s > 0 the family projects orthogonally (level-0 inner product) onto the
    span of the profile (1 - t^2)^4 on |t| < 1, normalized to unit level-0
    norm on the grid and translated to sit around -exp(1/s); for s <= 0 it is
    zero. project and dproject take rows of fiber vectors. Evaluations whose
    translated support exits the window raise WindowExitError.
    """
    if not isinstance(scale, WeightedGridScale):
        raise ValueError("bump splicing needs a weighted_grid fiber scale")
    norm_const = np.sqrt(scale.inner0(_poly_bump(scale.grid), _poly_bump(scale.grid)))

    def gauge(s):
        a = np.exp(1.0 / s)
        if a + 1.0 > scale.R:
            raise WindowExitError(
                f"translated support [{-a - 1.0:.2f}, {-a + 1.0:.2f}] "
                f"exits the window [-{scale.R}, {scale.R}]"
            )
        return a

    def f_s(s):
        return _poly_bump(scale.grid + gauge(s)) / norm_const

    def df_ds(s):
        a = gauge(s)
        return _poly_bump_deriv(scale.grid + a) / norm_const * (-a / (s * s))

    def project(v, e):
        s = float(np.atleast_1d(v)[0])
        if s <= 0.0:
            return np.zeros_like(np.asarray(e, dtype=float))
        f = f_s(s)
        return np.multiply.outer(scale.inner0(f, e) / scale.inner0(f, f), f)

    def dproject(v, e, dv, de):
        # linear in (dv, de): f_s, df_ds and the products with e once per block
        s = float(np.atleast_1d(v)[0])
        de = np.asarray(de, dtype=float)
        if s <= 0.0:
            return np.zeros_like(de)
        ds = np.asarray(dv, dtype=float)[..., 0]
        f = f_s(s)
        fp = df_ds(s)
        den = scale.inner0(f, f)
        c = scale.inner0(f, e) / den
        dc = (
            scale.inner0(fp, e) / den
            - c * 2.0 * scale.inner0(fp, f) / den
        ) * ds + scale.inner0(f, de) / den
        return np.multiply.outer(c * ds, fp) + np.multiply.outer(dc, f)

    param = FiniteDimScale(1, max_level=scale.max_level)
    sp = Splicing(
        domain=whole_scale_domain(param),
        fiber=scale,
        project=project,
        dproject=dproject,
    )
    sp.f_s = f_s
    sp.min_parameter = 1.0 / np.log(scale.R - 1.0)
    return sp


@dataclass
class TangentBasis:
    basis: np.ndarray
    dimension: int
    singular_values: np.ndarray


def retract_tangent_basis(r, x, seed=0):
    """Orthonormal basis of the image of Dr(x); its dimension is the local
    retract dimension.

    In ambient dimension up to 64, Dr(x) is applied to the full coordinate
    basis. Otherwise it is sketched on 24 seeded random directions, and a
    sketch whose rank fills all 24 has not seen the whole image, so Dr(x) is
    then applied to the full coordinate basis after all. Each matrix is one
    r.derivative call (the supplied dfn, else centered differences); the rank
    decision applies the guard band and raises AmbiguousRankError when
    undecidable.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    if d > 64:
        rng = np.random.default_rng(seed)
        probes = rng.standard_normal((d, 24))
        probes /= np.linalg.norm(probes, axis=0)
        basis, sing = _fd.orthonormal_columns(r.derivative(x, probes.T).T)
        if basis.shape[1] < probes.shape[1]:
            return TangentBasis(basis, basis.shape[1], sing)
    basis, sing = _fd.orthonormal_columns(r.derivative(x, np.eye(d)).T)
    return TangentBasis(basis, basis.shape[1], sing)


def tangent_independence_check(r1, r2, samples, seed=0):
    """Max principal-angle gap between the images of the two derivatives.

    Both retractions must present the same image: each sample must be fixed by
    both within MEMBERSHIP_TOL, and retracted perturbations of samples must
    land in both images within 10 MEMBERSHIP_TOL.
    """
    rng = np.random.default_rng(seed)
    for x in samples:
        x = np.asarray(x, dtype=float)
        for r, other in ((r1, r2), (r2, r1)):
            if not r.in_image(x):
                raise ImageMismatchError("sample not fixed by both retractions")
            y = r(x + 0.01 * rng.standard_normal(x.size) / np.sqrt(x.size))
            if not other.in_image(y, 10 * MEMBERSHIP_TOL):
                raise ImageMismatchError(
                    "retracted perturbation leaves the other image"
                )
    worst = 0.0
    for x in samples:
        b1 = retract_tangent_basis(r1, x, seed)
        b2 = retract_tangent_basis(r2, x, seed)
        worst = max(worst, _fd.subspace_gap(b1.basis, b2.basis))
    return worst


@dataclass
class NeatnessReport:
    complement_ok: bool
    sequence_status: str  # "pass" or "inconclusive"
    details: dict

    @property
    def passed(self):
        return self.complement_ok and self.sequence_status == "pass"


def neatness_check(model, x, seed=0):
    """Two-part boundary compatibility check at a point of the retract.

    Part one asks whether the free axes E_W, the coordinates outside the
    quadrant indices Q, complement the fixed space of Dr(x), the image that
    retract_tangent_basis finds as an orthonormal d x k frame n: whether
    [n, E_W] has rank d. That needs |Q| <= k. Its spectrum is read from the
    quadrant rows n[Q, :] (CS decomposition; Golub & Van Loan, Matrix
    Computations, 2.5.4): with mu the singular values of n[Q, :] and
    c = sqrt(max(1 - mu^2, 0)), the relative singular values that can fall
    short are mu / sqrt((1 + c)(1 + c_top)), where c_top = max c when
    |Q| = k and 1 when |Q| < k; all others are at least 1/sqrt(2). The
    complement exists when _fd.numerical_rank counts all |Q| of them, and
    its dimension is d - k. Part two looks for approximating points of the
    image with equal degeneracy; for x in the image the constant sequence
    suffices. Otherwise it samples a ladder: at each radius 1e-1, 1e-2,
    1e-3, up to 12 retracted perturbations of x, one of which must lie in
    the image with the degeneracy of x; when sampling finds no ladder the
    verdict is inconclusive rather than fail. Both rank decisions use the
    guard band, so AmbiguousRankError propagates.
    """
    r = model.retraction
    x = np.asarray(x, dtype=float)
    d = x.size

    n_basis = retract_tangent_basis(r, x, seed).basis
    k = n_basis.shape[1]
    qidx = list(model.quadrant.quadrant_indices)
    q = len(qidx)
    details = {"fixed_space_dim": k, "complement_dim": d - k if q <= k else 0}
    if q > k:
        complement_ok = False
    else:
        mu = np.linalg.svd(n_basis[qidx], compute_uv=False)
        c = np.sqrt(np.maximum(1.0 - mu ** 2, 0.0))
        c_top = c.max(initial=0.0) if q == k else 1.0
        short = mu / np.sqrt((1.0 + c) * (1.0 + c_top))
        complement_ok = _fd.numerical_rank(np.r_[1.0, short]) - 1 == q

    d_x = model.degeneracy(x)
    if model.contains(x):
        status = "pass"
        details["sequence"] = "constant sequence at smooth point"
    else:
        status = "inconclusive"
        rng = np.random.default_rng(seed)
        for radius in (1e-1, 1e-2, 1e-3):
            found = False
            for _ in range(12):
                y = r(x + radius * rng.standard_normal(d) / np.sqrt(d))
                # quadrant.contains(y) rules out the NotInQuadrantError that
                # model.degeneracy would raise: same indices, same tolerance
                if (model.contains(y) and model.quadrant.contains(y)
                        and model.degeneracy(y) == d_x):
                    found = True
                    break
            if not found:
                status = "inconclusive"
                break
            status = "pass"
        details["sequence"] = "sampled ladder over radii (0.1, 0.01, 0.001)"
    return NeatnessReport(complement_ok, status, details)


def corner_invariance_check(fwd, inv, src_quadrant, dst_quadrant, samples):
    """Max degeneracy discrepancy |d(x) - d(f(x))| over samples.

    fwd and inv are coordinate maps; inv must undo fwd on every sample within
    MEMBERSHIP_TOL, otherwise the fixture is rejected as non-invertible.
    """
    worst = 0
    rows = []
    for x in samples:
        x = np.asarray(x, dtype=float)
        y = np.asarray(fwd(x), dtype=float)
        back = np.asarray(inv(y), dtype=float)
        if src_quadrant.scale.norm(back - x, 0) > MEMBERSHIP_TOL:
            raise ValueError(f"fixture not invertible at {x.tolist()}")
        dx = degeneracy_index(src_quadrant, x)
        dy = degeneracy_index(dst_quadrant, y)
        rows.append((x, dx, dy))
        worst = max(worst, abs(dx - dy))
    return worst, rows


@dataclass
class GoodPositionReport:
    equivalence_ok: bool
    counterexamples: list
    interior_ok: bool
    interior_witness: np.ndarray | None

    @property
    def passed(self):
        return self.equivalence_ok and self.interior_ok


def good_position_check(n_basis, quadrant, nperp_basis, c, sample_count=400,
                        seed=0):
    """Sampled test that small complement moves do not change quadrant
    membership, plus an interior witness inside the subspace.

    For pairs (n, m) with |m| <= c |n| the statements n + m in C and n in C
    must agree; counterexamples are reported with both points. A combined
    basis with condition number above 1e6 raises DegenerateBasisError.
    """
    n_basis = np.atleast_2d(np.asarray(n_basis, dtype=float))
    if n_basis.shape[0] < n_basis.shape[1]:
        n_basis = n_basis.T
    nperp_basis = np.asarray(nperp_basis, dtype=float)
    if nperp_basis.size:
        nperp_basis = np.atleast_2d(nperp_basis)
        if nperp_basis.shape[0] < nperp_basis.shape[1]:
            nperp_basis = nperp_basis.T
    else:
        nperp_basis = np.zeros((n_basis.shape[0], 0))
    full = np.concatenate([n_basis, nperp_basis], axis=1)
    if full.shape[1] and np.linalg.cond(full) > 1e6:
        raise DegenerateBasisError("combined basis condition number too large")

    rng = np.random.default_rng(seed)
    k, j = n_basis.shape[1], nperp_basis.shape[1]
    counterexamples = []
    for _ in range(sample_count):
        a = rng.uniform(-1.0, 1.0, size=k)
        n_vec = n_basis @ a
        nn = np.linalg.norm(n_vec)
        if nn == 0.0:
            continue
        if j:
            b = rng.standard_normal(j)
            m_vec = nperp_basis @ b
            mn = np.linalg.norm(m_vec)
            if mn > 0:
                m_vec *= rng.uniform(0.0, 1.0) * c * nn / mn
        else:
            m_vec = np.zeros_like(n_vec)
        lhs = quadrant.contains(n_vec + m_vec)
        rhs = quadrant.contains(n_vec)
        if lhs != rhs:
            counterexamples.append((n_vec, m_vec))
    # interior relative to the subspace: a witness whose whole sampled
    # subspace ball stays inside the quadrant
    interior_witness = None
    for _ in range(sample_count):
        a = rng.uniform(-1.0, 1.0, size=k)
        n_vec = n_basis @ a
        nn = np.linalg.norm(n_vec)
        if nn == 0.0 or not quadrant.contains(n_vec):
            continue
        rho = 0.1 * nn
        ball_ok = True
        for _ in range(4 * k):
            delta = n_basis @ rng.standard_normal(k)
            dn = np.linalg.norm(delta)
            if dn == 0.0:
                continue
            if not quadrant.contains(n_vec + rho * delta / dn):
                ball_ok = False
                break
        if ball_ok:
            interior_witness = n_vec
            break
    return GoodPositionReport(
        equivalence_ok=not counterexamples,
        counterexamples=counterexamples,
        interior_ok=interior_witness is not None,
        interior_witness=interior_witness,
    )


@dataclass
class SubmanifoldChart:
    """Graph chart q -> base + q + A(q) over a neighborhood of 0 in C
    intersected with the subspace."""

    n_basis: np.ndarray
    nperp_basis: np.ndarray
    a_fn: object
    base_point: np.ndarray
    q_samples: np.ndarray
    points: np.ndarray

    def parametrize(self, q):
        q = np.atleast_1d(np.asarray(q, dtype=float))
        return self.base_point + self.n_basis @ q + self.nperp_basis @ np.atleast_1d(self.a_fn(q))

    def coordinates(self, y):
        """Invert the chart: split y - base into (q, b) along the two bases and
        check b against A(q)."""
        rhs = np.asarray(y, dtype=float) - self.base_point
        full = np.concatenate([self.n_basis, self.nperp_basis], axis=1)
        sol, *_ = np.linalg.lstsq(full, rhs, rcond=None)
        k = self.n_basis.shape[1]
        q, b = sol[:k], sol[k:]
        residual = np.linalg.norm(b - np.atleast_1d(self.a_fn(q)))
        return q, residual


def graph_chart_build(n_basis, nperp_basis, a_fn, quadrant, q_radius=0.5,
                      base_point=None):
    """Build a graph chart and its sampled manifold patch of 41 points.

    The graph map must satisfy |A(0)| <= 1e-10 and |DA(0)| <= 1e-6;
    injectivity of the parametrization is asserted on the sample set.
    """
    n_basis = np.atleast_2d(np.asarray(n_basis, dtype=float))
    if n_basis.shape[0] < n_basis.shape[1]:
        n_basis = n_basis.T
    nperp_basis = np.atleast_2d(np.asarray(nperp_basis, dtype=float))
    if nperp_basis.shape[0] < nperp_basis.shape[1]:
        nperp_basis = nperp_basis.T
    d = n_basis.shape[0]
    base_point = np.zeros(d) if base_point is None else np.asarray(base_point, dtype=float)
    k = n_basis.shape[1]

    a0 = np.linalg.norm(np.atleast_1d(a_fn(np.zeros(k))))
    if a0 > 1e-10:
        raise ValueError(f"graph map must vanish at 0, |A(0)| = {a0:g}")
    da0 = _fd.directional_derivative(lambda q: np.atleast_1d(a_fn(q)),
                                     np.zeros(k), np.ones(k) / np.sqrt(k))
    if np.linalg.norm(da0) > 1e-6:
        raise ValueError("graph map must have vanishing derivative at 0")

    if k == 1:
        qs = np.linspace(-q_radius, q_radius, 41)[:, None]
    else:
        rng = np.random.default_rng(0)
        qs = rng.uniform(-q_radius, q_radius, size=(41, k))
    keep = []
    for q in qs:
        candidate = base_point + n_basis @ q
        if quadrant.contains(candidate):
            keep.append(q)
    qs = np.array(keep)
    chart = SubmanifoldChart(n_basis, nperp_basis, a_fn, base_point, qs,
                             np.array([0.0]))
    pts = np.array([chart.parametrize(q) for q in qs])
    chart.points = pts
    if len(pts) >= 2:
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff ** 2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        qdiff = qs[:, None, :] - qs[None, :, :]
        qdist = np.sqrt((qdiff ** 2).sum(-1))
        np.fill_diagonal(qdist, np.inf)
        if np.any((dist < 1e-12) & (qdist > 1e-12)):
            raise ValueError("parametrization is not injective on samples")
    return chart


def chart_transition(chart_a, chart_b):
    """Transition map between overlapping graph charts as a map on the first
    chart's coordinates, between scales of max_level 3."""
    k = chart_a.n_basis.shape[1]
    scale = FiniteDimScale(k, max_level=3)

    def fn(q, level):
        y = chart_a.parametrize(q)
        q2, residual = chart_b.coordinates(y)
        if residual > 1e-6:
            raise DomainExitError(
                f"point leaves the second chart (graph residual {residual:g})"
            )
        return q2

    return ScMap(whole_scale_domain(scale), FiniteDimScale(k, max_level=3),
                 fn, name="transition")


def _smoothstep(t):
    return 0.5 * (1.0 + np.tanh(t))


@dataclass
class PathSample:
    kind: str  # "unbroken" or "broken"
    glue: float
    shape: np.ndarray
    degeneracy: int
    level: int
    local_dimension: int
    curve: np.ndarray  # sampled points in R^n (unbroken) or two stacked curves

    def row(self):
        return {
            "sample": {"kind": self.kind, "glue": self.glue,
                       "shape": self.shape.tolist()},
            "level": self.level,
            "local_dimension": self.local_dimension,
            "degeneracy_index": self.degeneracy,
        }


@dataclass
class BrokenPathDemo:
    model: LocalScModel
    anchors: tuple
    samples: list

    def rows(self):
        return [s.row() for s in self.samples]

    def degeneracy_profile(self):
        return [(s.glue, s.degeneracy) for s in self.samples]


def broken_path_demo(a, b, c, glue_values=(0.0, 0.08, 0.15, 0.4, 1.0),
                     shape_amplitude=0.2):
    """Gluing-parameter model of paths that may break once at the middle point.

    The chart is a quadrant [0, infinity) x shape space, with one shape
    coordinate per leg: glue parameter zero is the broken stratum (degeneracy
    one), positive glue is unbroken interior (degeneracy zero). Curves are
    sampled at 201 times in [-10, 10] and use a time shift growing like
    exp(1/glue), capped at 1e12, so shrinking the glue parameter parks the
    visible window at the middle point.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    for p, q in ((a, b), (b, c), (a, c)):
        if np.linalg.norm(p - q) < 1e-12:
            raise ValueError("anchor points must be mutually distinct")
    t_grid = np.linspace(-10.0, 10.0, 201)
    p1 = p2 = 1
    dim = 1 + p1 + p2
    scale = FiniteDimScale(dim, max_level=3)
    quadrant = PartialQuadrant(scale, (0,))
    dom = ScDomain(quadrant)
    ident = Retraction(dom, lambda x: x, lambda x, h: h, name="broken-path-chart")
    model = LocalScModel(ident)

    def leg(p, q, t):
        return p[None, :] + (q - p)[None, :] * _smoothstep(t)[:, None]

    def bumps(t, coeffs):
        out = np.zeros((t.size, a.size))
        for j, w in enumerate(np.atleast_1d(coeffs)):
            out[:, j % a.size] += w * np.exp(-((t - (j - 0.5)) ** 2))
        return out

    rng = np.random.default_rng(11)
    samples = []
    for g in glue_values:
        w = shape_amplitude * rng.standard_normal(p1 + p2)
        coords = np.concatenate([[g], w])
        d = model.degeneracy(coords)
        if g == 0.0:
            first = leg(a, b, t_grid) + bumps(t_grid, w[:p1])
            second = leg(b, c, t_grid) + bumps(t_grid, w[p1:])
            curve = np.stack([first, second])
            kind = "broken"
        else:
            shift = min(np.exp(1.0 / g), 1e12)
            curve = (leg(a, b, t_grid + shift) + leg(b, c, t_grid - shift) - b[None, :]
                     + bumps(t_grid, w[:p1]))[None, :, :]
            kind = "unbroken"
        basis = retract_tangent_basis(ident, coords)
        samples.append(PathSample(kind, float(g), w, d, scale.max_level,
                                  basis.dimension, curve))
    return BrokenPathDemo(model, (a, b, c), samples)
