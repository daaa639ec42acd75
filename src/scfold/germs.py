"""Contraction normal forms and the level-wise fixed-point solution machinery.

A germ in normal form sends (a, w) to (q(a, w), w - B(a, w)) where B contracts
in w on every level near the origin. Solving w = B(a, w) by Picard iteration
level by level produces the solution sheet a -> delta(a); uniqueness makes the
level-m solution agree with the lower-level ones, which is verified rather
than assumed. Fillings extend a section from a retract to the ambient set; the
library verifies supplied fillings, it does not construct them.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import _fd
from .errors import NonConvergenceError, NotInQuadrantError
from .sc_core import FiniteDimScale, PartialQuadrant, degeneracy_index, fredholm_split

GERM_ORIGIN_TOL = 1e-12


@dataclass
class BasicGerm:
    """Normal-form germ data.

    base_dim n with the first quadrant_count coordinates constrained to
    [0, inf); residue_dim N; fiber scale W; b_fn(a, w, level) evaluates the
    contraction part, residue_fn(a, w) the finite residue block. Contraction
    constants eps and validity radii rho are recorded per level.
    """

    base_dim: int
    quadrant_count: int
    residue_dim: int
    fiber: object
    b_fn: object
    residue_fn: object = None
    eps: tuple = (0.5,)
    radii: tuple = (1.0,)
    validate: bool = True

    def __post_init__(self):
        self.eps = tuple(float(e) for e in np.broadcast_to(self.eps, (self.fiber.max_level + 1,)))
        self.radii = tuple(float(r) for r in np.broadcast_to(self.radii, (self.fiber.max_level + 1,)))
        if self.residue_dim > 0 and self.residue_fn is None:
            raise ValueError("residue evaluator required when residue_dim > 0")
        if self.validate:
            zero_a = np.zeros(self.base_dim)
            zero_w = np.zeros(self.fiber.dim(0))
            b0 = self.fiber.norm(self.b_fn(zero_a, zero_w, 0), 0)
            if b0 > GERM_ORIGIN_TOL:
                raise ValueError(f"germ must vanish at the origin, |B(0,0)| = {b0:g}")
            if self.residue_dim:
                q0 = np.linalg.norm(self.residue_fn(zero_a, zero_w))
                if q0 > GERM_ORIGIN_TOL:
                    raise ValueError(f"residue must vanish at the origin: {q0:g}")

    def b(self, a, w, level=0):
        return np.asarray(self.b_fn(np.asarray(a, dtype=float),
                                    np.asarray(w, dtype=float), level), dtype=float)

    def residue(self, a, w):
        if self.residue_fn is None:
            return np.zeros(0)
        return np.atleast_1d(np.asarray(self.residue_fn(np.asarray(a, dtype=float),
                                                        np.asarray(w, dtype=float)), dtype=float))

    def base_quadrant(self):
        return PartialQuadrant(FiniteDimScale(self.base_dim),
                               tuple(range(self.quadrant_count)))


def contraction_verify(germ, m, sample_count=200, seed=0):
    """Max observed contraction ratio of B at level m over seeded sample pairs
    within the validity radius; passes when it stays below the declared constant."""
    rng = np.random.default_rng(seed)
    rho = germ.radii[m]
    dim_w = germ.fiber.dim(m)
    worst = 0.0
    for _ in range(sample_count):
        a = rng.uniform(-1.0, 1.0, germ.base_dim)
        a[:germ.quadrant_count] = np.abs(a[:germ.quadrant_count])
        a *= rho * rng.uniform(0.0, 1.0) / max(np.linalg.norm(a), 1e-30)
        w1 = rng.standard_normal(dim_w)
        w2 = rng.standard_normal(dim_w)
        for w in (w1, w2):
            nw = germ.fiber.norm(w, m)
            if nw > 0:
                w *= rho * rng.uniform(0.0, 1.0) / nw
        dw = germ.fiber.norm(w1 - w2, m)
        if dw < 1e-14:
            continue
        db = germ.fiber.norm(germ.b(a, w1, m) - germ.b(a, w2, m), m)
        worst = max(worst, db / dw)
    return worst


@dataclass
class SolveInfo:
    iterations: int
    residual: float
    rates: list
    bound: int | None

    @property
    def rate(self):
        return max(self.rates) if self.rates else 0.0


def solve_germ(germ, a, m, tol=1e-12, max_iter=500):
    """Fixed point of w -> B(a, w) at level m from the zero initial guess.

    Picard iteration mirrors the contraction argument. Non-convergence within
    max_iter signals a contraction-assumption breach, and so does a non-finite
    |B(a, 0)| or residual: Picard iterates from zero stay within
    |B(a, 0)|/(1 - eps), so the iteration stops at the first one.
    """
    a = np.asarray(a, dtype=float)
    if np.linalg.norm(a) > germ.radii[m] * (1 + 1e-12):
        raise ValueError(f"parameter outside validity radius {germ.radii[m]:g}")
    w = np.zeros(germ.fiber.dim(m))
    b0 = germ.fiber.norm(germ.b(a, w, m), m)
    if not math.isfinite(b0):
        raise NonConvergenceError(
            f"|B(a, 0)| is {b0:g} at level {m}; contraction assumption violated")
    epsm = germ.eps[m]
    bound = None
    if epsm < 1.0 and b0 > tol:
        bound = int(np.ceil(np.log(tol * (1 - epsm) / b0) / np.log(epsm))) + 5
    rates = []
    prev_step = None
    for it in range(1, max_iter + 1):
        bw = germ.b(a, w, m)
        residual = germ.fiber.norm(w - bw, m)
        if residual <= tol:
            return w, SolveInfo(it - 1, residual, rates, bound)
        if not math.isfinite(residual):
            raise NonConvergenceError(
                f"residual {residual:g} at level {m}, iteration {it}; "
                "contraction assumption violated")
        # the residual is the length of the Picard step w -> B(a, w); rates
        # from steps already at round-off would only measure noise
        if prev_step is not None and residual > 100 * tol:
            rates.append(residual / prev_step)
        prev_step = residual
        w = bw
    raise NonConvergenceError(
        f"no fixed point within {max_iter} iterations at level {m} "
        f"(last residual {residual:g}); contraction assumption may be violated"
    )


@dataclass
class SheetNode:
    a: np.ndarray
    deltas: list  # per level
    iterations: list
    rates: list
    coherence: list  # |delta_m - delta_{m-1}|_{m-1}


@dataclass
class SolutionSheet:
    germ: BasicGerm
    nodes: list
    m_max: int
    tol: float
    derivative_estimates: np.ndarray | None = None

    def max_coherence(self):
        vals = [c for node in self.nodes for c in node.coherence]
        return max(vals) if vals else 0.0

    def delta_array(self, level):
        return np.array([node.deltas[level] for node in self.nodes])

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        dim_w = self.germ.fiber.dim(0)
        w.writerow(
            [f"a{i}" for i in range(self.germ.base_dim)]
            + ["level"]
            + [f"delta{i}" for i in range(dim_w)]
            + ["iterations", "rate"]
        )
        for node in self.nodes:
            for m in range(self.m_max + 1):
                rate = max(node.rates[m]) if node.rates[m] else 0.0
                w.writerow(
                    [repr(float(v)) for v in node.a]
                    + [m]
                    + [repr(float(v)) for v in node.deltas[m]]
                    + [node.iterations[m], repr(rate)]
                )
        return buf.getvalue()


def solution_sheet(germ, a_grid, m_max=None, tol=1e-12):
    """Solve at every grid node and every level, recording iteration counts,
    contraction rates, level coherence, and grid derivative estimates."""
    m_max = germ.fiber.max_level if m_max is None else m_max
    a_grid = np.atleast_2d(np.asarray(a_grid, dtype=float))
    if a_grid.shape[1] != germ.base_dim:
        a_grid = a_grid.T
    nodes = []
    for a in a_grid:
        deltas, iters, rates, coher = [], [], [], []
        for m in range(m_max + 1):
            try:
                w, info = solve_germ(germ, a, m, tol=tol)
            except NonConvergenceError as exc:
                raise NonConvergenceError(f"node {a.tolist()}: {exc}") from exc
            deltas.append(w)
            iters.append(info.iterations)
            rates.append(info.rates)
            if m > 0:
                coher.append(germ.fiber.norm(deltas[m] - deltas[m - 1], m - 1))
        nodes.append(SheetNode(a, deltas, iters, rates, coher))
    sheet = SolutionSheet(germ, nodes, m_max, tol)
    if germ.base_dim == 1 and len(nodes) > 2:
        order = np.argsort(a_grid[:, 0])
        xs = a_grid[order, 0]
        if np.allclose(np.diff(xs), np.diff(xs)[0]):
            vals = sheet.delta_array(m_max)[order]
            grads = np.gradient(vals, xs, axis=0)
            sheet.derivative_estimates = grads[np.argsort(order)]
    return sheet


# ---------------------------------------------------------------------------
# fillings


@dataclass
class FillingData:
    """Supplied extension of a section from a retract to the ambient set.

    ambient_fn(y) evaluates the extension on ambient points; retraction is the
    bundle's base retraction r; phi(y, h) applies the fiber projection part of
    the strong retraction at one point y to the rows of h, (..., fiber_dim)
    to (..., fiber_dim). section_fn defaults to the restriction of the
    extension to the retract.
    """

    ambient_fn: object
    retraction: object
    phi: object
    fiber: object
    section_fn: object = None

    def section(self, y):
        fn = self.section_fn or self.ambient_fn
        return np.asarray(fn(np.asarray(y, dtype=float)), dtype=float)

    def gap(self, y):
        """(Id - phi(r(y))) applied to the extension at y."""
        y = np.asarray(y, dtype=float)
        ry = self.retraction(y)
        fy = np.asarray(self.ambient_fn(y), dtype=float)
        return fy - np.asarray(self.phi(ry, fy), dtype=float)


@dataclass
class FillingReport:
    agreement: float
    solution_membership: float
    iso_condition: float
    iso_min_singular: float
    checks: dict

    @property
    def passed(self):
        return all(self.checks.values())


def filling_verify(fd, x, seed=0):
    """Three-part verification of a supplied filling at a smooth point.

    (1) the extension agrees with the section within 1e-9 on 12 retract
    points near x;
    (2) ambient solutions of the projected equation, found by damped
    relaxation (200 steps at rate 0.5) from 12 seeded starts, lie on the
    retract within 1e-9;
    (3) the linearization of the gap map restricted to the kernel of Dr(x)
    is an isomorphism onto the kernel of phi(x): its smallest singular value
    exceeds 1e-8, and its condition is reported. AmbiguousRankError
    propagates from the splits of Dr(x) and phi(x).
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    r = fd.retraction
    scale = r.scale
    d = x.size

    agree = 0.0
    for _ in range(12):
        y = r(x + 0.05 * rng.standard_normal(d) / np.sqrt(d))
        agree = max(agree, fd.fiber.norm(
            np.asarray(fd.ambient_fn(y)) - fd.section(y), 0))

    member = 0.0
    fiber_dim = fd.fiber.dim(0)
    for _ in range(12):
        y = x + 0.05 * rng.standard_normal(d) / np.sqrt(d)
        for _ in range(200):
            g = fd.gap(y)
            if fd.fiber.norm(g, 0) < 1e-13:
                break
            y = y - 0.5 * _embed_fiber(g, d, fiber_dim)
        member = max(member, scale.norm(r(y) - y, 0))

    ker_r = fredholm_split(r.derivative(x, np.eye(d)).T).kernel
    phi_mat = np.asarray(fd.phi(x, np.eye(fiber_dim)), dtype=float).T
    ker_phi = fredholm_split(phi_mat).kernel
    if ker_r.shape[1] != ker_phi.shape[1]:
        iso_min, iso_cond = 0.0, np.inf
    elif ker_r.shape[1] == 0:
        iso_min, iso_cond = 1.0, 1.0  # trivial kernels on both sides
    else:
        lin = _fd.directional_derivative(fd.gap, x, ker_r.T).T
        sv = np.linalg.svd(ker_phi.T @ lin, compute_uv=False)
        iso_min = float(sv.min())
        iso_cond = float(sv.max() / sv.min()) if sv.min() > 0 else np.inf
    checks = {
        "agreement": agree <= 1e-9,
        "solutions_in_retract": member <= 1e-9,
        "isomorphism": iso_min > 1e-8,
    }
    return FillingReport(agree, member, iso_cond, iso_min, checks)


def _embed_fiber(g, ambient_dim, fiber_dim):
    out = np.zeros(ambient_dim)
    out[ambient_dim - fiber_dim:] = g
    return out


# ---------------------------------------------------------------------------
# local solution manifolds


@dataclass
class ManifoldSample:
    a: np.ndarray
    w: np.ndarray
    kernel_coords: np.ndarray
    surjectivity: float
    degeneracy: int


@dataclass
class ManifoldReport:
    samples: list
    kernel_basis: np.ndarray
    dimension: int
    base_surjectivity: float

    def boundary_samples(self):
        return [s for s in self.samples if s.degeneracy >= 1]


def local_solution_manifold(germ, kernel_dim=None, samples_per_dim=9):
    """Sampled solution set of the full germ equation near the origin.

    The fiber part is solved by the fixed-point iteration to tolerance 1e-10;
    the finite residue equation is reduced to the parameter block and sampled
    over its kernel, on a grid of half-width 0.3, whose dimension is the
    expected manifold dimension. Surjectivity of the reduced derivative (a
    smallest singular value above 1e-8) is required at the origin and
    reported at every sample; AmbiguousRankError propagates from its split.
    """
    n, N = germ.base_dim, germ.residue_dim

    def reduced(a):
        w, _ = solve_germ(germ, a, 0, tol=1e-10)
        return germ.residue(a, w)

    if N == 0:
        kernel = np.eye(n)
        base_sv = np.inf
    else:
        split = fredholm_split(_fd.jacobian(reduced, np.zeros(n), N, _fd.JACOBIAN_STEP))
        sv = split.singular_values
        base_sv = float(sv[N - 1]) if sv.size >= N else 0.0
        if base_sv <= 1e-8:
            raise NonConvergenceError(
                f"linearization not surjective at the base point "
                f"(smallest residue singular value {base_sv:g})"
            )
        kernel = split.kernel
    k_dim = kernel.shape[1]
    if kernel_dim is not None and kernel_dim != k_dim:
        raise ValueError(f"expected kernel dimension {kernel_dim}, got {k_dim}")

    quadrant = germ.base_quadrant()
    complement = fredholm_split(kernel.T).kernel if N else np.zeros((n, 0))
    grids = [np.linspace(-0.3, 0.3, samples_per_dim)] * k_dim
    mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, k_dim) \
        if k_dim else np.zeros((1, 0))
    samples = []
    for kappa in mesh:
        a = kernel @ kappa
        if N:
            xi = np.zeros(N)
            ok = False
            for _ in range(50):
                val = reduced(a + complement @ xi)
                if np.linalg.norm(val) < 1e-9:
                    ok = True
                    break
                jac = _fd.jacobian(lambda z: reduced(a + complement @ z), xi, N,
                                   _fd.JACOBIAN_STEP)
                try:
                    xi = xi - np.linalg.solve(jac, val)
                except np.linalg.LinAlgError:
                    break
            if not ok:
                continue
            a = a + complement @ xi
        try:
            if not quadrant.contains(a):
                continue
            deg = degeneracy_index(quadrant, a)
        except NotInQuadrantError:
            continue
        w, _ = solve_germ(germ, a, 0, tol=1e-10)
        if N:
            jac = _fd.jacobian(reduced, a, N, _fd.JACOBIAN_STEP)
            sv = np.linalg.svd(jac, compute_uv=False)
            surj = float(sv[N - 1])
        else:
            surj = np.inf
        samples.append(ManifoldSample(a, w, kappa, surj, deg))
    return ManifoldReport(samples, kernel, k_dim, base_sv)


# ---------------------------------------------------------------------------
# normal form at a point of a finite-dimensional map


@dataclass
class PointGerm:
    """Germ data produced from a map at an approximate zero, together with the
    frames needed to translate between germ and ambient coordinates."""

    germ: BasicGerm
    x0: np.ndarray
    kernel_frame: np.ndarray
    row_frame: np.ndarray

    def ambient(self, a, w):
        return self.x0 + self.kernel_frame @ np.atleast_1d(a) + self.row_frame @ np.atleast_1d(w)


def germ_from_map(fn, x0, out_dim, radius=1.0):
    """Normal form of a finite-dimensional map near a point.

    Splits coordinates along the kernel and row space of the derivative, one
    fredholm_split of its matrix, whose singular values also scale the image
    block; the fixed-point part becomes a contraction near the point and the
    cokernel component becomes the finite residue block. Solving the
    fixed-point equation implements a quasi-Newton corrector whose fixed
    points are the zeros of the image component. AmbiguousRankError
    propagates from the split.
    """
    x0 = np.asarray(x0, dtype=float)
    split = fredholm_split(_fd.jacobian(fn, x0, out_dim, _fd.JACOBIAN_STEP))
    kernel, row, image, coker = split.kernel, split.complement, split.image, split.cokernel
    r = image.shape[1]
    sigma = split.singular_values[:r]

    def b_fn(a, w, level):
        x = x0 + kernel @ np.atleast_1d(a) + row @ np.atleast_1d(w)
        y = image.T @ np.atleast_1d(fn(x))
        return np.atleast_1d(w) - y / sigma

    def residue_fn(a, w):
        x = x0 + kernel @ np.atleast_1d(a) + row @ np.atleast_1d(w)
        return coker.T @ np.atleast_1d(fn(x))

    germ = BasicGerm(
        base_dim=kernel.shape[1],
        quadrant_count=0,
        residue_dim=coker.shape[1],
        fiber=FiniteDimScale(r, max_level=0),
        b_fn=b_fn,
        residue_fn=residue_fn if coker.shape[1] else None,
        eps=(0.5,),
        radii=(radius,),
        validate=False,
    )
    return PointGerm(germ, x0, kernel, row)
