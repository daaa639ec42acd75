"""Contraction normal forms and the level-wise fixed-point solution machinery.

A germ in normal form sends (a, w) to (q(a, w), w - B(a, w)) where B contracts
in w on every level near the origin. Solving w = B(a, w) by Picard iteration
level by level produces the solution sheet a -> delta(a); uniqueness makes the
level-m solution agree with the lower-level ones, which is verified rather
than assumed. Fillings extend a section from a retract to the ambient set; the
library verifies supplied fillings, it does not construct them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _fd
from ._text import csv_text
from .errors import NonConvergenceError
from .sc_core import FiniteDimScale, PartialQuadrant, degeneracy_index, fredholm_split

GERM_ORIGIN_TOL = 1e-12


@dataclass
class BasicGerm:
    """Normal-form germ data.

    base_dim n with the first quadrant_count coordinates constrained to
    [0, inf); residue_dim N; fiber scale W; b_fn(a, w, level) evaluates the
    contraction part, residue_fn(a, w) the finite residue block. Both map
    rows: a of shape (..., n) and w of shape (..., dim W) to (..., dim W) and
    (..., N), a 1-D argument being the one row. Contraction constants eps and
    validity radii rho are recorded per level.
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
        a, w = np.asarray(a, dtype=float), np.asarray(w, dtype=float)
        return _fd.check_rows(a, np.asarray(self.b_fn(a, w, level), dtype=float),
                              w.shape[-1:], "germ b_fn", arg="a")

    def residue(self, a, w):
        a = np.asarray(a, dtype=float)
        if self.residue_fn is None:
            return np.zeros(a.shape[:-1] + (0,))
        out = np.asarray(self.residue_fn(a, np.asarray(w, dtype=float)), dtype=float)
        return _fd.check_rows(a, np.atleast_1d(out), (self.residue_dim,),
                              "germ residue_fn", arg="a")

    def base_quadrant(self):
        return PartialQuadrant(FiniteDimScale(self.base_dim),
                               tuple(range(self.quadrant_count)))


def contraction_verify(germ, m, sample_count=200, seed=0):
    """Max observed contraction ratio of B at level m over seeded sample pairs
    within the validity radius; passes when it stays below the declared constant.
    B is evaluated on all pairs in two row calls; pairs within 1e-14 are skipped."""
    rng = np.random.default_rng(seed)
    rho = germ.radii[m]
    dim_w = germ.fiber.dim(m)
    a, (w1, w2) = np.empty((sample_count, germ.base_dim)), np.empty((2, sample_count, dim_w))
    for ai, w1i, w2i in zip(a, w1, w2):
        ai[:] = rng.uniform(-1.0, 1.0, germ.base_dim)
        ai[:germ.quadrant_count] = np.abs(ai[:germ.quadrant_count])
        ai *= rho * rng.uniform(0.0, 1.0) / max(np.linalg.norm(ai), 1e-30)
        w1i[:], w2i[:] = rng.standard_normal(dim_w), rng.standard_normal(dim_w)
        for w in (w1i, w2i):
            nw = germ.fiber.norm(w, m)
            if nw > 0:
                w *= rho * rng.uniform(0.0, 1.0) / nw
    dw = germ.fiber.norms(w1 - w2, m)
    db = germ.fiber.norms(germ.b(a, w1, m) - germ.b(a, w2, m), m)
    return max([0.0] + (db[dw >= 1e-14] / dw[dw >= 1e-14]).tolist())


def _apply(mat, v):
    """mat @ row for each row of v, one gemv per row as for a 1-D v."""
    return (mat @ v[..., None])[..., 0]


@dataclass
class SolveInfo:
    iterations: int  # sweeps of the call: the most Picard steps of any row
    residual: float | list  # residual, rates and bound: per row for rows
    rates: list
    bound: int | None | list
    row_iterations: list | None = None  # rows only, as errors (exception or None)
    errors: list | None = None


def solve_germ(germ, a, m, tol=1e-12, max_iter=500):
    """Fixed points of w -> B(a, w) at level m from the zero initial guess, at
    each row of the (n, base_dim) parameters a; a 1-D a is the one row, and
    any other shape raises ValueError.

    Picard iteration mirrors the contraction argument. A row fails with
    ValueError outside the validity radius, and with NonConvergenceError when
    |B(a, 0)| or a residual is not finite (iterates from zero stay within
    |B(a, 0)|/(1 - eps)) or after max_iter steps. Each row stops on its own;
    only live rows are evaluated. A 1-D a returns its fixed point or raises
    its error; rows return their (n, dim) last iterates and info.errors.
    """
    rows = np.atleast_2d(np.asarray(a, dtype=float))
    if rows.ndim > 2 or rows.shape[1] != germ.base_dim:
        raise ValueError(f"parameters a of shape {np.shape(a)}; rows need shape "
                         f"({germ.base_dim},) or (n, {germ.base_dim})")
    n, epsm = len(rows), germ.eps[m]
    w, errors = np.zeros((n, germ.fiber.dim(m))), [None] * n
    steps, residual, b0 = np.zeros(n, dtype=int), np.full(n, np.nan), np.full(n, np.nan)
    history = np.full((max_iter, n), np.nan)  # the residual of each step taken
    inside = ~(np.sqrt(_fd.squares(rows)) > germ.radii[m] * (1 + 1e-12))
    if inside.any():
        b0[inside] = germ.fiber.norms(germ.b(rows[inside], w[inside], m), m)
    for i in np.flatnonzero(~np.isfinite(b0)):
        errors[i] = NonConvergenceError(
            f"|B(a, 0)| is {b0[i]:g} at level {m}; contraction assumption violated"
        ) if inside[i] else ValueError(
            f"parameter outside validity radius {germ.radii[m]:g}")
    bound = [int(np.ceil(np.log(tol * (1 - epsm) / b) / np.log(epsm))) + 5
             if epsm < 1.0 and tol < b < math.inf else None for b in b0.tolist()]
    idx = np.flatnonzero(np.isfinite(b0))
    a_live, w_live, res = rows[idx], w[idx], b0[idx]
    for it in range(1, max_iter + 1):
        if not idx.size:
            break
        bw = germ.b(a_live, w_live, m)
        res = germ.fiber.norms(w_live - bw, m)
        go = (tol < res) & (res < math.inf)
        if not go.all():
            stop = idx[~go]
            for i, r in zip(stop, res[~go]):
                if not r <= tol:
                    errors[i] = NonConvergenceError(
                        f"residual {r:g} at level {m}, iteration {it}; "
                        "contraction assumption violated")
            w[stop], residual[stop], steps[stop] = w_live[~go], res[~go], it - 1
            idx, a_live, bw, res = idx[go], a_live[go], bw[go], res[go]
        history[it - 1, idx] = res  # the length of the Picard step w -> B(a, w)
        w_live = bw
    w[idx], residual[idx], steps[idx] = w_live, res, max_iter
    for i in idx:
        errors[i] = NonConvergenceError(
            f"no fixed point within {max_iter} iterations at level {m} (last "
            f"residual {residual[i]:g}); contraction assumption may be violated")
    # rates from steps already at round-off would only measure noise
    taken = history[:steps.max(initial=0)]
    rates = [r[k].tolist() for r, k in zip((taken[1:] / taken[:-1]).T,
                                           (taken[1:] > 100 * tol).T)]
    if np.ndim(a) < 2:
        if errors[0] is not None:
            raise errors[0]
        return w[0], SolveInfo(int(steps[0]), float(residual[0]), rates[0], bound[0])
    return w, SolveInfo(int(steps.max(initial=0)), residual.tolist(), rates, bound,
                        steps.tolist(), errors)


def fixed_points(germ, a, m, tol, max_iter):
    """The fixed points of solve_germ at the rows (..., base_dim) of a, shape
    (..., dim), from one solve_germ call; a failing row raises its error, the
    first one when several fail, as a 1-D a raises its own."""
    a = np.asarray(a, dtype=float)
    w, info = solve_germ(germ, a.reshape(-1, a.shape[-1]) if a.ndim > 2 else a,
                         m, tol, max_iter)
    for e in info.errors or ():
        if e is not None:
            raise e
    return w.reshape(a.shape[:-1] + w.shape[-1:])


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
        return csv_text(
            [f"a{i}" for i in range(self.germ.base_dim)] + ["level"]
            + [f"delta{i}" for i in range(self.germ.fiber.dim(0))]
            + ["iterations", "rate"],
            [[*node.a, m, *node.deltas[m], node.iterations[m],
              max(node.rates[m]) if node.rates[m] else 0.0]
             for node in self.nodes for m in range(self.m_max + 1)])


def solution_sheet(germ, a_grid, m_max=None, tol=1e-12):
    """Solve at every node of the (n, base_dim) rows a_grid, a 1-D grid being
    one coordinate per node, and every level, one solve_germ call per level,
    recording iteration counts, contraction rates, level coherence, and grid
    derivative estimates. A failure raises the error of the first failing node
    at its lowest failing level, a NonConvergenceError prefixed with the node."""
    m_max = germ.fiber.max_level if m_max is None else m_max
    a_grid = np.asarray(a_grid, dtype=float).reshape(len(a_grid), -1)
    if a_grid.shape[1] != germ.base_dim:
        raise ValueError(f"grid of shape {a_grid.shape} needs rows of the base "
                         f"dimension {germ.base_dim}")
    solved = [solve_germ(germ, a_grid, m, tol=tol) for m in range(m_max + 1)]
    for i, a in enumerate(a_grid):
        exc = next((info.errors[i] for _, info in solved if info.errors[i]), None)
        if isinstance(exc, NonConvergenceError):
            raise NonConvergenceError(f"node {a.tolist()}: {exc}") from exc
        if exc:
            raise exc
    coherence = [germ.fiber.norms(solved[m][0] - solved[m - 1][0], m - 1).tolist()
                 for m in range(1, m_max + 1)]
    nodes = [SheetNode(a, [w[i] for w, _ in solved],
                       [info.row_iterations[i] for _, info in solved],
                       [info.rates[i] for _, info in solved],
                       [c[i] for c in coherence])
             for i, a in enumerate(a_grid)]
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
    expected manifold dimension. The mesh rows are corrected together by
    _fd.gauss_newton along the complement of the kernel, so each row keeps
    its kernel coordinates, and a row is kept at residue below 1e-9.
    Surjectivity of the reduced derivative (a smallest singular value above
    _fd.SURJECTIVITY_FLOOR) is required at the origin and reported at every
    sample; AmbiguousRankError propagates from its split, and a failed Picard
    solve raises the error of its first failing row.
    """
    n, N = germ.base_dim, germ.residue_dim

    def reduced(a):
        return germ.residue(a, fixed_points(germ, a, 0, 1e-10, 500))

    if N == 0:
        kernel = np.eye(n)
        base_sv = np.inf
    else:
        split = fredholm_split(_fd.jacobian(reduced, np.zeros(n), N, _fd.JACOBIAN_STEP))
        sv = split.singular_values
        base_sv = float(sv[N - 1]) if sv.size >= N else 0.0
        if base_sv <= _fd.SURJECTIVITY_FLOOR:
            raise NonConvergenceError(
                f"linearization not surjective at the base point "
                f"(smallest residue singular value {base_sv:g})"
            )
        kernel = split.kernel
    k_dim = kernel.shape[1]
    if kernel_dim is not None and kernel_dim != k_dim:
        raise ValueError(f"expected kernel dimension {kernel_dim}, got {k_dim}")

    quadrant = germ.base_quadrant()
    grids = [np.linspace(-0.3, 0.3, samples_per_dim)] * k_dim
    mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, k_dim) \
        if k_dim else np.zeros((1, 0))
    a, res = _apply(kernel, mesh), np.zeros(len(mesh))
    if N:
        complement = fredholm_split(kernel.T).kernel

        def jac(x, h):
            # the Jacobian along the complement only, so steps stay in it
            xi = np.zeros((len(x), complement.shape[1]))
            return _fd.jacobian(lambda z: reduced(x + _apply(complement, z)),
                                xi, N, h) @ complement.T

        a, res = _fd.gauss_newton(reduced, a, N, max_iter=50, jac=jac)
    keep, degs = [], []
    for i in np.flatnonzero(res < 1e-9):
        if quadrant.contains(a[i]):
            keep.append(i)
            degs.append(degeneracy_index(quadrant, a[i]))
    a, w = a[keep], fixed_points(germ, a[keep], 0, 1e-10, 500)
    surj = np.full(len(keep), np.inf)
    if N and keep:
        jacs = _fd.jacobian(reduced, a, N, _fd.JACOBIAN_STEP)
        surj = np.linalg.svd(jacs, compute_uv=False)[:, N - 1]
    samples = [ManifoldSample(ai, wi, mesh[i], float(s), deg)
               for ai, wi, i, s, deg in zip(a, w, keep, surj, degs)]
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
        return self.x0 + _apply(self.kernel_frame, a) + _apply(self.row_frame, w)


def germ_from_map(fn, x0, out_dim, radius=1.0):
    """Normal form of a finite-dimensional map near a point.

    Splits coordinates along the kernel and row space of the derivative, one
    fredholm_split of its matrix, whose singular values also scale the image
    block; the fixed-point part becomes a contraction near the point and the
    cokernel component becomes the finite residue block. Solving the
    fixed-point equation implements a quasi-Newton corrector whose fixed
    points are the zeros of the image component. fn maps rows (..., d) to
    (..., out_dim), and so do the germ's callbacks. AmbiguousRankError
    propagates from the split.
    """
    x0 = np.asarray(x0, dtype=float)
    split = fredholm_split(_fd.jacobian(fn, x0, out_dim, _fd.JACOBIAN_STEP))
    kernel, row, image, coker = split.kernel, split.complement, split.image, split.cokernel
    r = image.shape[1]
    sigma = split.singular_values[:r]

    def b_fn(a, w, level):
        return w - _apply(image.T, fn(x0 + _apply(kernel, a) + _apply(row, w))) / sigma

    def residue_fn(a, w):
        return _apply(coker.T, fn(x0 + _apply(kernel, a) + _apply(row, w)))

    germ = BasicGerm(kernel.shape[1], 0, coker.shape[1], FiniteDimScale(r, max_level=0),
                     b_fn, residue_fn if coker.shape[1] else None, eps=(0.5,),
                     radii=(radius,), validate=False)
    return PointGerm(germ, x0, kernel, row)
