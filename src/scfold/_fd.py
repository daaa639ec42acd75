"""Shared numerical kernels: difference stencils, quadrature weights, rank
decisions and the Gauss-Newton corrector.

Grid derivatives use centered stencils of 4th-order accuracy (one-sided at the
window edges); the accuracy order is deliberately fixed so that norms computed
at different resolutions agree to well below probe tolerances.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AmbiguousRankError

STENCIL_ACCURACY = 4

# fallback step for directional finite differences: h = FD_STEP * (1 + |x|_2)
FD_STEP = 1e-5

# fixed coordinate step of the central-difference Jacobians
JACOBIAN_STEP = 1e-6

# guard band of numerical_rank on the relative singular values
RANK_GUARD_LOWER = 1e-10
RANK_GUARD_UPPER = 1e-8

# residuals at or below this are round-off zeros in log-log slope fits
LOGLOG_FLOOR = 1e-15

MEMBERSHIP_TOL = 1e-9  # a point this close to an image or a cell lies on it

# a surjection's smallest singular value must exceed this
SURJECTIVITY_FLOOR = 1e-8
# residual at which a corrector row, or a solution curve's Picard solve, stops
CORRECTOR_TOL = 1e-11
# relative singular-value cutoff of the minimum-norm Gauss-Newton step:
# singular values at most GAUSS_NEWTON_RCOND * sigma_0 count as zero
GAUSS_NEWTON_RCOND = 1e-12
# the line search's step fractions after the full step, as an (11, 1) column
HALVINGS = 0.5 ** np.arange(1, 12)[:, None]


def fornberg_weights(z, x, m):
    """Finite-difference weights for the order-m derivative at z from nodes x."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def stencil_width(n, order, periodic=False):
    """Points of the difference stencil of the given order: order +
    STENCIL_ACCURACY, made odd. The one-sided edge rows of a non-periodic grid
    need that many points, so a grid of fewer n raises ValueError."""
    width = order + STENCIL_ACCURACY
    if width % 2 == 0:
        width += 1
    if not periodic and n < width:
        raise ValueError(f"grid of {n} points is too coarse for derivative "
                         f"order {order}: its stencil has width {width}")
    return width


def diff_matrix(n, h, order, periodic=False):
    """Sparse differentiation matrix of the given derivative order on a uniform grid.

    Every interior row uses the one centered stencil, computed once; only the
    2*half rows next to a non-periodic edge get their own one-sided stencil.
    """
    import scipy.sparse as sp
    if order == 0:
        return sp.identity(n, format="csr")
    width = stencil_width(n, order, periodic)
    half = width // 2
    offsets = np.arange(-half, half + 1)
    rows = np.arange(n)
    cols = rows[:, None] + offsets
    vals = np.tile(fornberg_weights(0.0, offsets * h, order), (n, 1))
    if periodic:
        cols %= n
    else:
        for i in (*range(half), *range(max(half, n - half), n)):
            lo = max(0, min(i - half, n - width))
            cols[i] = np.arange(lo, lo + width)
            vals[i] = fornberg_weights(i * h, cols[i] * h, order)
    return sp.csr_matrix((vals.ravel(), (np.repeat(rows, width), cols.ravel())),
                         shape=(n, n))


def simpson_weights(n, h, split_index):
    """Composite Simpson weights on n nodes, split into two panels at split_index.

    The split keeps the rule high-order when the integrand has a kink at a known
    node (the |s| weight of the grid norms). Both sides need an even panel count.
    """
    w = np.zeros(n)
    for a, b in ((0, split_index), (split_index, n - 1)):
        m = b - a
        if m == 0:
            continue
        if m % 2 != 0:
            raise ValueError("composite Simpson needs an even panel count per side")
        w[a] += h / 3.0
        w[b] += h / 3.0
        w[a + 1:b:2] += 4.0 * h / 3.0
        w[a + 2:b:2] += 2.0 * h / 3.0
    return w


@functools.lru_cache
def gauss01(order):
    """Gauss-Legendre nodes/weights transplanted to [0, 1]; cached, so read-only."""
    pts, wts = leggauss(order)
    pts, wts = (pts + 1.0) / 2.0, wts / 2.0
    pts.flags.writeable = wts.flags.writeable = False
    return pts, wts


def directional_derivative(fn, x, v):
    """Centered differences of fn at x along the rows of v, one result row
    per direction; a 1-D v is the one-row case. fn maps one point, so this
    is the one loop over directions."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    h = FD_STEP * (1.0 + np.linalg.norm(x))
    out = np.array([(np.asarray(fn(x + h * r)) - np.asarray(fn(x - h * r))) / (2.0 * h)
                    for r in v.reshape(-1, v.shape[-1])])
    return out.reshape(v.shape[:-1] + out.shape[1:])


def jacobian(fn, x, out_dim, step):
    """Central-difference Jacobians of fn at the rows of x, shape
    x.shape[:-1] + (out_dim, d); a 1-D x is the one-row case.

    fn maps rows to rows. Column j is (fn(x + h e_j) - fn(x - h e_j)) / 2h
    with h = step, one number or one per row; with out_dim None the row count
    is taken from the first column.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(step, dtype=float)[..., None]
    cols = []
    for j in range(x.shape[-1]):
        e = np.zeros_like(x)
        e[..., j] = h[..., 0]
        cols.append((np.atleast_1d(fn(x + e)) - np.atleast_1d(fn(x - e))) / (2 * h))
    if not cols:
        return np.zeros(x.shape[:-1] + (out_dim or 0, 0))
    return np.stack(cols, axis=-1)


def check_rows(x, out, row_shape, what, *what_args, arg):
    """out, when x is one row (1-D) or out holds one row_shape result per row
    of x, a None in the tuple row_shape matching any length; ValueError naming
    the callback, what.format(*what_args), its rows argument arg and both
    shapes otherwise, since a result shaped for one point broadcasts silently
    against a batch. A call that passes formats no string."""
    if x.ndim < 2:
        return out
    want = x.shape[:-1] + row_shape
    shape = np.shape(out)
    if shape == want or (len(shape) == len(want) and
                         all(w is None or w == s for w, s in zip(want, shape))):
        return out
    raise ValueError(f"{what.format(*what_args)} returned shape {shape} for rows "
                     f"{arg} of shape {x.shape}; rows need shape "
                     f"{str(want).replace('None', 'n')}")


def squares(v):
    """v . v for each row of v, shape v.shape[:-1]: matmul takes one BLAS dot
    per row, so a row sums exactly as the 1-D v.dot(v) does."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def norms(v):
    """Euclidean norms of the rows of a real array, shape v.shape[:-1],
    without the dispatch of numpy's norm; a finite row whose square
    overflows is divided by its largest entry first."""
    sq = squares(v)
    if np.isfinite(sq).all():
        return np.sqrt(sq)
    over = np.isinf(sq) & np.isfinite(v).all(axis=-1)
    big = np.where(over, np.abs(v).max(axis=-1), 1.0)
    return big * np.sqrt(squares(v / big[..., None]))


def min_norm_step(jac, val):
    """Minimum-norm least-squares solutions of jac[i] @ step[i] = val[i] for
    finite (n, k, d) Jacobians and (n, k) values, n >= 1, singular values at
    most GAUSS_NEWTON_RCOND * sigma_0 counting as zero.

    A single row has the one singular value |row|, which the relative cutoff
    never drops, so its step is row * val / |row|^2 (zero for a zero row,
    empty for an empty one), taken for all rows at once; taller Jacobians
    are solved one by one.
    """
    if jac.shape[1] != 1:
        return np.array([np.linalg.lstsq(j, v, rcond=GAUSS_NEWTON_RCOND)[0]
                         for j, v in zip(jac, val)])
    row, v = jac[:, 0], val[:, 0]
    sq = squares(row)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        step = row * (v / sq)[:, None]
    # zero, or a square that under- or overflows: rescale by the largest entry
    for i in np.flatnonzero(~((1e-300 < sq) & (sq < math.inf))):
        big = np.abs(row[i]).max(initial=0.0)
        step[i] = 0.0
        if big:
            r = row[i] / big
            step[i] = r * (v[i] / big / r.dot(r))
    return step


def gauss_newton(fn, x0, out_dim, max_iter=80, jac=None):
    """Damped Gauss-Newton presolve from every row of the (m, d) starts x0;
    refreshes the frame every step so even degenerate roots are approached
    geometrically.

    fn maps an (n, d) array of rows to their (n, out_dim) values, and
    jac(x, h) to their (n, out_dim, d) Jacobians for the per-row difference
    steps h = 1e-7 (1 + |x|), by default the central differences of fn. Each
    row keeps its own iteration count, step cap and line search, and stops
    when its residual is at most CORRECTOR_TOL, its line search fails or its
    Jacobian is not finite. Each step makes at most two fn calls: the full
    step at the live rows, then at once the halvings t = 2^-1 ... 2^-11 of
    the rows it did not improve; a row takes its first t that lowers its
    residual, the point of a search by one halving at a time, bit for bit.
    Every candidate lies on the segment from a row's point to its full step,
    both evaluated before, so a fn that raises only outside a convex set
    raises at none. Returns the last accepted point of every row and the
    norm of fn there; the line search's value is carried forward.
    """
    if jac is None:
        def jac(z, h):
            return jacobian(fn, z, out_dim, h)

    x = np.array(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        val = fn(x)
        res = norms(val)
        live = np.arange(len(x))
        for _ in range(max_iter):
            live = live[~(res[live] <= CORRECTOR_TOL)]
            if not live.size:
                break
            size = 1.0 + norms(x[live])
            jl = jac(x[live], 1e-7 * size)
            ok = np.isfinite(jl).all(axis=(-2, -1))
            live, size = live[ok], size[ok]
            if not live.size:
                break
            step = min_norm_step(jl[ok], val[live])
            cap = 10.0 * size
            sn = norms(step)
            over = sn > cap
            step[over] *= (cap[over] / sn[over])[:, None]
            # the full step, then every halving of the rows it did not improve
            cand = x[live] - step
            cval = fn(cand)
            cres = norms(cval)
            stay = cres < res[live]
            won = live[stay]
            x[won], val[won], res[won] = cand[stay], cval[stay], cres[stay]
            rows, step = live[~stay], step[~stay]
            if rows.size:
                cand = np.concatenate(x[rows, None] - HALVINGS * step[:, None])
                cval = fn(cand)
                cres = norms(cval)
                better = cres.reshape(-1, len(HALVINGS)) < res[rows, None]
                hit = better.any(axis=1)
                pick = np.flatnonzero(hit) * len(HALVINGS) + better.argmax(axis=1)[hit]
                won = rows[hit]
                x[won], val[won], res[won] = cand[pick], cval[pick], cres[pick]
                stay[~stay] = hit  # a row that no halving improved leaves
                live = live[stay]
    return x, res


def numerical_rank(singular_values):
    """Rank from singular values with a guard band on the relative spectrum.

    Relative singular values inside (RANK_GUARD_LOWER, RANK_GUARD_UPPER) are
    treated as undecidable and raise AmbiguousRankError so that dimension
    jumps are never classified silently.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s[0] == 0.0:
        return 0
    rel = s / s[0]
    if np.any((rel > RANK_GUARD_LOWER) & (rel < RANK_GUARD_UPPER)):
        raise AmbiguousRankError(
            f"singular values inside guard band ({RANK_GUARD_LOWER:g}, "
            f"{RANK_GUARD_UPPER:g}): {rel.tolist()}"
        )
    return int(np.sum(rel >= RANK_GUARD_UPPER))


def orthonormal_columns(columns):
    """Orthonormal basis of the column span, rank decided with the guard band."""
    u, s, _ = np.linalg.svd(np.asarray(columns, dtype=float), full_matrices=False)
    return u[:, :numerical_rank(s)], s


def subspace_gap(basis_a, basis_b):
    """sin of the largest principal angle between two orthonormal column spans.

    Computed from the projection residual, which stays at round-off for equal
    spans instead of amplifying it like the sqrt(1 - cos^2) form would.
    """
    if basis_a.shape[1] != basis_b.shape[1]:
        return 1.0
    if basis_a.shape[1] == 0:
        return 0.0
    res_ab = basis_b - basis_a @ (basis_a.T @ basis_b)
    res_ba = basis_a - basis_b @ (basis_b.T @ basis_a)
    gap = max(
        np.linalg.svd(res_ab, compute_uv=False).max(),
        np.linalg.svd(res_ba, compute_uv=False).max(),
    )
    return float(gap)


def fit_loglog_slope(h_values, residuals):
    """Least-squares slope of log(residual) against log(h), ignoring round-off
    zeros (residuals at or below LOGLOG_FLOOR)."""
    h_values = np.asarray(h_values, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    mask = residuals > LOGLOG_FLOOR
    if mask.sum() < 2:
        return None
    coeff = np.polyfit(np.log(h_values[mask]), np.log(residuals[mask]), 1)
    return float(coeff[0])
