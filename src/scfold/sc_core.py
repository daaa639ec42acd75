"""Graded vector scales with per-level norms, partial quadrants and linear splitting.

A scale is a nested sequence of normed levels; an element carries a declared
regularity level and can be measured in the norm of any level up to it. Two
concrete backends are provided: constant finite-dimensional scales and
grid-discretized function scales on a truncation window [-R, R] whose level-m
norm combines derivatives up to the level's order, each weighted by
exp(delta_m |s|). A periodic circle backend hosts loop-space demos; both
grid backends measure levels through one core, _GridFunctionScale. Sums and
index shifts of scales are first-class so tangent constructions can reuse them.
Linear maps are plain matrices: fredholm_split gives the kernel, complement,
image and cokernel of one from a single SVD, lowrank_split the kernel and
cokernel of a grid operator I + U V' given as (U, V), and _fd.numerical_rank
decides the rank in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _fd
from .errors import (
    ConfigError,
    LevelRangeError,
    NotInQuadrantError,
    read_config,
)

FINITE_DIM_TOL = 1e-12
GRID_TOL = 1e-9


class ScScale:
    """Base class: a nested family of norms indexed by level 0..max_level."""

    max_level: int

    def dim(self, level):
        raise NotImplementedError

    def norm(self, coeffs, level):
        raise NotImplementedError

    def norms(self, rows, level):
        """Level norms of the rows of a (k, dim) block, one norm call per row."""
        return np.array([self.norm(r, level) for r in rows], dtype=float)

    def check_level(self, level):
        if not (0 <= level <= self.max_level):
            raise LevelRangeError(
                f"level {level} outside [0, {self.max_level}] for {self!r}"
            )

    def embedding_constant(self, m):
        """Recorded constant c_m with |x|_m <= c_m |x|_{m+1} for all x."""
        raise NotImplementedError

    def membership_tol(self):
        return FINITE_DIM_TOL

    def vector(self, coeffs, level=None):
        level = self.max_level if level is None else level
        return ScVector(self, np.asarray(coeffs, dtype=float), level)

    def zero(self):
        """The zero vector at max_level."""
        return ScVector(self, np.zeros(self.dim(self.max_level)), self.max_level)

    def shifted(self, k):
        """The scale whose level m is this scale's level m+k."""
        if k == 0:
            return self
        if self.max_level - k < 0:
            raise LevelRangeError("no room to shift: max_level would be negative")
        return LevelWindow(self, k, self.max_level - k)

    def truncated(self, max_level):
        """View of this scale with levels capped at max_level."""
        if max_level == self.max_level:
            return self
        return LevelWindow(self, 0, max_level)

    def compatible(self, other):
        """Structural equality: same level range and dimensions."""
        if self is other:
            return True
        if self.max_level != other.max_level:
            return False
        return all(self.dim(m) == other.dim(m) for m in range(self.max_level + 1))

    def regularity_ratio_threshold(self):
        """Norm-growth ratio between consecutive levels above which a vector
        counts as rough; None where levels carry no roughness test."""
        return None

    def regularity_level(self, coeffs, cap=None):
        """Largest level whose norm-growth ratio stays below the roughness
        threshold. A heuristic grid surrogate for membership in the level;
        scales without a threshold report the cap."""
        cap = self.max_level if cap is None else min(cap, self.max_level)
        theta = self.regularity_ratio_threshold()
        if theta is None:
            return cap
        prev = self.norm(coeffs, 0)
        if prev == 0.0:
            return cap
        for m in range(1, cap + 1):
            cur = self.norm(coeffs, m)
            if cur > theta * prev:
                return m - 1
            prev = cur
        return cap


class FiniteDimScale(ScScale):
    """Constant scale: identical dimension and Euclidean norm at every level."""

    def __init__(self, dim, max_level=3):
        if dim < 0 or max_level < 0:
            raise ValueError("dimension and max_level must be nonnegative")
        self._dim = int(dim)
        self.max_level = int(max_level)

    def dim(self, level):
        self.check_level(level)
        return self._dim

    def norm(self, coeffs, level):
        self.check_level(level)
        v = np.asarray(coeffs, dtype=float).ravel(order="K")
        return math.sqrt(v.dot(v))  # np.linalg.norm's sum, without the dispatch

    def norms(self, rows, level):
        """norm of each row of a (k, dim) block by one dot per row, as norm
        sums it; a subclass with its own norm measures each row by it."""
        if type(self).norm is not FiniteDimScale.norm:
            return super().norms(rows, level)
        self.check_level(level)
        return np.sqrt(_fd.squares(np.asarray(rows, dtype=float)))

    def embedding_constant(self, m):
        self.check_level(m + 1)
        return 1.0

    def __repr__(self):
        return f"FiniteDimScale(dim={self._dim}, max_level={self.max_level})"


class _GridFunctionScale(ScScale):
    """Functions sampled on a grid of n points: level m measures the
    derivatives D_k u, k <= orders[m] (default m), each times the level
    weight exp(deltas[m] |s|), by quadrature with quad_weights. A backend
    sets n, grid, quad_weights and deltas and gives diff(order)."""

    def __init__(self, max_level, orders):
        self.max_level = int(max_level)
        self.orders = list(range(self.max_level + 1)) if orders is None else [int(o) for o in orders]
        if len(self.orders) != self.max_level + 1:
            raise ValueError("one derivative order per level required")
        self._weight_cache = {}
        self._diff_cache = {}

    def dim(self, level):
        self.check_level(level)
        return self.n

    def _weight(self, level):
        if level not in self._weight_cache:
            self._weight_cache[level] = np.exp(self.deltas[level] * np.abs(self.grid))
        return self._weight_cache[level]

    def derivatives(self, coeffs, max_order):
        """[u, D_1 u, ..., D_max_order u] of a vector or of the rows of a block,
        one sparse product per order, a block's as C-contiguous rows."""
        u = np.asarray(coeffs, dtype=float)
        columns = np.ascontiguousarray(u.T)  # transposed once for every order
        out = [u]
        for k in range(1, max_order + 1):
            out.append(np.ascontiguousarray((self.diff(k) @ columns).T))
        return out

    def energies(self, derivs, level):
        """The terms quad_weights * (D_k u * w_level)**2, k <= orders[level],
        whose sums make up |u|_level^2, from derivs = derivatives(u, k_max)."""
        w = self._weight(level)
        out = []
        for v in derivs[:self.orders[level] + 1]:
            e = v * w
            np.square(e, out=e)
            out.append(np.multiply(e, self.quad_weights, out=e))
        return out

    def norm(self, coeffs, level):
        self.check_level(level)
        u = np.asarray(coeffs, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"expected {self.n} grid values, got shape {u.shape}")
        return float(_root_energy(self.energies(self.derivatives(u, self.orders[level]), level)))

    def norms(self, rows, level):
        self.check_level(level)
        u = np.asarray(rows, dtype=float)
        if u.ndim != 2 or u.shape[1] != self.n:
            raise ValueError(f"expected rows of {self.n} grid values, got shape {u.shape}")
        return _root_energy(self.energies(self.derivatives(u, self.orders[level]), level))

    def membership_tol(self):
        return GRID_TOL


def _root_energy(energies):
    """sqrt of the terms of _GridFunctionScale.energies, each summed along
    the grid, the sums added in order of derivative."""
    total = 0.0
    for e in energies:
        total = total + e.sum(axis=-1)
    return np.sqrt(total)


class WeightedGridScale(_GridFunctionScale):
    """Function scale sampled on a uniform grid over [-R, R].

    Level m measures derivatives up to orders[m] (default m), each multiplied
    by exp(delta_m |s|), combined in quadratic mean with a composite Simpson
    rule split at s = 0 where the weight has its kink. The weight sequence must
    be strictly increasing with delta_0 = 0. R and h must be positive and R/h
    an even integer so both Simpson halves have even panel counts.
    """

    def __init__(self, R, h, deltas, orders=None):
        deltas = [float(d) for d in deltas]
        if not deltas or deltas[0] != 0.0:
            raise ValueError("weight sequence must start with delta_0 = 0")
        if any(b <= a for a, b in zip(deltas, deltas[1:])):
            raise ValueError("weight sequence must be strictly increasing")
        if not R > 0:
            raise ValueError(f"grid half-width R must be positive, got {R}")
        if not h > 0:
            raise ValueError(f"grid step h must be positive, got {h}")
        half_panels = R / h
        if abs(half_panels - round(half_panels)) > 1e-9 or round(half_panels) % 2 != 0:
            raise ValueError("R/h must be a positive even integer")
        super().__init__(len(deltas) - 1, orders)
        self.R = float(R)
        self.h = float(h)
        self.deltas = deltas
        n = 2 * int(round(half_panels)) + 1
        if max(self.orders) > 0:  # raises if n is too coarse for the stencil
            _fd.stencil_width(n, max(self.orders))
        self.n = n
        self.grid = -self.R + self.h * np.arange(n)
        self.quad_weights = _fd.simpson_weights(n, self.h, n // 2)
        self._gram_cache = {}
        self._embed_cache = {}

    def diff(self, order):
        if order not in self._diff_cache:
            self._diff_cache[order] = _fd.diff_matrix(self.n, self.h, order)
        return self._diff_cache[order]

    norm = _GridFunctionScale.norm  # in this __dict__, which perfbench's tracer patches

    def inner0(self, a, b):
        """Level-0 (unweighted) discrete inner product along the last axis:
        one float for vectors, one product per row for blocks of rows."""
        out = np.sum(self.quad_weights * np.asarray(a) * np.asarray(b), axis=-1)
        return out if out.ndim else float(out)

    def gram(self, level):
        """Sparse banded SPD matrix (CSC) with |u|_level^2 = u' G u."""
        if level not in self._gram_cache:
            import scipy.sparse as sp
            W = sp.diags(self.quad_weights * self._weight(level) ** 2)
            G = W
            for k in range(1, self.orders[level] + 1):
                D = self.diff(k)
                G = G + D.T @ W @ D
            self._gram_cache[level] = sp.csc_matrix(G)
        return self._gram_cache[level]

    def embedding_constant(self, m):
        """Measured constant: 1/sqrt of the smallest generalized eigenvalue of
        (G_{m+1}, G_m), i.e. sqrt of the largest one of (G_m, G_{m+1}). Found
        by shift-invert Lanczos at 0 from a fixed start vector, so repeated
        calls give the same float. Stronger levels only get measured, never
        asserted."""
        self.check_level(m + 1)
        if m not in self._embed_cache:
            import scipy.sparse.linalg as spla
            mu = spla.eigsh(self.gram(m + 1), k=1, M=self.gram(m), sigma=0,
                            which="LM", v0=np.ones(self.n), return_eigenvectors=False)
            self._embed_cache[m] = float(1.0 / np.sqrt(mu[0]))
        return self._embed_cache[m]

    def tail_fraction(self, coeffs, level, window_fraction):
        """Share of the level norm's energy outside |s| > window_fraction * R."""
        u = np.asarray(coeffs, dtype=float)
        e = self.energies(self.derivatives(u, self.orders[level]), level)
        return float(self.tail_fractions(e, window_fraction))

    def tail_fractions(self, energies, window_fraction):
        """tail_fraction of each row of energies(...), 0 for a row of no
        energy. A row's outside entries are summed as one contiguous row, as
        a vector's are: the strided e[:, outside] sums in another order."""
        outside = np.abs(self.grid) > window_fraction * self.R
        total = tail = 0.0
        for e in energies:
            total = total + e.sum(axis=-1)
            tail = tail + e.compress(outside, axis=-1).sum(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(total > 0, tail / total, 0.0)

    def regularity_ratio_threshold(self):
        return (np.pi / self.h) ** (2.0 / 3.0)

    def __repr__(self):
        return (
            f"WeightedGridScale(R={self.R}, h={self.h}, deltas={self.deltas})"
        )


class CircleGridScale(_GridFunctionScale):
    """Periodic grid scale on [0, 2*pi): level m measures derivatives up to
    orders[m] in the plain L2 norm (no weights; the domain is compact).

    Hosts the loop-space demos where the base scale uses orders 1+m and the
    fiber uses orders m."""

    def __init__(self, n, max_level=3, orders=None):
        if not (n > 0 and n == int(n)):
            raise ValueError(f"grid size n must be a positive integer, got {n}")
        super().__init__(max_level, orders)
        self.n = int(n)
        self.h = 2.0 * np.pi / self.n
        self.grid = self.h * np.arange(self.n)
        self.quad_weights = self.h
        self.deltas = [0.0] * (self.max_level + 1)

    def diff(self, order):
        if order not in self._diff_cache:
            self._diff_cache[order] = _fd.diff_matrix(self.n, self.h, order, periodic=True)
        return self._diff_cache[order]

    def embedding_constant(self, m):
        self.check_level(m + 1)
        return 1.0  # orders are nested, lower norm is a sub-sum of the higher

    def regularity_ratio_threshold(self):
        return (self.n / 2.0) ** (2.0 / 3.0)

    def __repr__(self):
        return f"CircleGridScale(n={self.n}, orders={self.orders})"


class LevelWindow(ScScale):
    """View of the levels offset..offset + max_level of a scale, renumbered
    from 0. A shift by k is the window (k, base top - k); a truncation is a
    shift by 0 with a lower top level."""

    def __init__(self, base, offset, max_level):
        if offset < 0 or not (0 <= max_level <= base.max_level - offset):
            raise LevelRangeError(
                f"invalid level window +{offset} up to {max_level} of {base!r}")
        self.base = base
        self.offset = int(offset)
        self.max_level = int(max_level)

    def dim(self, level):
        self.check_level(level)
        return self.base.dim(level + self.offset)

    def norm(self, coeffs, level):
        self.check_level(level)
        return self.base.norm(coeffs, level + self.offset)

    def embedding_constant(self, m):
        self.check_level(m + 1)
        return self.base.embedding_constant(m + self.offset)

    def membership_tol(self):
        return self.base.membership_tol()

    def regularity_level(self, coeffs, cap=None):
        cap = self.max_level if cap is None else min(cap, self.max_level)
        r = self.base.regularity_level(coeffs, cap=cap + self.offset)
        return min(cap, max(0, r - self.offset))

    def __repr__(self):
        return f"LevelWindow({self.base!r}, +{self.offset}, max_level={self.max_level})"


class SumScale(ScScale):
    """Direct sum of scales; the level norm is the l2 combination of the
    component norms, so the parallelogram relation with components is exact."""

    def __init__(self, components):
        if not components:
            raise ValueError("need at least one component")
        levels = {c.max_level for c in components}
        if len(levels) > 1:
            raise ValueError(f"mismatched max_level among components: {levels}")
        self.components = list(components)
        self.max_level = components[0].max_level

    def dim(self, level):
        self.check_level(level)
        return sum(c.dim(level) for c in self.components)

    def split(self, coeffs, level=None):
        level = self.max_level if level is None else level
        coeffs = np.asarray(coeffs, dtype=float)
        parts = []
        at = 0
        for c in self.components:
            d = c.dim(level)
            parts.append(coeffs[at:at + d])
            at += d
        if at != coeffs.shape[0]:
            raise ValueError("coefficient length does not match the sum scale")
        return parts

    def norm(self, coeffs, level):
        self.check_level(level)
        parts = self.split(coeffs, level)
        return float(np.sqrt(sum(c.norm(p, level) ** 2 for c, p in zip(self.components, parts))))

    def embedding_constant(self, m):
        return max(c.embedding_constant(m) for c in self.components)

    def membership_tol(self):
        return max(c.membership_tol() for c in self.components)

    def regularity_level(self, coeffs, cap=None):
        cap = self.max_level if cap is None else min(cap, self.max_level)
        parts = self.split(coeffs)
        return min(c.regularity_level(p, cap=cap) for c, p in zip(self.components, parts))

    def __repr__(self):
        return f"SumScale({self.components!r})"


def direct_sum(e, f):
    """Sum scale with level-m dimension the sum and l2-combined level norms."""
    if e.max_level != f.max_level:
        raise ValueError(
            f"mismatched max_level: {e.max_level} vs {f.max_level}"
        )
    comps = []
    for s in (e, f):
        comps.extend(s.components if isinstance(s, SumScale) else [s])
    return SumScale(comps)


@dataclass
class ScVector:
    """Coefficients plus the declared regularity level within an owning scale."""

    scale: ScScale
    coeffs: np.ndarray
    level: int

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        self.scale.check_level(self.level)
        expected = self.scale.dim(self.level)
        if self.coeffs.shape != (expected,):
            raise ValueError(
                f"coefficient length {self.coeffs.shape} does not match "
                f"dimension {expected} at level {self.level}"
            )

    def norm(self, m):
        return level_norm(self, m)


def level_norm(x, m):
    """The level-m norm of x; m must not exceed the declared level."""
    if m > x.level:
        raise LevelRangeError(
            f"requested level {m} exceeds declared level {x.level}"
        )
    return x.scale.norm(x.coeffs, m)


@dataclass
class PartialQuadrant:
    """Ambient scale with a subset of coordinates constrained to [0, infinity)."""

    scale: ScScale
    quadrant_indices: tuple = ()

    def __post_init__(self):
        idx = tuple(int(i) for i in self.quadrant_indices)
        d = self.scale.dim(0)
        if any(i < 0 or i >= d for i in idx):
            raise ValueError("quadrant index outside ambient coordinate range")
        if len(set(idx)) != len(idx):
            raise ValueError("repeated quadrant index")
        self.quadrant_indices = idx

    def contains(self, coeffs):
        """Quadrant coordinates of coeffs are at least -membership_tol()."""
        tol = self.scale.membership_tol()
        coeffs = np.asarray(coeffs, dtype=float)
        if not self.quadrant_indices:
            return True
        return bool(np.all(coeffs[list(self.quadrant_indices)] >= -tol))


def degeneracy_index(quadrant, x, tol=None):
    """Number of quadrant coordinates of x that vanish within tol.

    Raises NotInQuadrantError when a quadrant coordinate is below -tol.
    """
    coeffs = x.coeffs if isinstance(x, ScVector) else np.asarray(x, dtype=float)
    tol = quadrant.scale.membership_tol() if tol is None else tol
    if not quadrant.quadrant_indices:
        return 0
    vals = coeffs[list(quadrant.quadrant_indices)]
    if np.any(vals < -tol):
        raise NotInQuadrantError(
            f"coordinates {vals[vals < -tol].tolist()} below -{tol:g}"
        )
    return int(np.sum(vals <= tol))


# the window fractions of embedding_report's tail profile
TAIL_WINDOWS = (0.25, 0.5, 0.75)


@dataclass
class EmbeddingReport:
    scale: ScScale
    level: int
    constant: float
    max_ratio: float
    ratios: np.ndarray
    tail_profile: dict
    violation: bool

    @property
    def passed(self):
        return not self.violation


def embedding_report(scale, m, sample_count=64, seed=0):
    """Sampled check that the level-m norm is controlled by the level-(m+1)
    norm times the recorded constant, plus a tail-energy decay profile.

    A desk-scale stand-in for the compactness of the inclusion: the constant is
    measured, the tail profile shows where level-(m+1)-unit mass can hide.
    The samples are the rows of one seeded (sample_count, dim) draw scaled
    to level-(m+1) norm 1 (rows of norm 0 dropped); a grid scale
    differentiates the scaled block once per order for both norms and the
    tail shares.
    """
    scale.check_level(m + 1)
    c = scale.embedding_constant(m)
    v = np.random.default_rng(seed).standard_normal((sample_count, scale.dim(m + 1)))
    hi = scale.norms(v, m + 1)
    keep = hi != 0.0
    v = v[keep] / hi[keep, None]
    tail_profile = dict.fromkeys(TAIL_WINDOWS)
    if isinstance(scale, WeightedGridScale):
        derivs = scale.derivatives(v, max(scale.orders[m], scale.orders[m + 1]))
        lo = scale.energies(derivs, m)
        ratios = _root_energy(lo) / _root_energy(scale.energies(derivs, m + 1))
        if len(v):
            tail_profile = {frac: float(scale.tail_fractions(lo, frac).max())
                            for frac in TAIL_WINDOWS}
    else:
        ratios = scale.norms(v, m) / scale.norms(v, m + 1)
    max_ratio = float(ratios.max()) if ratios.size else 0.0
    violation = max_ratio > c * (1.0 + 1e-9)
    return EmbeddingReport(scale, m, c, max_ratio, ratios, tail_profile, violation)


@dataclass
class ScFredholmData:
    """Kernel/complement/image/cokernel bases with the resulting index."""

    kernel: np.ndarray
    complement: np.ndarray
    image: np.ndarray
    cokernel: np.ndarray
    index: int
    singular_values: np.ndarray

    @property
    def kernel_dim(self):
        return self.kernel.shape[1]

    @property
    def cokernel_dim(self):
        return self.cokernel.shape[1]


def fredholm_split(a):
    """Kernel, complement (row space), image and cokernel of a dense matrix
    from one SVD.

    The rank is _fd.numerical_rank of the singular values, so
    AmbiguousRankError propagates from its guard band.
    """
    nt, ns = a.shape
    u, s, vt = np.linalg.svd(a) if a.size else (np.eye(nt), np.zeros(0), np.eye(ns))
    r = _fd.numerical_rank(s)
    return ScFredholmData(
        vt[r:].T, vt[:r].T, u[:, :r], u[:, r:],
        index=(ns - r) - (nt - r), singular_values=s,
    )


def lowrank_split(u, v):
    """Kernel, cokernel and index of T = I + U V' on a grid, from one SVD of
    the r x r core I + V'U; the complement and image are left empty.

    _fd.numerical_rank decides the core's rank against the identity's scale
    max(sigma_0, 1), so AmbiguousRankError propagates from its guard band.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    core = np.eye(u.shape[1]) + v.T @ u
    cu, cs, cvt = np.linalg.svd(core)
    rk = _fd.numerical_rank(np.r_[max(cs[0], 1.0), cs]) - 1
    # kernel: x = U a with core a = 0; cokernel, the adjoint's kernel: x = V b
    # with core' b = 0. core a = a + V'U a, so U a = 0 forces a = 0 (likewise
    # V b): both frames have full column rank and need no rank decision
    kernel = np.linalg.svd(u @ cvt[rk:].T, full_matrices=False)[0]
    cokernel = np.linalg.svd(v @ cu[:, rk:], full_matrices=False)[0]
    n = u.shape[0]
    return ScFredholmData(
        kernel, np.zeros((n, 0)), np.zeros((n, 0)), cokernel,
        index=kernel.shape[1] - cokernel.shape[1],
        singular_values=cs,
    )


def reconstruction_residual(a, split, seed=0):
    """Residual of A = (A restricted to the complement) composed with the
    projection along the kernel, evaluated on 16 random samples."""
    rng = np.random.default_rng(seed)
    k = split.kernel
    worst = 0.0
    for _ in range(16):
        x = rng.standard_normal(a.shape[1])
        px = x - k @ (k.T @ x) if k.size else x
        worst = max(worst, float(np.linalg.norm(a @ x - a @ px)))
    return worst


_SCALE_KEYS = {"backend", "max_level", "dims", "grid", "deltas", "orders", "n"}


def scale_from_config(text_or_dict):
    """Build a scale from a structured text config.

    Keys: backend, max_level, dims (finite_dim) or grid {R, h} plus deltas
    (weighted_grid) or n (circle_grid). Unknown keys are errors.
    """
    cfg = read_config(text_or_dict, _SCALE_KEYS, "scale config keys")
    backend = cfg.get("backend")
    if backend == "finite_dim":
        return FiniteDimScale(cfg["dims"], cfg.get("max_level", 3))
    if backend == "weighted_grid":
        grid = cfg.get("grid")
        if not isinstance(grid, dict) or set(grid) - {"R", "h"}:
            raise ConfigError("weighted_grid needs grid = {R, h}")
        return WeightedGridScale(grid["R"], grid["h"], cfg["deltas"], cfg.get("orders"))
    if backend == "circle_grid":
        return CircleGridScale(cfg["n"], cfg.get("max_level", 3), cfg.get("orders"))
    raise ConfigError(f"unknown backend {backend!r}")
