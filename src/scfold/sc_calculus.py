"""Differentiability probes, tangent constructions and the translation map.

Maps between scales are probed for level-shifted differentiability: the
difference quotient at a level-1 base point, measured in the level-0 norm and
normalized by the level-1 size of the increment, must decay. "Decays" is
operationalized as a fitted log-log slope >= 0.9 over the probe steps, or
residuals already at round-off. The classical quotient (same numerator over
the level-0 increment size) is available for contrast experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _fd
from ._text import csv_text, json_text
from .errors import (
    DomainExitError,
    LevelRangeError,
    MissingDerivativeError,
    WindowExitError,
)
from .sc_core import (
    FiniteDimScale,
    PartialQuadrant,
    ScVector,
    WeightedGridScale,
    direct_sum,
)


@dataclass
class ScDomain:
    """Relatively open subset of a partial quadrant: a ball per level around a
    center, optionally cut down by an extra membership predicate."""

    quadrant: PartialQuadrant
    center: np.ndarray = None
    radii: tuple = None  # one radius per level; None means the whole quadrant
    predicate: object = None

    def __post_init__(self):
        d = self.quadrant.scale.dim(0)
        self.center = np.zeros(d) if self.center is None else np.asarray(self.center, dtype=float)
        if self.radii is not None:
            self.radii = tuple(float(r) for r in self.radii)

    @property
    def scale(self):
        return self.quadrant.scale

    def contains(self, coeffs, level):
        coeffs = np.asarray(coeffs, dtype=float)
        if not self.quadrant.contains(coeffs):
            return False
        if self.radii is not None:
            for m in range(min(level, len(self.radii) - 1) + 1):
                if self.scale.norm(coeffs - self.center, m) >= self.radii[m]:
                    return False
        if self.predicate is not None and not self.predicate(coeffs):
            return False
        return True

    def require(self, coeffs, level):
        if not self.contains(coeffs, level):
            raise DomainExitError("point left the declared domain")


def whole_scale_domain(scale):
    """The whole scale as a domain: the quadrant with no sign constraints."""
    return ScDomain(PartialQuadrant(scale))


class ScMap:
    """Map between scales given by a per-level evaluator and an optional
    derivative evaluator h -> Df(x)h."""

    def __init__(self, source, target, fn, dfn=None, name="map"):
        self.source = source  # ScDomain
        self.target = target  # ScScale
        self.fn = fn
        self.dfn = dfn
        self.name = name

    def __call__(self, coeffs, level=0):
        return np.asarray(self.fn(np.asarray(coeffs, dtype=float), level), dtype=float)

    def derivative(self, coeffs, direction, level=0, fd_fallback=False):
        if self.dfn is not None:
            return np.asarray(self.dfn(np.asarray(coeffs, dtype=float),
                                       np.asarray(direction, dtype=float), level), dtype=float)
        if not fd_fallback:
            raise MissingDerivativeError(f"{self.name} has no derivative evaluator")
        return _fd.directional_derivative(lambda z: self(z, level), coeffs, direction)


def compose(f, g, dfn=None, name=None):
    """The composite x -> g(f(x)).

    No derivative is installed unless the caller supplies one: an automatic
    chain-rule derivative would make chain-rule checks circular.
    """
    def fn(coeffs, level):
        return g(f(coeffs, level), level)

    return ScMap(f.source, g.target, fn, dfn=dfn,
                 name=name or f"{g.name}∘{f.name}")


@dataclass
class TangentElement:
    """Base point at level >= 1 paired with a vector one level below."""

    base: ScVector
    vector: ScVector

    def __post_init__(self):
        if self.base.level < 1:
            raise LevelRangeError("tangent base must have level >= 1")
        if self.vector.level != self.base.level - 1:
            raise LevelRangeError(
                "tangent pairing rule: vector level must be base level - 1"
            )


def tangent_scale(scale):
    """The shifted-sum scale whose level i combines the base at level 1+i with
    a vector at level i."""
    if scale.max_level == 0:
        raise LevelRangeError("max_level 0 leaves no room to shift")
    return direct_sum(scale.shifted(1), scale.truncated(scale.max_level - 1))


def tangent_map(f, te):
    """(x, h) -> (f(x), Df(x)h) with the tangent level pairing kept; f must
    have a derivative evaluator."""
    x, h = te.base, te.vector
    fx = f(x.coeffs, x.level)
    dfh = f.derivative(x.coeffs, h.coeffs, x.level)
    return TangentElement(
        ScVector(f.target, fx, x.level),
        ScVector(f.target, dfh, h.level),
    )


@dataclass
class ProbeRow:
    h: float
    residual: float


@dataclass
class ProbeReport:
    rows: list
    slope: float | None
    passed: bool
    criterion: str
    denominator_level: int

    def residuals(self):
        return np.array([r.residual for r in self.rows])

    def to_csv(self):
        return csv_text(["h", "residual", "fitted_slope"],
                        [(r.h, r.residual, "" if self.slope is None else self.slope)
                         for r in self.rows])

    def to_json(self):
        return json_text({
            "slope": self.slope,
            "passed": self.passed,
            "criterion": self.criterion,
            "rows": [[r.h, r.residual] for r in self.rows],
        })


SLOPE_PASS = 0.9
ROUNDOFF_PASS = 1e-12


def sc1_probe(f, x, direction, h_sequence, denominator_level=1, fd_fallback=False):
    """Difference-quotient residual table for f at x along a direction.

    r(h) = |f(x + h d) - f(x) - Df(x)(h d)|_0 / |h d|_denominator_level.
    Pass criterion: fitted log-log slope >= 0.9, or all residuals at round-off.
    denominator_level=1 is the level-shifted quotient; 0 gives the classical one.
    """
    if x.level < 1:
        raise LevelRangeError("probe base point must be at level >= 1")
    hs = [float(h) for h in h_sequence]
    if any(b >= a for a, b in zip(hs, hs[1:])) or any(h <= 0 for h in hs):
        raise ValueError("h_sequence must be decreasing and positive")
    fx = f(x.coeffs, x.level)
    d = np.asarray(direction.coeffs if isinstance(direction, ScVector) else direction, dtype=float)
    denom_unit = f.source.scale.norm(d, denominator_level)
    if denom_unit == 0:
        raise ValueError("direction must be nonzero")
    rows = []
    for h in hs:
        xp = x.coeffs + h * d
        f.source.require(xp, x.level)
        pred = fx + f.derivative(x.coeffs, h * d, x.level, fd_fallback=fd_fallback)
        num = f.target.norm(f(xp, x.level) - pred, 0)
        rows.append(ProbeRow(h, float(num / (h * denom_unit))))
    residuals = np.array([r.residual for r in rows])
    slope = _fd.fit_loglog_slope(hs, residuals)
    if np.all(residuals <= ROUNDOFF_PASS):
        return ProbeReport(rows, slope, True, "round-off", denominator_level)
    passed = slope is not None and slope >= SLOPE_PASS
    return ProbeReport(rows, slope, passed, f"slope>={SLOPE_PASS}", denominator_level)


def chain_rule_check(f, g, samples, composite=None):
    """Max discrepancy between the composite tangent and the composed tangents.

    The composite side is computed independently of the chain rule: by the
    derivative evaluator of a caller-supplied composite map when one is given,
    else by a centered finite difference of x -> g(f(x)). The other side is
    Tg(Tf(te)), from the derivative evaluators of f and g, which must exist.
    """
    if not f.target.compatible(g.source.scale):
        raise ValueError("maps are not composable")
    gof = compose(f, g) if composite is None else composite
    worst = 0.0
    for te in samples:
        x, h = te.base, te.vector
        lhs = gof.derivative(x.coeffs, h.coeffs, x.level, fd_fallback=True)
        mid = tangent_map(f, te)
        rhs = tangent_map(g, mid)
        worst = max(worst, g.target.norm(lhs - rhs.vector.coeffs, 0))
    return worst


class _GridShift:
    """Cubic-interpolated translation on a grid scale with zero extension."""

    def __init__(self, scale):
        self.scale = scale

    def __call__(self, u, t):
        if t == 0.0:
            return np.asarray(u, dtype=float).copy()
        from scipy.interpolate import CubicSpline
        spline = CubicSpline(self.scale.grid, u, bc_type="natural", extrapolate=False)
        shifted = spline(self.scale.grid + t)
        return np.nan_to_num(shifted, nan=0.0)


def shift_map(scale):
    """The translation map (t, u) -> u(. + t) on the line-plus-functions scale.

    Uses cubic interpolation for non-integral shifts; its derivative evaluator
    sends (tau, v) to tau * u'(. + t) + v(. + t). Shifts with |t| beyond
    R / 2 raise WindowExitError.
    """
    if not isinstance(scale, WeightedGridScale):
        raise ValueError("shift map needs a weighted_grid scale")
    param = FiniteDimScale(1, max_level=scale.max_level)
    source_scale = direct_sum(param, scale)
    interp = _GridShift(scale)
    d1 = scale.diff(1)
    max_shift = 0.5 * scale.R

    def split(coeffs):
        t = coeffs[0]
        u = coeffs[1:]
        if abs(t) > max_shift:
            raise WindowExitError(
                f"shift {t:g} beyond margin {max_shift:g} of the truncation window"
            )
        return t, u

    def fn(coeffs, level):
        t, u = split(coeffs)
        return interp(u, t)

    def dfn(coeffs, direction, level):
        t, u = split(coeffs)
        tau = direction[0]
        v = direction[1:]
        return tau * interp(d1 @ u, t) + interp(v, t)

    return ScMap(whole_scale_domain(source_scale), scale, fn, dfn, name="shift")


def shift_point(scale, t, u, level=None):
    """Pack (t, u) into a vector of the shift map's source scale."""
    param = FiniteDimScale(1, max_level=scale.max_level)
    src = direct_sum(param, scale)
    level = scale.max_level if level is None else level
    return ScVector(src, np.concatenate([[float(t)], np.asarray(u, dtype=float)]), level)
