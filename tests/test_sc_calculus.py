import json

import numpy as np
import pytest

from scfold.errors import (
    LevelRangeError,
    MissingDerivativeError,
    WindowExitError,
)
from scfold.sc_calculus import (
    ScDomain,
    ScMap,
    TangentElement,
    chain_rule_check,
    compose,
    sc1_probe,
    shift_map,
    shift_point,
    tangent_map,
    tangent_scale,
    whole_scale_domain,
)
from scfold.sc_core import (
    FiniteDimScale,
    PartialQuadrant,
    ScVector,
    WeightedGridScale,
    direct_sum,
)


def grid_scale(R=8.0, h=1 / 128, deltas=(0.0, 0.1, 0.2, 0.3)):
    return WeightedGridScale(R, h, deltas)


def linear_map(scale, a):
    a = np.asarray(a, dtype=float)
    return ScMap(
        whole_scale_domain(scale),
        FiniteDimScale(a.shape[0], max_level=scale.max_level),
        fn=lambda x, m: a @ x,
        dfn=lambda x, h, m: a @ h,
        name="linear",
    )


# -------------------------------------------------------------- tangent_scale

def test_tangent_scale_finite_dim_doubles():
    ts = tangent_scale(FiniteDimScale(4, max_level=3))
    for m in range(3):
        assert ts.dim(m) == 8


def test_tangent_scale_levels_match_shifted_pair():
    e = grid_scale()
    ts = tangent_scale(e)
    u = np.exp(-e.grid ** 2)
    v = np.exp(-(e.grid - 1) ** 2)
    both = np.concatenate([u, v])
    for i in range(ts.max_level + 1):
        expected = np.sqrt(e.norm(u, i + 1) ** 2 + e.norm(v, i) ** 2)
        assert ts.norm(both, i) == pytest.approx(expected, rel=1e-15)


def test_tangent_scale_max_level_shift():
    e = grid_scale()
    assert e.max_level == 3
    assert tangent_scale(e).max_level == 2


def test_tangent_scale_double_shift_pattern():
    # applying the construction twice pairs levels as (2, 1, 1, 0)
    e = grid_scale()
    tte = tangent_scale(tangent_scale(e))
    u0 = np.exp(-e.grid ** 2)
    parts = [u0, 2 * u0, 3 * u0, 4 * u0]
    joint = np.concatenate(parts)
    expected = np.sqrt(
        e.norm(parts[0], 2) ** 2
        + e.norm(parts[1], 1) ** 2
        + e.norm(parts[2], 1) ** 2
        + e.norm(parts[3], 0) ** 2
    )
    assert tte.norm(joint, 0) == pytest.approx(expected, rel=1e-15)


def test_tangent_scale_no_room():
    with pytest.raises(LevelRangeError):
        tangent_scale(FiniteDimScale(2, max_level=0))


# ------------------------------------------------------------------ sc1_probe

def test_probe_linear_map_roundoff():
    scale = FiniteDimScale(3)
    f = linear_map(scale, np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0], [2.0, 0.0, 1.0]]))
    x = scale.vector([0.3, -0.2, 0.5], level=1)
    d = scale.vector([1.0, 1.0, -1.0], level=0)
    rep = sc1_probe(f, x, d, [1e-1, 1e-2, 1e-3])
    assert rep.passed
    assert np.all(rep.residuals() <= 1e-12)


def test_probe_shift_map_level1_slope():
    scale = grid_scale()
    phi = shift_map(scale)
    g = np.exp(-scale.grid ** 2 / 2)
    x = shift_point(scale, 0.0, g, level=1)
    v = 0.3 * np.exp(-(scale.grid - 1.0) ** 2)
    d = np.concatenate([[1.0], v])
    rep = sc1_probe(phi, x, d, [1e-1, 1e-2, 1e-3, 1e-4])
    assert rep.slope is not None and rep.slope >= 0.9
    assert rep.passed


def test_probe_classical_quotient_sawtooth_stagnates():
    # direct evaluation: the classical quotient at a jumpy input stays large,
    # demonstrating failure of plain Frechet differentiability
    scale = grid_scale()
    phi = shift_map(scale)
    saw = np.mod(scale.grid, 1.0) - 0.5
    x = shift_point(scale, 0.0, saw, level=1)
    d = np.concatenate([[1.0], np.zeros(scale.n)])
    rep = sc1_probe(phi, x, d, [1e-1, 1e-2, 1e-3, 1e-4], denominator_level=0)
    assert np.all(rep.residuals() > 0.1)
    assert not rep.passed


def test_probe_missing_derivative():
    scale = FiniteDimScale(2)
    f = ScMap(whole_scale_domain(scale), scale, fn=lambda x, m: x ** 2, name="sq")
    x = scale.vector([0.5, 0.5], level=1)
    d = scale.vector([1.0, 0.0], level=0)
    with pytest.raises(MissingDerivativeError):
        sc1_probe(f, x, d, [1e-2])
    rep = sc1_probe(f, x, d, [1e-2, 1e-3, 1e-4], fd_fallback=True)
    assert rep.passed


def test_probe_domain_exit():
    scale = FiniteDimScale(1)
    dom = ScDomain(PartialQuadrant(scale), center=np.zeros(1), radii=(0.05,) * 4)
    f = ScMap(dom, scale, fn=lambda x, m: x, dfn=lambda x, h, m: h)
    x = scale.vector([0.0], level=1)
    d = scale.vector([1.0], level=0)
    from scfold.errors import DomainExitError

    with pytest.raises(DomainExitError):
        sc1_probe(f, x, d, [1e-1])


def test_probe_report_serialization():
    scale = FiniteDimScale(2)
    f = linear_map(scale, np.eye(2))
    x = scale.vector([0.1, 0.2], level=1)
    d = scale.vector([1.0, 0.0], level=0)
    rep = sc1_probe(f, x, d, [1e-1, 1e-2])
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "h,residual,fitted_slope"
    assert len(lines) == 3
    payload = json.loads(rep.to_json())
    assert payload["passed"] is True


# ----------------------------------------------------------------- tangent_map

def test_tangent_map_identity():
    scale = FiniteDimScale(3)
    ident = linear_map(scale, np.eye(3))
    te = TangentElement(scale.vector([1.0, 2.0, 3.0], level=1),
                        scale.vector([0.1, 0.2, 0.3], level=0))
    out = tangent_map(ident, te)
    assert np.allclose(out.base.coeffs, te.base.coeffs)
    assert np.allclose(out.vector.coeffs, te.vector.coeffs)
    assert out.base.level == 1 and out.vector.level == 0


def test_tangent_map_linear():
    scale = FiniteDimScale(2)
    a = np.array([[2.0, 1.0], [0.0, 3.0]])
    f = linear_map(scale, a)
    te = TangentElement(scale.vector([1.0, 1.0], level=2),
                        scale.vector([0.5, -0.5], level=1))
    out = tangent_map(f, te)
    assert np.allclose(out.base.coeffs, a @ te.base.coeffs)
    assert np.allclose(out.vector.coeffs, a @ te.vector.coeffs)


def test_tangent_map_shift_against_fd_oracle():
    scale = grid_scale()
    phi = shift_map(scale)
    g = np.exp(-scale.grid ** 2 / 2)
    v = np.exp(-(scale.grid + 0.5) ** 2)
    base = shift_point(scale, 0.0, g, level=1)
    src = base.scale
    tangent = ScVector(src, np.concatenate([[0.7], v]), 0)
    out = tangent_map(phi, TangentElement(base, tangent))
    # finite-difference oracle for the directional derivative
    eps = 1e-6
    plus = phi(base.coeffs + eps * tangent.coeffs, 1)
    minus = phi(base.coeffs - eps * tangent.coeffs, 1)
    oracle = (plus - minus) / (2 * eps)
    assert scale.norm(out.vector.coeffs - oracle, 0) < 1e-6
    assert np.allclose(out.base.coeffs, g)


# ------------------------------------------------------------ chain_rule_check

def test_chain_rule_two_linear_maps():
    scale = FiniteDimScale(2)
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [-1.0, 0.0]])
    f, g = linear_map(scale, a), linear_map(scale, b)
    tes = [
        TangentElement(scale.vector([0.1, 0.2], level=1), scale.vector([1.0, 0.0], level=0)),
        TangentElement(scale.vector([-0.3, 0.5], level=1), scale.vector([0.0, 1.0], level=0)),
    ]
    assert chain_rule_check(f, g, tes) < 1e-9


def test_chain_rule_square_then_exp():
    scale = FiniteDimScale(1)
    f = ScMap(whole_scale_domain(scale), scale,
              fn=lambda x, m: x ** 2, dfn=lambda x, h, m: 2 * x * h, name="square")
    g = ScMap(whole_scale_domain(scale), scale,
              fn=lambda x, m: np.exp(x), dfn=lambda x, h, m: np.exp(x) * h, name="exp")
    # the composite carries its own closed-form derivative
    gof = compose(f, g, dfn=lambda x, h, m: 2 * x * np.exp(x ** 2) * h)
    tes = [TangentElement(scale.vector([0.4], level=1), scale.vector([1.0], level=0))]
    assert chain_rule_check(f, g, tes, composite=gof) < 1e-10
    # finite-difference composite route stays below the FD tolerance
    assert chain_rule_check(f, g, tes) < 1e-8


def test_chain_rule_shift_after_affine_embedding():
    scale = grid_scale()
    phi = shift_map(scale)
    g0 = np.exp(-scale.grid ** 2 / 2)
    bump = np.exp(-(scale.grid - 1.5) ** 2)
    param = FiniteDimScale(1, max_level=scale.max_level)

    def embed(p, m):
        return np.concatenate([[0.2 * p[0]], g0 + p[0] * bump])

    def dembed(p, h, m):
        return np.concatenate([[0.2 * h[0]], h[0] * bump])

    f = ScMap(whole_scale_domain(param), phi.source.scale, embed, dembed, name="embed")
    tes = [TangentElement(param.vector([0.3], level=1), param.vector([1.0], level=0))]
    assert chain_rule_check(f, phi, tes) < 1e-6


# -------------------------------------------------------------------- shift map

def test_shift_zero_is_identity():
    scale = grid_scale()
    phi = shift_map(scale)
    u = np.exp(-scale.grid ** 2)
    out = phi(np.concatenate([[0.0], u]), 0)
    assert np.array_equal(out, u)


def test_shift_of_zero_function():
    scale = grid_scale()
    phi = shift_map(scale)
    for t in (-1.0, 0.3, 2.0):
        out = phi(np.concatenate([[t], np.zeros(scale.n)]), 0)
        assert np.all(out == 0.0)


def test_shift_gaussian_matches_closed_form():
    scale = grid_scale()
    phi = shift_map(scale)
    u = np.exp(-scale.grid ** 2)
    out = phi(np.concatenate([[0.5], u]), 0)
    oracle = np.exp(-(scale.grid + 0.5) ** 2)
    assert scale.norm(out - oracle, 0) < 1e-6


def test_shift_window_exit():
    scale = grid_scale()
    phi = shift_map(scale)
    u = np.exp(-scale.grid ** 2)
    with pytest.raises(WindowExitError):
        phi(np.concatenate([[scale.R], u]), 0)


def test_shift_group_law():
    scale = grid_scale()
    phi = shift_map(scale)
    u = np.exp(-scale.grid ** 2)
    for t1, t2 in ((0.3, 0.4), (-0.6, 0.2), (1.0, -1.0)):
        once = phi(np.concatenate([[t2], u]), 0)
        twice = phi(np.concatenate([[t1], once]), 0)
        direct = phi(np.concatenate([[t1 + t2], u]), 0)
        assert scale.norm(twice - direct, 0) < 1e-6


# ------------------------------------------------------------------ guards

def _vec(level, coeffs=(0.1, 0.2)):
    return FiniteDimScale(2).vector(list(coeffs), level=level)


def _identity2():
    return linear_map(FiniteDimScale(2), np.eye(2))


@pytest.mark.parametrize("build,error,message", [
    pytest.param(lambda: TangentElement(_vec(0), _vec(0)), LevelRangeError,
                 "tangent base must have level >= 1", id="tangent base"),
    pytest.param(lambda: TangentElement(_vec(2), _vec(0)), LevelRangeError,
                 "vector level must be base level - 1", id="tangent pairing"),
    pytest.param(lambda: sc1_probe(_identity2(), _vec(0), _vec(0), [1e-1]),
                 LevelRangeError, "probe base point must be at level >= 1",
                 id="probe level"),
    pytest.param(lambda: sc1_probe(_identity2(), _vec(1), _vec(0), [1e-2, 1e-1]),
                 ValueError, "h_sequence must be decreasing and positive",
                 id="h_sequence"),
    pytest.param(lambda: sc1_probe(_identity2(), _vec(1), _vec(0, (0.0, 0.0)), [1e-1]),
                 ValueError, "direction must be nonzero", id="zero direction"),
    pytest.param(lambda: chain_rule_check(_identity2(),
                                          linear_map(FiniteDimScale(3), np.eye(3)), []),
                 ValueError, "maps are not composable", id="not composable"),
    pytest.param(lambda: shift_map(FiniteDimScale(2)), ValueError,
                 "shift map needs a weighted_grid scale", id="shift scale"),
])
def test_sc_calculus_guards_raise(build, error, message):
    with pytest.raises(error, match=message):
        build()
