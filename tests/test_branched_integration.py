from fractions import Fraction

import numpy as np
import pytest

from scfold.branched_integration import (
    Branch,
    BranchedFamily,
    CallbackForm,
    Cell,
    Polynomial,
    PolynomialForm,
    curve_branch,
    de_rham_pairing,
    disk_branch,
    exterior_derivative,
    family_from_config,
    half_disk_branch,
    integrate,
    integrate_boundary,
    point_branch,
    result_to_json,
    segment_branch,
    skew_symmetry_residual,
    stokes_residual,
    theta_eval,
)
from scfold.errors import UnchartedPointError


def x_dy():
    # omega = x dy on the plane
    return PolynomialForm(2, 1, {(1,): Polynomial.coordinate(2, 0)})


def area_form():
    return PolynomialForm(2, 2, {(0, 1): Polynomial.constant(2, 1.0)})


def family(*branches, g=1):
    return BranchedFamily(list(branches), effective_order=g)


# -------------------------------------------------------------------- theta

def test_theta_point_off_branches():
    fam = family(disk_branch())
    assert theta_eval(fam, np.array([2.0, 0.0])) == 0


def test_theta_single_branch():
    fam = family(disk_branch())
    assert theta_eval(fam, np.array([0.3, 0.2])) == Fraction(1)


def test_theta_two_crossing_branches():
    s1 = segment_branch([-1.0, 0.0], [1.0, 0.0], weight=Fraction(1, 2))
    s2 = segment_branch([0.0, -1.0], [0.0, 1.0], weight=Fraction(1, 2))
    fam = family(s1, s2)
    # brute-force membership over the branch list at the crossing
    assert theta_eval(fam, np.zeros(2)) == Fraction(1)
    assert theta_eval(fam, np.array([0.5, 0.0])) == Fraction(1, 2)


def test_theta_uncovered_point_raises():
    fam = family(segment_branch([0.0, 0.0], [1.0, 0.0]))
    with pytest.raises(UnchartedPointError):
        theta_eval(fam, np.array([100.0, 100.0]))


# -------------------------------------------------------- exterior derivative

def test_d_of_constant_zero_form():
    c = PolynomialForm(2, 0, {(): Polynomial.constant(2, 3.0)})
    dc = exterior_derivative(c)
    assert dc.degree == 1
    assert dc(np.zeros(2), np.array([1.0, 0.0])) == 0.0


def test_d_of_x_dy_is_area_form():
    # symbolic coefficient differentiation oracle: d(x dy) = dx ^ dy
    d = exterior_derivative(x_dy())
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(2)
        u, v = rng.standard_normal(2), rng.standard_normal(2)
        assert d(x, u, v) == pytest.approx(u[0] * v[1] - u[1] * v[0], abs=1e-12)


def test_d_squared_zero_random_polynomials():
    rng = np.random.default_rng(1)
    terms = {}
    for i in range(3):
        poly = {}
        for _ in range(4):
            expo = tuple(rng.integers(0, 3, size=3))
            poly[expo] = float(rng.standard_normal())
        terms[(i,)] = Polynomial(3, poly)
    omega = PolynomialForm(3, 1, terms)
    dd = exterior_derivative(exterior_derivative(omega))
    for _ in range(100):
        x = rng.standard_normal(3)
        vecs = [rng.standard_normal(3) for _ in range(3)]
        assert abs(dd(x, *vecs)) <= 1e-8


def test_callback_form_requires_supplier():
    from scfold.errors import MissingDerivativeError

    cb = CallbackForm(2, 1, lambda x, v: x[0] * v[1])
    with pytest.raises(MissingDerivativeError):
        exterior_derivative(cb)
    d = exterior_derivative(cb, fd_fallback=True)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal(2)
        u, v = rng.standard_normal(2), rng.standard_normal(2)
        assert d(x, u, v) == pytest.approx(u[0] * v[1] - u[1] * v[0], abs=1e-6)


def test_skew_symmetry_check():
    ok = area_form()
    assert skew_symmetry_residual(ok, [np.zeros(2)]) <= 1e-12


# ----------------------------------------------------------------- integrate

def test_disk_area_is_pi():
    fam = family(disk_branch())
    res = integrate(fam, area_form(), order=12)
    assert res.value == pytest.approx(np.pi, abs=1e-8)


def test_two_identical_branches_half_weight():
    fam = family(disk_branch(name="a", weight=Fraction(1, 2)),
                 disk_branch(name="b", weight=Fraction(1, 2)))
    res = integrate(fam, area_form(), order=10)
    single = integrate(family(disk_branch()), area_form(), order=10)
    assert res.value == pytest.approx(single.value, rel=1e-12)


def test_effective_order_halves_value():
    fam = family(disk_branch(), g=2)
    res = integrate(fam, area_form(), order=10)
    # brute-force recomputation of the combination formula
    raw = res.per_branch[0][1]
    assert res.value == pytest.approx(raw * 1.0 / 2, rel=1e-14)
    assert res.value == pytest.approx(np.pi / 2, abs=1e-8)


def test_integration_linearity():
    fam = family(disk_branch())
    o1 = area_form()
    o2 = PolynomialForm(2, 2, {(0, 1): Polynomial.coordinate(2, 0)})  # x dx^dy
    r1 = integrate(fam, o1, order=10).value
    r2 = integrate(fam, o2, order=10).value
    combo = PolynomialForm(2, 2, {
        (0, 1): Polynomial(2, {(0, 0): 2.0, (1, 0): -3.0}),
    })
    rc = integrate(fam, combo, order=10).value
    assert rc == pytest.approx(2 * r1 - 3 * r2, abs=1e-10)


def test_additivity_disjoint_regions():
    fam = family(disk_branch())
    whole = integrate(fam, area_form(), order=10).value
    left = integrate(fam, area_form(),
                     region={"disk": [[(0.0, 1.0), (0.0, 0.5)]]}, order=10).value
    right = integrate(fam, area_form(),
                      region={"disk": [[(0.0, 1.0), (0.5, 1.0)]]}, order=10).value
    assert left + right == pytest.approx(whole, abs=1e-10)


def test_weight_scaling_consistency():
    base = family(disk_branch(weight=Fraction(1)))
    scaled = family(disk_branch(weight=Fraction(1, 3)))
    v1 = integrate(base, area_form(), order=8).value
    v2 = integrate(scaled, area_form(), order=8).value
    assert v2 == pytest.approx(v1 / 3, rel=1e-14)


def test_orientation_reversal_flips_sign():
    d = disk_branch()
    flipped_cells = [Cell(c.dim, c.chart_map, c.jac, c.bounds, -c.sign)
                     for c in d.cells]
    rev = Branch(flipped_cells, d.weight, name="rev")
    v1 = integrate(family(d), area_form(), order=8).value
    v2 = integrate(family(rev), area_form(), order=8).value
    assert v2 == pytest.approx(-v1, rel=1e-14)


def test_degree_mismatch_rejected():
    fam = family(disk_branch())
    with pytest.raises(ValueError, match="degree"):
        integrate(fam, x_dy())


# -------------------------------------------------------- boundary integrals

def test_boundary_of_closed_branches_is_zero():
    # the full polar disk's internal faces cancel; only the rim contributes,
    # and for a 0-form-free integrand dtheta-like cancellation is exact:
    # integrate a 1-form with no rim component
    fam = family(disk_branch())
    radial = PolynomialForm(2, 1, {
        (0,): Polynomial.coordinate(2, 0),
        (1,): Polynomial.coordinate(2, 1),
    })  # x dx + y dy vanishes on the rim tangent after summing
    res = integrate_boundary(fam, radial, order=12)
    assert res.value == pytest.approx(0.0, abs=1e-10)


def test_boundary_circle_x_dy():
    fam = family(disk_branch())
    res = integrate_boundary(fam, x_dy(), order=12)
    # closed-form line integral oracle: circumference integral of x dy is pi
    assert res.value == pytest.approx(np.pi, abs=1e-8)


def test_two_half_disks_glue_along_diameter():
    fam = family(half_disk_branch(+1), half_disk_branch(-1))
    res = integrate_boundary(fam, x_dy(), order=12)
    full = integrate_boundary(family(disk_branch(weight=Fraction(1, 2))),
                              x_dy(), order=12)
    # diameter contributions cancel; the glued rim at weight one half equals
    # the half-weight full circle
    assert res.value == pytest.approx(full.value, abs=1e-8)
    assert res.value == pytest.approx(np.pi / 2, abs=1e-8)
    # explicit two-branch computation: each half rim contributes pi/2
    per = dict(res.per_branch)
    assert per["upper-half"] == pytest.approx(np.pi / 2, abs=1e-8)
    assert per["lower-half"] == pytest.approx(np.pi / 2, abs=1e-8)


# ------------------------------------------------------------------- Stokes

def test_stokes_unit_disk_x_dy():
    fam = family(disk_branch())
    assert stokes_residual(fam, x_dy(), order=12) <= 1e-8


def test_stokes_zero_form_zero():
    fam = family(disk_branch())
    zero = PolynomialForm(2, 1, {})
    assert stokes_residual(fam, zero, order=6) == 0.0


def test_stokes_residual_decays_with_order():
    # richardson-style oracle: the residual must shrink monotonically in the
    # quadrature order on a weighted two-branch fixture
    fam = BranchedFamily([half_disk_branch(+1), half_disk_branch(-1)],
                         effective_order=2)
    omega = PolynomialForm(2, 1, {
        (1,): Polynomial(2, {(3, 0): 1.0, (1, 1): 0.5}),
        (0,): Polynomial(2, {(0, 2): -0.25}),
    })
    residuals = [stokes_residual(fam, omega, order=o) for o in (2, 4, 8, 12)]
    assert all(b <= a * 1.5 for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] <= 1e-6


def test_stokes_segment_fundamental_theorem():
    seg = segment_branch([0.0, 0.0], [1.0, 2.0])
    fam = family(seg)
    func = PolynomialForm(2, 0, {(): Polynomial(2, {(2, 0): 1.0, (0, 1): 1.0})})
    # oracle: f(1,2) - f(0,0) = 1 + 2 = 3
    inner = integrate(fam, exterior_derivative(func), order=12).value
    assert inner == pytest.approx(3.0, abs=1e-10)


# ----------------------------------------------------------- measure result

def test_result_json_schema():
    fam = family(disk_branch())
    res = integrate(fam, area_form(), order=6)
    import json

    payload = json.loads(result_to_json(res))
    assert set(payload) == {"value", "per_branch", "quadrature_order", "est_error"}


def test_default_effective_order_warns():
    with pytest.warns(UserWarning, match="effective"):
        BranchedFamily([disk_branch()])


def test_family_from_config_roundtrip():
    cfg = {
        "schema": "family/1",
        "effective_order": 1,
        "branches": [
            {
                "name": "square",
                "weight": "1/2",
                "cells": [
                    {"dim": 2, "sign": 1,
                     "map": [{"1,0": 1.0}, {"0,1": 1.0}]},
                ],
            }
        ],
    }
    fam = family_from_config(cfg)
    res = integrate(fam, area_form(), order=4)
    assert res.value == pytest.approx(0.5, abs=1e-12)


# ------------------------------------------------------------ deRham pairing

def pairing_fixture():
    from scfold.perturbation import (
        AuxiliaryNorm,
        BundleChart,
        BundleSection,
        StrongBundleModel,
        control_pair_build,
    )
    from scfold.sc_calculus import ScDomain
    from scfold.sc_core import FiniteDimScale, PartialQuadrant

    base = FiniteDimScale(1, max_level=3)
    domain = ScDomain(PartialQuadrant(base), center=np.zeros(1), radii=(1.5,) * 4)
    chart = BundleChart("main", domain, FiniteDimScale(1, max_level=3))
    model = StrongBundleModel([chart])
    f = BundleSection(model, lambda cid, x: x ** 2,
                      jac=lambda cid, x: 2 * x[..., None],
                      name="fold")
    aux = AuxiliaryNorm(model, norm_fn=lambda cid, v: float(np.linalg.norm(v)) / 0.04)
    cp = control_pair_build(f, aux, margin=0.5, seed=30)
    return f, cp


def test_pairing_index_zero_stable_across_trials():
    f, cp = pairing_fixture()
    one = PolynomialForm(1, 0, {(): Polynomial.constant(1, 1.0)})
    rep = de_rham_pairing(f, cp, one, trials=5, seed=41)
    assert rep.dimension_matched
    assert rep.stable
    # explicit root-count oracle: the fold's roots carry opposite signs
    assert all(v == Fraction(0) for v in rep.values)


def test_pairing_dimension_mismatch_returns_exact_zero():
    f, cp = pairing_fixture()
    wrong = PolynomialForm(1, 1, {(0,): Polynomial.constant(1, 1.0)})
    rep = de_rham_pairing(f, cp, wrong, trials=2, seed=43)
    assert not rep.dimension_matched
    assert all(v == 0.0 for v in rep.values)


def test_pairing_index_one_circle():
    from scfold.perturbation import (
        AuxiliaryNorm,
        BundleChart,
        BundleSection,
        StrongBundleModel,
        control_pair_build,
    )
    from scfold.sc_calculus import ScDomain
    from scfold.sc_core import FiniteDimScale, PartialQuadrant

    base = FiniteDimScale(2, max_level=3)
    domain = ScDomain(PartialQuadrant(base), center=np.zeros(2), radii=(1.6,) * 4)
    chart = BundleChart("main", domain, FiniteDimScale(1, max_level=3))
    model = StrongBundleModel([chart])
    f = BundleSection(model,
                      lambda cid, x: (x[..., :1] ** 2 + x[..., 1:] ** 2 - 1.0),
                      jac=lambda cid, x: 2 * x[..., None, :],
                      name="circle")
    aux = AuxiliaryNorm(model, norm_fn=lambda cid, v: float(np.linalg.norm(v)) / 0.2)
    cp = control_pair_build(f, aux, margin=0.6, seed=50)
    assert cp.certified

    def dtheta(x, v):
        r2 = x[0] ** 2 + x[1] ** 2
        return (x[0] * v[1] - x[1] * v[0]) / (2 * np.pi * r2)

    omega = CallbackForm(2, 1, dtheta)
    rep = de_rham_pairing(f, cp, omega, trials=3, seed=51)
    assert rep.dimension_matched
    # closed-form line integral: winding number of the circle is one, but the
    # kernel patch covers a bounded arc; compare trials against each other
    assert rep.spread <= 1e-6


def test_pairing_point_branch_building_blocks():
    # orientation signs enter point contributions exactly
    plus = point_branch([0.5], sign=1)
    minus = point_branch([-0.5], sign=-1)
    fam = family(plus, minus)
    one = PolynomialForm(1, 0, {(): Polynomial.constant(1, 1.0)})
    res = integrate(fam, one, order=2)
    assert res.value == pytest.approx(0.0, abs=1e-14)
