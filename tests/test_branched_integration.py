import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from scfold import _fd
from scfold import branched_integration as bi
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

    cb = CallbackForm(2, 1, lambda x, v: x[..., 0] * v[..., 1])
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


def test_repeated_pairing_trials_solve_nothing_new(monkeypatch):
    # a second pairing call over the same trials, as the pairing scenario's
    # mismatch check makes, reuses each trial's perturbation from the control
    # pair and its solution sets from the perturbation
    from scfold import perturbation

    f, cp = pairing_fixture()
    one = PolynomialForm(1, 0, {(): Polynomial.constant(1, 1.0)})
    first = de_rham_pairing(f, cp, one, trials=3, seed=41)
    solves = []
    seeded_zeros = perturbation._seeded_zeros

    def recording(*args):
        solves.append(args)
        return seeded_zeros(*args)

    monkeypatch.setattr(perturbation, "_seeded_zeros", recording)
    wrong = PolynomialForm(1, 1, {(0,): Polynomial.constant(1, 1.0)})
    assert de_rham_pairing(f, cp, wrong, trials=2, seed=41).values == [0.0, 0.0]
    assert de_rham_pairing(f, cp, one, trials=3, seed=41).values == first.values
    assert solves == []
    de_rham_pairing(f, cp, one, trials=4, seed=41)
    assert solves


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
        r2 = x[..., 0] ** 2 + x[..., 1] ** 2
        return (x[..., 0] * v[..., 1] - x[..., 1] * v[..., 0]) / (2 * np.pi * r2)

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


# ---------------------------------------------------------- rows of nodes

def per_node_cell_integral(cell, form, order, region=None):
    """The cell integral one Gauss node at a time: a pointwise chart,
    Jacobian and form call per node, summed from 0.0 in itertools.product
    order. The row quadrature must return the same float."""
    pts, wts = _fd.gauss01(order)
    grids = []
    scale = 1.0
    bounds = region if region is not None else cell.bounds
    for a, b in bounds:
        grids.append(a + (b - a) * pts)
        scale *= (b - a)
    total = 0.0
    if cell.dim == 0:
        p = cell.point(np.zeros(0))
        return cell.sign * form(p)
    for combo in itertools.product(*(range(len(pts)) for _ in range(cell.dim))):
        q = np.array([grids[d][combo[d]] for d in range(cell.dim)])
        wq = np.prod([wts[c] for c in combo])
        jac = cell.jacobian(q)
        vecs = [jac[:, j] for j in range(cell.dim)]
        total += wq * form(cell.point(q), *vecs)
    return cell.sign * scale * total


def rich_form():
    return PolynomialForm(2, 1, {
        (1,): Polynomial(2, {(3, 0): 1.0, (1, 1): 0.5}),
        (0,): Polynomial(2, {(0, 2): -0.25}),
    })


def unit_circle(t):
    return np.array([math.cos(t), math.sin(t)])


def config_family():
    return family_from_config({
        "schema": "family/1",
        "effective_order": 2,
        "branches": [{
            "name": "bent", "weight": "1/3",
            "cells": [{"dim": 2, "sign": -1, "bounds": [[0, 1], [-1, 0.5]],
                       "map": [{"1,0": 1.0, "2,1": 0.3, "0,0": 0.1},
                               {"0,1": 1.0, "3,0": -0.2}]}],
        }],
    })


def dtheta_form():
    def dtheta(x, v):
        r2 = x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]
        return (x[..., 0] * v[..., 1] - x[..., 1] * v[..., 0]) / (2 * np.pi * r2)

    return CallbackForm(2, 1, dtheta)


def smooth_callback_form():
    return CallbackForm(2, 1, lambda x, v: np.sin(x[..., 0]) * v[..., 1]
                        + x[..., 1] ** 3 * v[..., 0])


def wavy_zero_form():
    return CallbackForm(2, 0, lambda x: np.sin(x[..., 0]) * x[..., 1] ** 3)


QUADRATURE_CASES = {
    # name: (family, form integrated over it, form integrated over its boundary)
    "disk": (lambda: family(disk_branch()), area_form, x_dy),
    "half-disks": (lambda: family(half_disk_branch(+1), half_disk_branch(-1), g=2),
                   lambda: exterior_derivative(rich_form()), rich_form),
    "segment": (lambda: family(segment_branch([0.0, -1.0], [2.0, 0.5])),
                rich_form, lambda: PolynomialForm(2, 0, {(): Polynomial(
                    2, {(2, 1): 1.5, (0, 0): -2.0})})),
    "curve-fd": (lambda: family(curve_branch(unit_circle, 0.0, 2.0,
                                             weight=Fraction(3, 2))),
                 dtheta_form, wavy_zero_form),
    "config": (config_family, area_form, rich_form),
    "callback-fd": (lambda: family(disk_branch(weight=Fraction(2, 3))),
                    lambda: exterior_derivative(smooth_callback_form(),
                                                fd_fallback=True),
                    smooth_callback_form),
}


def reference_integrate(fam, form, region=None, order=12):
    """integrate with every cell integral taken one node at a time by
    per_node_cell_integral, each rule in its own pass, in the order branches,
    cells, sub-boxes."""
    per_branch = []
    total = 0.0
    low_total = 0.0
    for b in fam.branches:
        raw = 0.0
        raw_low = 0.0
        boxes = None if region is None else region.get(b.name)
        if region is not None and boxes is None:
            per_branch.append((b.name, 0.0))
            continue
        for cell in b.cells:
            for box in [None] if boxes is None else boxes:
                raw += per_node_cell_integral(cell, form, order, box)
                raw_low += per_node_cell_integral(cell, form, max(order - 1, 1), box)
        per_branch.append((b.name, raw))
        total += float(b.weight) * raw
        low_total += float(b.weight) * raw_low
    return bi.WeightedMeasureResult(
        total / fam.effective_order, order, per_branch,
        abs(total - low_total) / fam.effective_order)


def reference_integrate_boundary(fam, form, order=12):
    faces = [Branch([f for c in b.cells if c.dim for f in c.boundary_cells()],
                    b.weight, name=b.name) for b in fam.branches]
    faces = [b for b in faces if b.cells]
    if not faces:
        return bi.WeightedMeasureResult(0.0, order, [], 0.0)
    return reference_integrate(BranchedFamily(faces, fam.effective_order), form,
                               order=order)


def reference_stokes_residual(fam, form, order=12):
    inner = reference_integrate(fam, exterior_derivative(form, fd_fallback=True),
                                order=order)
    return abs(inner.value - reference_integrate_boundary(fam, form, order).value)


def _results(res):
    return res.value, res.per_branch, res.est_error, \
        [type(v) for _, v in res.per_branch]


@pytest.mark.parametrize("name", sorted(QUADRATURE_CASES))
@pytest.mark.parametrize("order", [1, 2, 5, 12])
def test_row_quadrature_matches_per_node_loop(name, order):
    make_family, inner, outer = QUADRATURE_CASES[name]
    fam = make_family()
    pairs = [(integrate, reference_integrate, inner, {}),
             (integrate_boundary, reference_integrate_boundary, outer, {})]
    if fam.branches[0].dim == 2:
        region = {b.name: [[(0.25, 0.5), (0.0, 0.75)]] for b in fam.branches}
        pairs.append((integrate, reference_integrate, inner, {"region": region}))
    for fn, reference, form, kw in pairs:
        got = _results(fn(fam, form(), order=order, **kw))
        assert got == _results(reference(fam, form(), order=order, **kw))
        assert all(t is np.float64 for t in got[3])


def test_row_quadrature_matches_per_node_loop_on_point_branches():
    fam = family(point_branch([0.5, -0.25], weight=Fraction(1, 3)),
                 point_branch([-0.5, 2.0], sign=-1))
    forms = [PolynomialForm(2, 0, {(): Polynomial(2, {(3, 1): 0.7, (0, 0): 1.0})}),
             wavy_zero_form()]
    region = {"point": [[], []]}
    for form in forms:
        assert _results(integrate(fam, form, order=3)) == \
            _results(reference_integrate(fam, form, order=3))
        assert _results(integrate(fam, form, region, order=3)) == \
            _results(reference_integrate(fam, form, region, order=3))


def test_stokes_residuals_match_per_node_loop():
    # the residuals sit at round-off and the stokes scenario's monotone check
    # reads them, so a changed summation order must show here
    two = family(half_disk_branch(+1), half_disk_branch(-1), g=2)
    disk = family(disk_branch())
    rows = [stokes_residual(two, rich_form(), order=o) for o in range(2, 13)]
    assert rows == [reference_stokes_residual(two, rich_form(), order=o)
                    for o in range(2, 13)]
    assert stokes_residual(disk, x_dy(), order=12) == 0.0
    assert reference_stokes_residual(disk, x_dy(), order=12) == 0.0
    assert 0.0 < rows[-1] <= 1e-12


def test_one_form_call_per_integral_and_one_chart_call_per_cell():
    calls = []

    def counted(name, fn):
        def wrapped(q, *rest):
            calls.append((name, len(q)))
            return fn(q, *rest)
        return wrapped

    fam = family(disk_branch(), half_disk_branch(+1), half_disk_branch(-1), g=2)
    for cell in (c for b in fam.branches for c in b.cells):
        cell.chart_map = counted("point", cell.chart_map)
        cell.jac = counted("jacobian", cell.jac)
    area = CallbackForm(2, 2, counted("form", area_form()))
    line = CallbackForm(2, 1, counted("form", x_dy()))
    region = {"disk": [[(0.0, 0.5), (0.0, 1.0)], [(0.5, 1.0), (0.0, 1.0)]],
              "upper-half": [[(0.0, 1.0), (0.0, 0.5)]]}
    cases = [(lambda: integrate(fam, area, order=12), 6, 144 + 121),
             (lambda: integrate(fam, area, order=1), 6, 1),
             (lambda: integrate(fam, area, region, order=5), 9, 25 + 16),
             (lambda: integrate_boundary(fam, line, order=4), 24, 4 + 3)]
    for run, pieces, nodes in cases:
        calls.clear()
        run()
        assert calls.count(("form", pieces * nodes)) == 1
        assert sorted(calls) == sorted([("form", pieces * nodes)]
                                       + [("jacobian", nodes)] * pieces
                                       + [("point", nodes)] * pieces)


@pytest.mark.parametrize("name", sorted(QUADRATURE_CASES))
def test_cells_evaluate_rows_as_points(name):
    fam = QUADRATURE_CASES[name][0]()
    rng = np.random.default_rng(3)
    cells = [c for b in fam.branches for c in b.cells]
    for cell in cells + [f for c in cells for f in c.boundary_cells() if f.dim]:
        q = rng.uniform(0.0, 1.0, (7, cell.dim))
        points, jacs = cell.point(q), cell.jacobian(q)
        assert points.shape[:-1] == (7,) and jacs.shape[::2] == (7, cell.dim)
        for i in range(7):
            np.testing.assert_array_equal(points[i], cell.point(q[i]))
            np.testing.assert_array_equal(jacs[i], cell.jacobian(q[i]))


def _random_form(rng, n, degree, terms=3):
    out = {}
    for _ in range(terms):
        idx = tuple(sorted(rng.choice(n, size=degree, replace=False).tolist()))
        out[idx] = Polynomial(n, {tuple(rng.integers(0, 4, size=n).tolist()):
                                  float(rng.standard_normal()) for _ in range(3)})
    return PolynomialForm(n, degree, out)


def _row_forms():
    rng = np.random.default_rng(5)
    forms = {f"degree-{k}": _random_form(rng, 3, k) for k in range(3)}
    forms["constant"] = PolynomialForm(3, 0, {(): Polynomial.constant(3, 2.5)})
    forms["empty"] = PolynomialForm(3, 2, {})
    forms["d-of-random"] = exterior_derivative(_random_form(rng, 3, 1))
    forms["callback"] = CallbackForm(
        3, 1, lambda x, v: np.exp(x[..., 2]) * v[..., 0] - x[..., 1] ** 3 * v[..., 2])
    forms["d-of-callback"] = exterior_derivative(forms["callback"], fd_fallback=True)
    return forms


@pytest.mark.parametrize("name", sorted(_row_forms()))
def test_forms_evaluate_rows_as_points(name):
    form = _row_forms()[name]
    rng = np.random.default_rng(6)
    x = rng.uniform(-2.0, 2.0, (9, 3))
    vecs = [rng.standard_normal((9, 3)) for _ in range(form.degree)]
    rows = form(x, *vecs)
    assert rows.shape == (9,)
    for i in range(9):
        point = form(x[i], *(v[i] for v in vecs))
        assert isinstance(point, np.float64)
        assert rows[i] == point


def test_polynomial_powers_are_the_scalar_powers():
    # x ** e on a float64 scalar is libm's pow; numpy's array power squares or
    # runs SIMD code that differs from it in the last bit on some inputs
    x = np.random.default_rng(7).uniform(-3.0, 3.0, (4000, 2))
    poly = Polynomial(2, {(3, 0): 1.0, (0, 2): 1.0, (1, 0): 1.0})
    want = [1.0 * np.float64(a) ** 3 + 1.0 * np.float64(b) ** 2 + 1.0 * np.float64(a)
            for a, b in x]
    np.testing.assert_array_equal(poly(x), want)


def test_polynomial_constant_terms_broadcast_over_rows():
    poly = Polynomial.constant(2, 1.5)
    assert poly(np.zeros((4, 2))).tolist() == [1.5] * 4
    assert Polynomial(2)(np.zeros((3, 5, 2))).shape == (3, 5)


def test_pointwise_chart_is_refused_on_rows():
    def chart(q):
        return np.array([q[0] * q[1], q[1]])

    cell = Cell(2, chart)
    fam = family(Branch([cell], Fraction(1), name="pointwise"))
    with pytest.raises(ValueError, match=r"cell of dimension 2 returned shape "
                                         r"\(2, 2\) for rows q of shape \(265, 2\); "
                                         r"rows need shape \(265, n\)"):
        integrate(fam, area_form(), order=12)
    assert cell.point(np.array([0.5, 0.25])).tolist() == [0.125, 0.25]


def test_pointwise_jacobian_is_refused_on_rows():
    def jac(q):
        return np.array([[1.0, 0.0], [0.0, 1.0]])

    cell = Cell(2, lambda q: q.copy(), jac)
    with pytest.raises(ValueError, match=r"cell of dimension 2 returned shape "
                                         r"\(2, 2\) for rows q of shape \(25, 2\); "
                                         r"rows need shape \(25, n, 2\)"):
        integrate(family(Branch([cell], Fraction(1))), area_form(), order=4)


def test_pointwise_callback_form_is_refused_on_rows():
    form = CallbackForm(2, 1, lambda x, v: x[0] * v[1])
    fam = family(segment_branch([0.0, 0.0], [1.0, 1.0]))
    with pytest.raises(ValueError, match=r"form returned shape \(2,\) for rows x "
                                         r"of shape \(9, 2\); rows need shape \(9,\)"):
        integrate(fam, form, order=5)
