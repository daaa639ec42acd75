import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scfold import _fd, perturbation, scenarios
from scfold._fd import (
    GAUSS_NEWTON_RCOND,
    gauss_newton as _gauss_newton,
    min_norm_step as _min_norm_step,
)
from scfold.errors import (
    BiLevelError,
    ExhaustedAttemptsError,
    NonConvergenceError,
    NotASolutionError,
    UnchartedPointError,
)
from scfold.perturbation import (
    CORRECTOR_ACCEPT_TOL,
    AuxiliaryNorm,
    BundleChart,
    BundleSection,
    ControlPair,
    ControlRegion,
    Multisection,
    SolutionBranch,
    StrongBundleModel,
    _chart_radius,
    bilevel_check,
    cobordism_compare,
    control_pair_build,
    linearization_set,
    multisection_norm,
    multisection_sum,
    orientation_sign,
    perturb_to_transversal,
    regularizing_check,
    solution_set,
    transversal_check,
    weighted_count,
    zero_section,
)
from scfold.sc_calculus import ScDomain
from scfold.sc_core import CircleGridScale, FiniteDimScale, PartialQuadrant
from scfold.scenarios import _porkbarrel_bundle


# ------------------------------------------------------------------ fixtures

def finite_model(base_dim=1, fiber_dim=1, radius=1.5, quadrant=()):
    base = FiniteDimScale(base_dim, max_level=3)
    domain = ScDomain(PartialQuadrant(base, quadrant), center=np.zeros(base_dim),
                      radii=(radius,) * 4)
    chart = BundleChart("main", domain, FiniteDimScale(fiber_dim, max_level=3))
    return StrongBundleModel([chart], name="finite")


def fold_section(model):
    """f(x) = x^2: degenerate at the origin, index zero."""
    return BundleSection(
        model, lambda cid, x: x ** 2,
        jac=lambda cid, x: 2 * x[..., None], name="fold")


def const_branch(model, value, name="shift"):
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return BundleSection(
        model, lambda cid, x: np.tile(v, x.shape[:-1] + (1,)), tag="sc_plus",
        jac=lambda cid, x: np.zeros(x.shape[:-1] + (v.size, x.shape[-1])),
        name=name)


def rows_of(matrix, x):
    """The Jacobian of an affine section at every row of x: matrix, repeated."""
    return np.broadcast_to(matrix, x.shape[:-1] + np.shape(matrix))


def scaled_aux(model, scale=0.04):
    return AuxiliaryNorm(model, norm_fn=lambda cid, v: float(np.linalg.norm(v)) / scale)


# ------------------------------------------------------------ loop model

@pytest.fixture(scope="module")
def loop_model():
    n = 256
    base = CircleGridScale(n, max_level=2, orders=[1, 2, 3])
    fiber = CircleGridScale(n, max_level=2, orders=[0, 1, 2])
    from scfold.sc_calculus import whole_scale_domain

    chart = BundleChart("loop", whole_scale_domain(base), fiber)
    return StrongBundleModel([chart], name="loop")


def graded_loop_function(fiber, rough_order, smooth_k=2, rough_k=80, seed=0,
                         rough_strength=6.0):
    """Two-frequency function whose norm-growth ratio ladder crosses the
    roughness threshold exactly above rough_order. The rough component is
    normalized at its order and boosted so the jump survives dilution by the
    cumulative smooth norms."""
    theta = fiber.grid
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0, 2 * np.pi)
    rough = np.cos(rough_k * theta + phase)
    dk = fiber.diff(1)
    v = rough.copy()
    for _ in range(rough_order):
        v = dk @ v
    amp = rough_strength / np.sqrt(fiber.h * np.sum(v ** 2))
    return np.cos(smooth_k * theta) + amp * rough


def test_graded_function_diagnostics(loop_model):
    fiber = loop_model.chart("loop").fiber
    base = loop_model.chart("loop").base_scale
    for j0 in (1, 2):
        u = graded_loop_function(fiber, j0)
        assert fiber.regularity_level(u) == j0
        assert base.regularity_level(u) == j0 - 1


# --------------------------------------------------------------- bi-level rule

def test_bilevel_admissibility_enforced():
    model = finite_model()
    with pytest.raises(BiLevelError):
        model.element("main", np.zeros(1), 1, np.zeros(1), 3)
    e = model.element("main", np.zeros(1), 1, np.zeros(1), 2)
    assert e.fiber_level == 2


def test_bilevel_zero_section_tagged_up(loop_model):
    z = zero_section(loop_model)
    fiber = loop_model.chart("loop").fiber
    samples = [("loop", graded_loop_function(fiber, 2), 1)]
    assert bilevel_check(z, samples).passed


def test_bilevel_loop_derivative_plain(loop_model):
    fiber = loop_model.chart("loop").fiber
    d1 = fiber.diff(1)
    der = BundleSection(loop_model, lambda cid, x: d1 @ x, tag="sc",
                        name="loop-derivative")
    samples = []
    for m in (0, 1):
        x = graded_loop_function(fiber, m + 1, seed=m)
        samples.append(("loop", x, m))
    rep = bilevel_check(der, samples)
    assert rep.passed
    # the same section tagged one-level-up must fail: it drops one order
    der_up = BundleSection(loop_model, lambda cid, x: d1 @ x, tag="sc_plus")
    assert not bilevel_check(der_up, samples).passed


def test_bilevel_inclusion_is_one_level_up(loop_model):
    fiber = loop_model.chart("loop").fiber
    incl = BundleSection(loop_model, lambda cid, x: x, tag="sc_plus",
                         name="inclusion")
    samples = [("loop", graded_loop_function(fiber, m + 1, seed=m), m)
               for m in (0, 1)]
    assert bilevel_check(incl, samples).passed


# ---------------------------------------------------------- regularizing_check

def test_regularizing_elliptic_solve(loop_model):
    fiber = loop_model.chart("loop").fiber
    n = fiber.n
    d1 = fiber.diff(1).toarray()
    op = d1 + np.eye(n)
    sec = BundleSection(loop_model, lambda cid, x: (d1 + np.eye(n)) @ x,
                        tag="sc", name="elliptic")
    samples = []
    for m in (0, 1):
        g = graded_loop_function(fiber, m + 1, seed=m + 3)
        x = np.linalg.solve(op, g)
        samples.append(("loop", x, m))
    rep = regularizing_check(sec, samples)
    assert rep.passed


def test_regularizing_zero_section_vacuous(loop_model):
    z = zero_section(loop_model, tag="sc")
    fiber = loop_model.chart("loop").fiber
    smooth = np.cos(2 * fiber.grid)
    rep = regularizing_check(z, [("loop", smooth, m) for m in (0, 1)])
    assert rep.passed


def test_regularizing_multiplication_counterexample(loop_model):
    fiber = loop_model.chart("loop").fiber
    weight = 2.0 + np.cos(fiber.grid)
    sec = BundleSection(loop_model, lambda cid, x: weight * x, tag="sc",
                        name="multiplication")
    x = graded_loop_function(fiber, 2, seed=9)  # base level 1, no more
    rep = regularizing_check(sec, [("loop", x, 1)])
    assert not rep.passed
    assert rep.counterexamples


# ---------------------------------------------------------- multisection_eval

def test_multisection_single_branch_hit_and_miss():
    model = finite_model()
    s = const_branch(model, [0.3])
    lam = Multisection(model, [(s, Fraction(1))])
    hit = model.element("main", np.zeros(1), 1, np.array([0.3]), 1)
    miss = model.element("main", np.zeros(1), 1, np.array([0.4]), 1)
    assert lam.eval(hit) == Fraction(1)
    assert lam.eval(miss) == Fraction(0)


def test_multisection_equal_sections_sum_weights():
    model = finite_model()
    s1 = const_branch(model, [0.3])
    s2 = const_branch(model, [0.3])
    lam = Multisection(model, [(s1, Fraction(1, 3)), (s2, Fraction(2, 3))])
    hit = model.element("main", np.zeros(1), 1, np.array([0.3]), 1)
    # brute-force sum over the branch list
    assert lam.eval(hit) == Fraction(1)


def test_multisection_weights_must_sum_to_one():
    model = finite_model()
    with pytest.raises(ValueError, match="sum to one"):
        Multisection(model, [(const_branch(model, [0.1]), Fraction(1, 2))])


def test_multisection_uncharted_point():
    model = finite_model(radius=0.5)
    lam = Multisection.zero(model)
    with pytest.raises(UnchartedPointError):
        model.element("main", np.array([5.0]), 1, np.zeros(1), 1)


# ----------------------------------------------------------- multisection_sum

def brute_force_convolution(l1, l2, element):
    """Oracle: sum over all splittings h1 + h2 = h of the element's fiber."""
    model = l1.model
    total = Fraction(0)
    for s1, w1 in l1.branches:
        v1 = s1(element.chart_id, element.base)
        h2 = element.fiber - v1
        e2 = model.element(element.chart_id, element.base, element.base_level,
                           h2, element.fiber_level)
        total += w1 * l2.eval(e2)
    return total


def test_convolution_identity_element():
    model = finite_model()
    lam = Multisection(model, [(const_branch(model, [0.2]), Fraction(1, 2)),
                               (const_branch(model, [-0.1]), Fraction(1, 2))])
    total = multisection_sum(lam, Multisection.zero(model))
    for v in (0.2, -0.1, 0.05):
        e = model.element("main", np.zeros(1), 1, np.array([v]), 1)
        assert total.eval(e) == lam.eval(e)


def test_convolution_four_branches_quarter_weights():
    model = finite_model()
    l1 = Multisection(model, [(const_branch(model, [0.1]), Fraction(1, 2)),
                              (const_branch(model, [0.2]), Fraction(1, 2))])
    l2 = Multisection(model, [(const_branch(model, [0.4]), Fraction(1, 2)),
                              (const_branch(model, [0.8]), Fraction(1, 2))])
    total = multisection_sum(l1, l2)
    assert len(total.branches) == 4
    assert all(w == Fraction(1, 4) for _, w in total.branches)
    for v in (0.5, 0.9, 0.6, 1.0, 0.3):
        e = model.element("main", np.zeros(1), 1, np.array([v]), 1)
        assert total.eval(e) == brute_force_convolution(l1, l2, e)


def test_convolution_weight_products():
    model = finite_model()
    l1 = Multisection(model, [(const_branch(model, [0.1]), Fraction(1, 3)),
                              (const_branch(model, [0.2]), Fraction(2, 3))])
    l2 = Multisection(model, [(const_branch(model, [1.0]), Fraction(1, 4)),
                              (const_branch(model, [2.0]), Fraction(3, 4))])
    total = multisection_sum(l1, l2)
    weights = sorted(w for _, w in total.branches)
    assert weights == sorted([Fraction(1, 12), Fraction(1, 4),
                              Fraction(1, 6), Fraction(1, 2)])
    assert sum(weights) == 1


def test_convolution_merges_coinciding_branches():
    model = finite_model()
    l1 = Multisection(model, [(const_branch(model, [0.1]), Fraction(1, 2)),
                              (const_branch(model, [0.2]), Fraction(1, 2))])
    l2 = Multisection(model, [(const_branch(model, [0.2]), Fraction(1, 2)),
                              (const_branch(model, [0.1]), Fraction(1, 2))])
    total = multisection_sum(l1, l2)
    # 0.1+0.2 and 0.2+0.1 coincide pointwise and merge to weight 1/2
    assert len(total.branches) == 3
    assert sum(w for _, w in total.branches) == 1


# branch values from a short list, so coinciding sums (and merges) are common
branch_lists = st.lists(
    st.tuples(st.sampled_from([-0.5, -0.1, 0.0, 0.1, 0.2, 0.4]), st.integers(1, 9)),
    min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(b1=branch_lists, b2=branch_lists)
def test_convolution_weights_sum_exactly_to_one(b1, b2):
    model = finite_model()

    def multisection(branches):
        total = sum(k for _, k in branches)
        return Multisection(model, [(const_branch(model, [v]), Fraction(k, total))
                                    for v, k in branches])

    out = multisection_sum(multisection(b1), multisection(b2))
    weights = [w for _, w in out.branches]
    assert all(isinstance(w, Fraction) and w > 0 for w in weights)
    assert sum(weights, Fraction(0)) == Fraction(1)


# ---------------------------------------------------------- multisection_norm

def test_norm_zero_multisection():
    model = finite_model()
    aux = AuxiliaryNorm(model)
    lam = Multisection.zero(model)
    assert multisection_norm(lam, aux, "main", np.zeros(1)) == 0.0


def test_norm_single_branch_value():
    model = finite_model()
    aux = AuxiliaryNorm(model)
    lam = Multisection(model, [(const_branch(model, [0.7]), Fraction(1))])
    assert multisection_norm(lam, aux, "main", np.zeros(1)) == pytest.approx(0.7)


def test_norm_subadditive_under_convolution():
    model = finite_model()
    aux = AuxiliaryNorm(model)
    l1 = Multisection(model, [(const_branch(model, [0.3]), Fraction(1))])
    l2 = Multisection(model, [(const_branch(model, [0.4]), Fraction(1))])
    total = multisection_sum(l1, l2)
    x = np.zeros(1)
    assert (multisection_norm(total, aux, "main", x)
            <= multisection_norm(l1, aux, "main", x)
            + multisection_norm(l2, aux, "main", x) + 1e-12)


def test_aux_norm_axioms():
    model = finite_model(fiber_dim=3)
    aux = AuxiliaryNorm(model)
    assert aux.verify_axioms("main", sample_count=100, seed=3)


# ------------------------------------------------------------- control pairs

def test_control_pair_fold():
    model = finite_model()
    f = fold_section(model)
    aux = scaled_aux(model)
    cp = control_pair_build(f, aux, margin=0.5, seed=1)
    assert cp.certified
    assert cp.region.contains("main", np.zeros(1))


def test_control_pair_no_zeros_is_certified():
    model = finite_model()
    f = BundleSection(model, lambda cid, x: x ** 2 + 1.0,
                      name="positive")
    aux = scaled_aux(model)
    cp = control_pair_build(f, aux, margin=0.3, seed=2)
    assert cp.certified
    assert not cp.region.balls.get("main")


def test_control_pair_escaping_zero_set_fails():
    model = finite_model(base_dim=2, fiber_dim=1, radius=2.0)
    f = BundleSection(model, lambda cid, x: x[..., :1] - x[..., 1:],
                      name="line")
    aux = scaled_aux(model, scale=1.0)
    cp = control_pair_build(f, aux, margin=0.4, seed=3)
    assert not cp.certified
    assert cp.report["escaped_zeros"]


# -------------------------------------------------------------- solution sets

def test_solution_set_zero_section_is_zero_set():
    model = finite_model()
    f = BundleSection(model, lambda cid, x: x ** 2 - 0.25,
                      jac=lambda cid, x: 2 * x[..., None])
    sols = solution_set(f, Multisection.zero(model), seed=5)
    pts = sorted(p[0] for b in sols for p in b.points)
    assert len(pts) == 2
    assert pts[0] == pytest.approx(-0.5, abs=1e-9)
    assert pts[1] == pytest.approx(0.5, abs=1e-9)
    assert all(b.weight == 1 for b in sols)


def test_solution_set_two_branch_parallel_lines():
    # linear surjective map on the plane, two constant branches
    model = finite_model(base_dim=2, fiber_dim=1, radius=1.5)
    f = BundleSection(model, lambda cid, x: x[..., :1] + x[..., 1:],
                      jac=lambda cid, x: rows_of([[1.0, 1.0]], x))
    lam = Multisection(model, [(const_branch(model, [0.4]), Fraction(1, 2)),
                               (const_branch(model, [-0.4]), Fraction(1, 2))])
    sols = solution_set(f, lam, seed=6)
    assert {b.branch_index for b in sols} == {0, 1}
    for b in sols:
        assert b.dimension == 1
        assert b.weight == Fraction(1, 2)
        target = 0.4 if b.branch_index == 0 else -0.4
        for p in b.points:
            assert p[0] + p[1] == pytest.approx(target, abs=1e-8)


def test_solution_set_branch_without_solutions_contributes_nothing():
    model = finite_model()
    f = BundleSection(model, lambda cid, x: x ** 2,
                      jac=lambda cid, x: 2 * x[..., None])
    lam = Multisection(model, [(const_branch(model, [-0.5]), Fraction(1))])
    sols = solution_set(f, lam, seed=7)
    assert sols == []


# ------------------------------------------------------------------ corrector

def _rows(x):
    """Rows in x: 1 for one point, n for an (n, d) batch."""
    return int(np.prod(np.shape(x)[:-1]))


def _corrected(fn, x0, out_dim):
    """The corrector on one start: _gauss_newton on a one-row batch and its
    point, or None unless the residual there is at most CORRECTOR_ACCEPT_TOL."""
    x, res = _gauss_newton(fn, np.array([x0], dtype=float), out_dim)
    return x[0] if res[0] <= CORRECTOR_ACCEPT_TOL else None


def test_corrector_square_system_root():
    def fn(x):
        return np.stack([x[..., 0] ** 2 + x[..., 1] ** 2 - 2.0,
                         x[..., 0] - x[..., 1]], axis=-1)

    x = _corrected(fn, [0.7, 1.4], 2)
    assert x is not None
    assert np.linalg.norm(fn(x)) <= 1e-8
    assert x == pytest.approx([1.0, 1.0], abs=1e-8)


def test_corrector_index_one_circle():
    def fn(x):
        return (x[..., 0] ** 2 + x[..., 1] ** 2 - 1.0)[..., None]

    x = _corrected(fn, [0.3, 0.8], 1)
    assert x is not None
    assert np.linalg.norm(fn(x)) <= 1e-8


def test_corrector_rejects_map_without_zero():
    assert _corrected(lambda x: x ** 2 + 1.0, [0.4], 1) is None


def _with_singular_values(rng, sigmas):
    """Random 2x2 with the given singular values, and a right-hand side of
    unit weight on both left singular vectors."""
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    return u @ np.diag(sigmas) @ v.T, u @ np.ones(2)


def _step_cases():
    rng = np.random.default_rng(3)
    cases = [(f"row 1x{n}", rng.standard_normal((1, n))) for n in range(1, 5)
             for _ in range(5)]
    cases += [
        ("zero row", np.zeros((1, 3))),
        ("huge row", np.array([[1e200, -3e199]])),
        ("tiny row", np.array([[1e-200, 2e-201]])),
        ("rank one 2x2", np.outer([1.0, -2.0], [0.5, 3.0])),
        ("2x3", rng.standard_normal((2, 3))),
        ("3x2", rng.standard_normal((3, 2))),
    ]
    cases = [(name, jac, rng.standard_normal(jac.shape[0])) for name, jac in cases]
    # sigma_1 / sigma_0 just below and just above GAUSS_NEWTON_RCOND
    cases.append(("dropped 1e-13", *_with_singular_values(rng, [1.0, 1e-13])))
    cases.append(("kept 1e-11", *_with_singular_values(rng, [1.0, 1e-11])))
    return cases


STEP_CASES = _step_cases()


@pytest.mark.parametrize("name,jac,val", STEP_CASES,
                         ids=[c[0] for c in STEP_CASES])
def test_min_norm_step_matches_pinv(name, jac, val):
    with np.errstate(over="ignore"):  # |row|^2 of the huge row overflows
        ref = np.linalg.pinv(jac, rcond=GAUSS_NEWTON_RCOND) @ val
        (step,) = _min_norm_step(jac[None], val[None])
    scale = np.abs(ref).max() or 1.0  # keeps the norms of 1e199 finite
    assert (np.linalg.norm((step - ref) / scale)
            <= 1e-12 * np.linalg.norm(ref / scale))
    if name == "zero row":
        assert np.array_equal(step, np.zeros(3))
    if name == "dropped 1e-13":  # no component of size 1/sigma_1
        assert np.linalg.norm(step) < 2.0
    if name == "kept 1e-11":
        assert np.linalg.norm(step) > 1e10


@pytest.mark.parametrize("shape", [(1, 2), (1, 3), (2, 3), (3, 2)], ids=str)
def test_min_norm_step_of_a_batch_is_the_step_of_each_row(shape):
    # the one-row formula runs on all rows at once, so the zero, huge and
    # tiny rows that it rescales sit in the same batch as ordinary ones
    cases = [(jac, val) for _, jac, val in STEP_CASES if jac.shape == shape]
    if shape[0] == 1:
        cases += [(np.zeros(shape), np.ones(1)),
                  (np.full(shape, 1e200), np.ones(1)),
                  (np.full(shape, 1e-200), np.ones(1))]
    jacs = np.array([jac for jac, _ in cases])
    vals = np.array([val for _, val in cases])
    with np.errstate(over="ignore"):
        steps = _min_norm_step(jacs, vals)
        assert steps.shape == (len(cases), shape[1])
        for step, jac, val in zip(steps, jacs, vals):
            assert np.array_equal(step, _min_norm_step(jac[None], val[None])[0])
            assert np.array_equal(step, scalar_min_norm_step(jac, val))


@pytest.mark.parametrize("fn,x0,out_dim", [
    (lambda x: np.sqrt(x) - 0.5, [-1.0], 1),
    (lambda x: np.exp(800 * x) - 1.0, [1.0], 1),
    (lambda x: np.stack([np.sqrt(x[..., 0]) - 0.5, x[..., 1]], axis=-1),
     [-1.0, 0.3], 2),
    (lambda x: np.stack([np.exp(800 * x[..., 0]) - 1.0, x[..., 0] - x[..., 1]],
                        axis=-1), [1.0, 0.0], 2),
], ids=["sqrt 1 row", "exp 1 row", "sqrt 2 rows", "exp 2 rows"])
def test_corrector_ends_quietly_on_non_finite_jacobian(fn, x0, out_dim, capfd):
    with np.errstate(invalid="ignore", over="ignore"):
        jac = _fd.jacobian(fn, np.array(x0), out_dim, 1e-7)
    assert not np.isfinite(jac).all()
    assert _corrected(fn, x0, out_dim) is None
    assert capfd.readouterr() == ("", "")


# the Gauss-Newton loop and seeded search as they were for one start at a
# time: the references that the batched solve must match row by row, bit for
# bit; fn and jac take one point


def scalar_norm(v):
    sq = v.dot(v)
    if math.isfinite(sq) or not np.isfinite(v).all():
        return math.sqrt(sq)
    big = np.abs(v).max()
    return big * scalar_norm(v / big)


def scalar_min_norm_step(jac, val):
    if jac.shape[0] == 1:
        row = jac[0]
        sq = row.dot(row)
        if 1e-300 < sq < math.inf:
            return row * (val[0] / sq)
        if not np.isfinite(row).all():
            return None
        big = np.abs(row).max()
        if big == 0.0:
            return np.zeros_like(row)
        row = row / big
        return row * (val[0] / big / row.dot(row))
    if not np.isfinite(jac).all():
        return None
    return np.linalg.lstsq(jac, val, rcond=GAUSS_NEWTON_RCOND)[0]


def scalar_gauss_newton(fn, x0, out_dim, tol=1e-11, max_iter=80, jac=None,
                        searches=None):
    """One start, one halving at a time; searches, when given, gets the
    number of candidates each line search evaluated (1 to 12)."""
    if jac is None:
        def jac(z, h):
            return _fd.jacobian(fn, z, out_dim, h)

    x = np.asarray(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        val = np.atleast_1d(fn(x))
        res = scalar_norm(val)
        for _ in range(max_iter):
            if res <= tol:
                break
            size = 1.0 + scalar_norm(x)
            step = scalar_min_norm_step(jac(x, 1e-7 * size), val)
            if step is None:
                break
            cap = 10.0 * size
            sn = scalar_norm(step)
            if sn > cap:
                step *= cap / sn
            t = 1.0
            for k in range(1, 13):
                cand = x - t * step
                cand_val = np.atleast_1d(fn(cand))
                cand_res = scalar_norm(cand_val)
                if cand_res < res:
                    break
                t *= 0.5
            if searches is not None:
                searches.append(k)
            if not cand_res < res:
                break
            x, val, res = cand, cand_val, cand_res
    return x, res


def scalar_seeded_zeros(fn, jac, chart, count, rng, tol):
    d = chart.domain.center.size
    radius = perturbation._chart_radius(chart)
    found = []
    for _ in range(count):
        x0 = chart.domain.center + radius * rng.uniform(-1, 1, d)
        x_sol, res = scalar_gauss_newton(fn, x0, chart.fiber_dim(), tol, jac=jac)
        if res > CORRECTOR_ACCEPT_TOL or not chart.domain.contains(x_sol, 0):
            continue
        if any(np.linalg.norm(x_sol - y) < 1e-5 for y in found):
            continue
        found.append(x_sol)
    return found


def reference_gauss_newton(fn, x0, out_dim, tol=1e-11, max_iter=80):
    """Damped Gauss-Newton as it was before the accepted value was carried
    forward: fn is evaluated again at every accepted point."""
    x = np.asarray(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            val = np.atleast_1d(fn(x))
            res = np.linalg.norm(val)
            if res <= tol:
                return x
            jac = _fd.jacobian(fn, x, out_dim, 1e-7 * (1.0 + np.linalg.norm(x)))
            step = scalar_min_norm_step(jac, val)
            cap = 10.0 * (1.0 + np.linalg.norm(x))
            sn = np.linalg.norm(step)
            if sn > cap:
                step *= cap / sn
            t = 1.0
            for _ in range(12):
                cand = x - t * step
                if np.linalg.norm(np.atleast_1d(fn(cand))) < res:
                    x = cand
                    break
                t *= 0.5
            else:
                return x
    return x


def _trough(x):
    ramp = np.maximum(0.0, np.abs(x[..., 0] - 0.8) - 0.25)
    return (x[..., 1] ** 2 + ramp ** 2)[..., None]


# name -> (row map, out_dim, center, radius of the seeded starts)
GN_FIXTURES = {
    "fold": (lambda x: x ** 2, 1, [0.0], 1.5),
    "circle": (lambda x: (x[..., 0] ** 2 + x[..., 1] ** 2 - 1.0)[..., None], 1,
               [0.0, 0.0], 1.5),
    "square": (lambda x: np.stack([x[..., 0] ** 2 + x[..., 1] ** 2 - 2.0,
                                   x[..., 0] - x[..., 1]], axis=-1),
               2, [0.0, 0.0], 2.0),
    "trough": (_trough, 1, [0.8, 0.0], 0.55),
    "no_zero": (lambda x: x ** 2 + 1.0, 1, [0.0], 1.0),
}


def _fixture_starts(name, count=6, seed=11):
    _, _, center, radius = GN_FIXTURES[name]
    rng = np.random.default_rng(seed)
    return np.asarray(center) + radius * rng.uniform(-1, 1, (count, len(center)))


@pytest.mark.parametrize("max_iter", [80, 3])
@pytest.mark.parametrize("name", sorted(GN_FIXTURES))
def test_gauss_newton_matches_reference_with_fewer_evaluations(name, max_iter):
    fn, out_dim, _, _ = GN_FIXTURES[name]
    for x0 in _fixture_starts(name):
        calls = [0, 0]

        def counted(x, k):
            calls[k] += 1
            return fn(x)

        (x,), (res,) = _gauss_newton(lambda z: counted(z, 0), x0[None],
                                     out_dim, max_iter=max_iter)
        x_ref = reference_gauss_newton(lambda z: counted(z, 1), x0, out_dim,
                                       max_iter=max_iter)
        res_ref = np.linalg.norm(counted(x_ref, 1))  # the corrector's test
        assert np.array_equal(x, x_ref)
        assert res == res_ref
        assert res == np.linalg.norm(fn(x))
        assert calls[0] < calls[1]


def _trough_jac(x, h):
    ramp = np.maximum(0.0, np.abs(x[..., 0] - 0.8) - 0.25)
    return np.stack([2.0 * ramp * np.sign(x[..., 0] - 0.8), 2.0 * x[..., 1]],
                    axis=-1)[..., None, :]


# name -> analytic jac(x, h) of the GN_FIXTURES map
GN_JACOBIANS = {
    "fold": lambda x, h: 2.0 * x[..., None],
    "circle": lambda x, h: 2.0 * x[..., None, :],
    "square": lambda x, h: np.stack(
        [2.0 * x, np.broadcast_to([1.0, -1.0], x.shape)], axis=-2),
    "trough": _trough_jac,
    "no_zero": lambda x, h: 2.0 * x[..., None],
}


@pytest.mark.parametrize("max_iter", [80, 3])
@pytest.mark.parametrize("name", sorted(GN_FIXTURES))
def test_gauss_newton_with_analytic_jacobian_reaches_the_same_roots(name,
                                                                    max_iter):
    fn, out_dim, _, _ = GN_FIXTURES[name]
    for x0 in _fixture_starts(name):
        calls = [0, 0]

        def counted(x, k):
            calls[k] += 1
            return fn(x)

        (x,), (res,) = _gauss_newton(lambda z: counted(z, 0), x0[None],
                                     out_dim, max_iter=max_iter,
                                     jac=GN_JACOBIANS[name])
        (x_fd,), (res_fd,) = _gauss_newton(lambda z: counted(z, 1), x0[None],
                                           out_dim, max_iter=max_iter)
        if name != "no_zero":  # which has no root, only a stall point
            assert np.abs(x - x_fd).max() <= 1e-9
        assert res == np.linalg.norm(fn(x))
        assert (res <= CORRECTOR_ACCEPT_TOL) == (res_fd <= CORRECTOR_ACCEPT_TOL)
        assert calls[0] < calls[1]


def _overflow_one_row(x):
    return np.exp(800 * x) - 1


def _overflow_two_rows(x):
    return np.stack([np.exp(800 * x[..., 0]) - 1, 1e300 * x[..., 1]], axis=-1)


@pytest.mark.parametrize("x0", [0.88, 0.87])
@pytest.mark.parametrize("two_rows", [False, True])
def test_gauss_newton_residual_finite_where_its_square_overflows(x0, two_rows):
    # |fn| is 1e302 to 1e306 near x0: finite, but its square is not. From 0.88
    # the Jacobian overflows and the solve stops at x0; from 0.87 the line
    # search has to see finite residuals to make progress.
    fn = _overflow_two_rows if two_rows else _overflow_one_row
    start = np.array([[x0, 1.0]] if two_rows else [[x0]])
    for max_iter in (80, 3):
        (x,), (res,) = _gauss_newton(fn, start, start.shape[1],
                                     max_iter=max_iter)
        exact = math.hypot(*fn(x))
        assert math.isfinite(res)
        assert abs(res - exact) <= 1e-15 * exact
        if x0 == 0.87:
            assert exact < math.hypot(*fn(start[0]))


def _tagged(maps):
    """One row map of (x0, x1, tag) that applies maps[k] to (x0, x1) on the
    rows with tag k / 100. Its Jacobian has a zero tag column, so every row
    keeps its tag and its map, and rows of different maps share one batch."""
    def fn(x):
        k = np.rint(100 * x[..., 2])
        out = maps[0](x[..., :2])
        for i, m in enumerate(maps[1:], 1):
            out = np.where((k == i)[..., None], m(x[..., :2]), out)
        return out
    return fn


def _tagged_jac(jacs):
    def jac(x, h):
        k = np.rint(100 * x[..., 2])
        out = jacs[0](x[..., :2], h)
        for i, j in enumerate(jacs[1:], 1):
            out = np.where((k == i)[..., None, None], j(x[..., :2], h), out)
        return np.concatenate([out, np.zeros(out.shape[:-1] + (1,))], axis=-1)
    return jac


def _in_plane(one_dim):
    """A map of x0 alone, with the Jacobian column of x1 zero."""
    return lambda x: one_dim(x[..., :1])


def _in_plane_jac(one_dim):
    return lambda x, h: np.concatenate(
        [one_dim(x[..., :1], h), np.zeros(x.shape[:-1] + (1, 1))], axis=-1)


def _sqrt_jac(x, h):
    return (0.5 / np.sqrt(x[..., :1]))[..., None]


def _exp_jac(x, h):
    return (800 * np.exp(800 * x[..., :1]))[..., None]


# each out_dim -> the maps of one batch, their analytic Jacobians and starts;
# every GN_FIXTURES map of that out_dim with its seeded starts, maps whose
# squared residual overflows (from 0.88 the Jacobian overflows too), and a
# start where the Jacobian is not a number
def _mixed_batches():
    one = [(_in_plane(GN_FIXTURES["fold"][0]), _in_plane_jac(GN_JACOBIANS["fold"]),
            _fixture_starts("fold")),
           (GN_FIXTURES["circle"][0], GN_JACOBIANS["circle"],
            _fixture_starts("circle")),
           (_trough, _trough_jac, _fixture_starts("trough")),
           (_in_plane(GN_FIXTURES["no_zero"][0]),
            _in_plane_jac(GN_JACOBIANS["no_zero"]), _fixture_starts("no_zero")),
           (_in_plane(_overflow_one_row), _in_plane_jac(_exp_jac),
            [[0.88], [0.87]]),
           (_in_plane(lambda x: np.sqrt(x) - 0.5), _in_plane_jac(_sqrt_jac),
            [[-1.0]])]
    two = [(GN_FIXTURES["square"][0], GN_JACOBIANS["square"],
            _fixture_starts("square")),
           (_overflow_two_rows,
            lambda x, h: np.stack([np.concatenate(
                [_exp_jac(x, h)[..., 0, :], np.zeros(x.shape[:-1] + (1,))],
                axis=-1), np.broadcast_to([0.0, 1e300], x.shape)], axis=-2),
            [[0.88, 1.0], [0.87, 1.0]]),
           (lambda x: np.stack([np.sqrt(x[..., 0]) - 0.5, x[..., 1]], axis=-1),
            lambda x, h: np.stack([np.concatenate(
                [_sqrt_jac(x, h)[..., 0, :], np.zeros(x.shape[:-1] + (1,))],
                axis=-1), np.broadcast_to([0.0, 1.0], x.shape)], axis=-2),
            [[-1.0, 0.3]])]
    batches = {}
    for out_dim, parts in ((1, one), (2, two)):
        starts = [np.r_[np.pad(x0, (0, 2 - len(x0))), k / 100]
                  for k, (_, _, xs) in enumerate(parts) for x0 in xs]
        batches[out_dim] = (_tagged([p[0] for p in parts]),
                            _tagged_jac([p[1] for p in parts]), np.array(starts))
    return batches


MIXED_BATCHES = _mixed_batches()


@pytest.mark.parametrize("analytic", [False, True], ids=["differences", "jac"])
@pytest.mark.parametrize("max_iter", [80, 3])
@pytest.mark.parametrize("out_dim", [1, 2])
def test_batched_gauss_newton_matches_scalar_reference(out_dim, max_iter,
                                                       analytic):
    fn, jac, starts = MIXED_BATCHES[out_dim]
    jac = jac if analytic else None
    rows, searches = [0, 0], []

    def counted(x, k):
        rows[k] += _rows(x)
        return fn(x)

    xs, res = _gauss_newton(lambda z: counted(z, 0), starts, out_dim,
                            max_iter=max_iter, jac=jac)
    for x, r, x0 in zip(xs, res, starts, strict=True):
        x_ref, res_ref = scalar_gauss_newton(lambda z: counted(z, 1), x0,
                                             out_dim, max_iter=max_iter, jac=jac,
                                             searches=searches)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(r, res_ref, equal_nan=True)
    # the batch evaluates the rows one start at a time does, except that a
    # line search past t = 1 evaluates all 11 halvings: the initial rows, one
    # row per step, 11 per search past the full step, and the same Jacobians
    past = [k for k in searches if k > 1]
    assert past and len(past) < len(searches)
    assert rows[0] == rows[1] + sum(12 - k for k in past)
    # the batch holds rows that stall, overflow, end on a Jacobian that is not
    # a number and, given the iterations, converge
    nan_rows = np.isnan(res)
    assert nan_rows.any() and np.array_equal(xs[nan_rows], starts[nan_rows])
    assert (np.isfinite(res) & (res > 1e300)).any()
    if max_iter == 80:
        assert (res <= CORRECTOR_ACCEPT_TOL).any()


@pytest.mark.parametrize("out_dim", [1, 2])
def test_gauss_newton_makes_two_calls_per_step(out_dim):
    # the start, then per step one Jacobian and at most two fn calls: the
    # full step and every halving at once
    fn, jac, starts = MIXED_BATCHES[out_dim]
    log = []

    def logged(k, f, *args):
        log.append(k)
        return f(*args)

    _gauss_newton(lambda z: logged("f", fn, z), starts, out_dim,
                  jac=lambda z, h: logged("j", jac, z, h))
    searches = []
    for x0 in starts:
        scalar_gauss_newton(fn, x0, out_dim, jac=jac, searches=searches)
    assert max(searches) > 2  # one halving at a time would call fn more often
    steps = "".join(log).split("j")
    assert steps[0] == "f" and max(map(len, steps[1:])) <= 2
    assert log.count("f") <= 1 + 2 * log.count("j")


def _quarter_step(x):
    # from x = 0 the Newton step is x = 1; t = 1 and 1/2 do not lower |fn| = 1,
    # t = 1/4 does, and t = 1/8 lowers it further
    return 1.0 - x + 3.0 * x ** 2


def _quarter_step_jac(x, h):
    return (6.0 * x - 1.0)[..., None]


@pytest.mark.parametrize("max_iter", [1, 80])
def test_gauss_newton_takes_the_first_halving_that_improves(max_iter):
    rows = [0]

    def counted(x):
        rows[0] += _rows(x)
        return _quarter_step(x)

    (x,), (res,) = _gauss_newton(counted, np.zeros((1, 1)), 1, max_iter=max_iter,
                                 jac=_quarter_step_jac)
    x_ref, res_ref = scalar_gauss_newton(_quarter_step, np.zeros(1), 1,
                                         max_iter=max_iter, jac=_quarter_step_jac)
    assert np.array_equal(x, x_ref) and res == res_ref
    if max_iter == 1:
        assert x[0] == 0.25 and res == 0.9375 > _quarter_step(0.125)
        assert rows[0] == 1 + 1 + 11  # the start, the full step, 11 halvings


def _reference_charts():
    """(name, chart, fn, jac) of row sections on their first chart: the
    GN_FIXTURES maps as sections, with their jac or by differences."""
    def section(model, name, with_jac=True):
        fn, _, _, _ = GN_FIXTURES[name]
        jac = GN_JACOBIANS[name] if with_jac else None
        return model, BundleSection(
            model, lambda cid, x: fn(x),
            jac=jac and (lambda cid, x: jac(x, None)), name=name)

    out = []
    for name, (model, f) in [
            ("fold", section(finite_model(), "fold")),
            ("circle", section(finite_model(2, 1, 1.5), "circle")),
            ("square", section(finite_model(2, 2, 2.0), "square", False)),
            ("trough", _porkbarrel_bundle()),
            ("no_zero", section(finite_model(radius=1.0), "no_zero", False))]:
        cid = next(iter(model.charts))
        out.append((name, model.charts[cid],
                    lambda z, f=f, cid=cid: f(cid, z),
                    lambda z, h, f=f, cid=cid: f.derivative_matrix(cid, z, h)))
    return out


@pytest.mark.parametrize("name,chart,fn,jac", _reference_charts(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_seeded_zeros_match_scalar_reference(name, chart, fn, jac):
    rng, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
    found = perturbation._seeded_zeros(fn, jac, chart, 24, rng)
    found_ref = scalar_seeded_zeros(fn, jac, chart, 24, rng_ref, 1e-11)
    assert len(found) == len(found_ref)
    for x, x_ref in zip(found, found_ref):
        assert np.array_equal(x, x_ref)
    assert rng.uniform() == rng_ref.uniform()
    if name != "no_zero":
        assert found


def test_solution_set_work_guard():
    # index-one porkbarrel chart at the zero multisection: all 33 curve
    # samples of the degenerate segment fail in Picard. The budget, in
    # evaluated rows, sits above 3,988 (failed solves stop at their first
    # non-finite residual, one evaluation per corrector point) and below
    # 14,121 (failed solves run to max_iter, accepted corrector points
    # evaluated twice). Stepping with the section's jac took 1,252 rows, one
    # call each, when every start was solved alone; one array solve per chart
    # and branch evaluates the same 1,252 rows in 547 calls.
    model, section = _porkbarrel_bundle()
    fn = section.fn
    rows = [0]

    def counted(cid, x):
        rows[0] += _rows(x)
        return fn(cid, x)

    section.fn = counted
    sols = solution_set(section, Multisection.zero(model), seed=0)
    assert [(b.chart_id, len(b.points)) for b in sols] == [
        ("spanned", 1), ("collapsed", 33)]
    assert rows[0] <= 6000


def test_pointwise_section_is_refused_on_rows():
    # the fold as written for one point: on a batch, x[0] is the first row,
    # so its one value would broadcast against the zero section's rows
    model = finite_model()
    f = BundleSection(model, lambda cid, x: np.array([x[0] ** 2]),
                      jac=lambda cid, x: np.array([[2 * x[0]]]), name="fold")
    with pytest.raises(ValueError, match=re.escape(
            "section 'fold' returned shape (1, 1) for rows x of shape (40, 1); "
            "rows need shape (40, 1)")):
        solution_set(f, Multisection.zero(model), seed=0)


def _counting(*sections):
    """Wrap the sections' fn and jac; returns the list their calls append to."""
    calls = []
    for section in sections:
        for attr in ("fn", "jac"):
            inner = getattr(section, attr)
            if inner is not None:
                def counted(*args, inner=inner, attr=attr):
                    calls.append(attr)
                    return inner(*args)

                setattr(section, attr, counted)
    return calls


def line_section(model):
    return BundleSection(model, lambda cid, x: x[..., :1] + x[..., 1:],
                         jac=lambda cid, x: rows_of([[1.0, 1.0]], x),
                         name="line")


MEMO_ARGS = dict(seed=3)


def test_solution_set_repeat_call_is_remembered():
    model = finite_model(base_dim=2, fiber_dim=1)
    f = line_section(model)
    lam = Multisection.zero(model)
    first = solution_set(f, lam, **MEMO_ARGS)
    assert first and first[0].dimension == 1
    calls = _counting(f, lam.branches[0][0])
    assert solution_set(f, lam, **MEMO_ARGS) is first
    assert calls == []


@pytest.mark.parametrize("change", [{"seed": 4}, "f"], ids=str)
def test_solution_set_recomputes_when_an_argument_changes(change):
    model = finite_model(base_dim=2, fiber_dim=1)
    f = line_section(model)
    lam = Multisection.zero(model)
    first = solution_set(f, lam, **MEMO_ARGS)
    if change == "f":
        g, args = BundleSection(model, f.fn, jac=f.jac), MEMO_ARGS
    else:
        g, args = f, {**MEMO_ARGS, **change}
    calls = _counting(g)
    again = solution_set(g, lam, **args)
    assert again is not first
    assert calls
    if change == "f":  # same map, so the same solutions
        for a, b in zip(again, first, strict=True):
            assert np.array_equal(a.points, b.points)


def test_fresh_multisection_from_the_same_sections_recomputes():
    model = finite_model(base_dim=2, fiber_dim=1)
    f = line_section(model)
    lam = Multisection.zero(model)
    first = solution_set(f, lam, **MEMO_ARGS)
    calls = _counting(f)
    again = solution_set(f, Multisection(model, lam.branches), **MEMO_ARGS)
    assert again is not first
    assert calls
    for a, b in zip(again, first, strict=True):
        assert np.array_equal(a.points, b.points)


def test_solution_set_after_perturbation_search_evaluates_nothing():
    model = finite_model()
    f = fold_section(model)
    cp = control_pair_build(f, scaled_aux(model), margin=0.5, seed=13)
    tau = perturb_to_transversal(f, cp, 0.1, seed=13)
    assert tau.name == "transversal-0"  # found at attempt 0, solved at seed 14
    calls = _counting(f, tau.branches[0][0])
    sols = solution_set(f, tau, seed=14)
    assert sols
    assert calls == []


def _record_germ_solves(monkeypatch):
    calls = []

    def forbidden(*args, **kwargs):
        calls.append(args)
        raise AssertionError("germ normal form used by the corrector")

    monkeypatch.setattr(perturbation, "solve_germ", forbidden)
    monkeypatch.setattr(perturbation, "germ_from_map", forbidden)
    return calls


def test_control_pair_build_makes_no_germ_solve(monkeypatch):
    calls = _record_germ_solves(monkeypatch)
    model = finite_model()
    cp = control_pair_build(fold_section(model), scaled_aux(model), margin=0.5,
                            seed=1)
    assert cp.region.balls.get("main")
    assert calls == []


def test_index_zero_solution_set_makes_no_germ_solve(monkeypatch):
    calls = _record_germ_solves(monkeypatch)
    model = finite_model()
    f = BundleSection(model, lambda cid, x: x ** 2 - 0.25)
    sols = solution_set(f, Multisection.zero(model), seed=5)
    pts = sorted(p[0] for b in sols for p in b.points)
    assert pts == pytest.approx([-0.5, 0.5], abs=1e-9)
    assert calls == []


# ------------------------------------------------------- linearization sets

def test_linearization_single_zero_branch():
    model = finite_model()
    f = BundleSection(model, lambda cid, x: x ** 2 - 0.25,
                      jac=lambda cid, x: 2 * x[..., None])
    lam = Multisection.zero(model)
    lset = linearization_set(f, lam, "main", np.array([0.5]))
    assert len(lset.operators) == 1
    assert lset.operators[0][2][0, 0] == pytest.approx(1.0, abs=1e-6)


def test_linearization_two_coincident_branches():
    model = finite_model()
    f = fold_section(model)
    lam = Multisection(model, [(const_branch(model, [0.25]), Fraction(1, 3)),
                               (const_branch(model, [0.25]), Fraction(2, 3))])
    lset = linearization_set(f, lam, "main", np.array([0.5]))
    assert len(lset.operators) == 2
    m0, m1 = lset.operators[0][2], lset.operators[1][2]
    assert np.allclose(m0, m1, atol=1e-10)


def test_linearization_independent_of_section_structure():
    model = finite_model()
    f = fold_section(model)
    lam = Multisection(model, [(const_branch(model, [0.25]), Fraction(1))])
    alt = Multisection(model, [(const_branch(model, [0.25]), Fraction(1))])
    lset = linearization_set(f, lam, "main", np.array([0.5]), alternative=alt)
    assert len(lset.operators) == 1


def test_linearization_not_a_solution():
    model = finite_model()
    f = fold_section(model)
    lam = Multisection.zero(model)
    with pytest.raises(NotASolutionError):
        linearization_set(f, lam, "main", np.array([0.5]))


def test_linearization_evaluates_each_branch_section_once():
    model = finite_model()
    f = fold_section(model)
    hit, miss = const_branch(model, [0.25]), const_branch(model, [0.3])
    lam = Multisection(model, [(hit, Fraction(1, 2)), (miss, Fraction(1, 2))])
    hit_calls, miss_calls = _counting(hit), _counting(miss)
    linearization_set(f, lam, "main", np.array([0.5]))
    assert hit_calls == ["fn", "jac"]
    assert miss_calls == ["fn"]


def test_linearization_differentiates_f_once_for_all_branches():
    model = finite_model()
    f = fold_section(model)
    lam = Multisection(model, [(const_branch(model, [0.25]), Fraction(1, 3)),
                               (const_branch(model, [0.25]), Fraction(2, 3))])
    f_calls = _counting(f)
    lset = linearization_set(f, lam, "main", np.array([0.5]))
    assert len(lset.operators) == 2
    assert f_calls.count("jac") == 1


# ---------------------------------------------------------- transversal_check

def test_transversal_surjective_linear():
    model = finite_model(base_dim=2, fiber_dim=1)
    f = BundleSection(model, lambda cid, x: x[..., :1] + 2 * x[..., 1:],
                      jac=lambda cid, x: rows_of([[1.0, 2.0]], x))
    lam = Multisection.zero(model)
    sols = solution_set(f, lam, seed=8)
    rep = transversal_check(f, lam, sols)
    assert rep.passed


def test_transversal_fold_fails_at_origin():
    model = finite_model()
    f = fold_section(model)
    lam = Multisection.zero(model)
    sols = solution_set(f, lam, seed=9)
    assert sols, "the degenerate root must be located"
    # degenerate roots resolve to sqrt(tol) accuracy, so the search floor
    # (rather than the reporting floor) is what flags them
    rep = transversal_check(f, lam, sols, floor=1e-4)
    assert not rep.passed
    assert rep.failures[0][3].startswith("min singular")


def test_transversal_boundary_good_position():
    # kernel along the diagonal is in good position; along a face it is not
    model_ok = finite_model(base_dim=2, fiber_dim=1, quadrant=(0, 1))
    f_ok = BundleSection(model_ok, lambda cid, x: x[..., :1] - x[..., 1:],
                         jac=lambda cid, x: rows_of([[1.0, -1.0]], x))
    lam = Multisection.zero(model_ok)
    sols = [b for b in solution_set(f_ok, lam, seed=10)]
    corner = [b for b in sols if any(np.linalg.norm(p) < 1e-6 for p in b.points)]
    rep = transversal_check(f_ok, lam, sols, boundary=True)
    assert rep.passed

    model_bad = finite_model(base_dim=2, fiber_dim=1, quadrant=(0, 1))
    f_bad = BundleSection(model_bad, lambda cid, x: x[..., 1:],
                          jac=lambda cid, x: rows_of([[0.0, 1.0]], x))
    lam_bad = Multisection.zero(model_bad)
    sols_bad = solution_set(f_bad, lam_bad, seed=11)
    rep_bad = transversal_check(f_bad, lam_bad, sols_bad, boundary=True)
    assert not rep_bad.passed
    assert any(x[3] == "good-position failure" for x in rep_bad.failures)


def ambiguous_section(model, diagonal=(1.0, 1e-9)):
    """f(x) = diag(1, 1e-9) x by default: its linearization's second relative
    singular value lies inside the guard band, so its rank is undecidable."""
    d = np.diag(diagonal)
    return BundleSection(model, lambda cid, x: x @ d.T,
                         jac=lambda cid, x: rows_of(d, x), name="ambiguous")


# diag(1e9, 1) is surjective with smallest singular value 1, far above the
# floor, but its relative spectrum (1, 1e-9) lies in the guard band too: the
# one rank rule reads it as undecidable, not as transversal
@pytest.mark.parametrize("diagonal", [(1.0, 1e-9), (1e9, 1.0)])
def test_transversal_ambiguous_rank_is_a_failure(diagonal):
    model = finite_model(base_dim=2, fiber_dim=2)
    f = ambiguous_section(model, diagonal)
    lam = Multisection.zero(model)
    sols = solution_set(f, lam, seed=8)
    assert sols
    rep = transversal_check(f, lam, sols)
    assert not rep.passed
    assert {x[3] for x in rep.failures} == {"ambiguous rank"}


# ------------------------------------------------------ perturb_to_transversal

def test_perturb_already_transversal_returns_zero():
    model = finite_model()
    f = BundleSection(model, lambda cid, x: x - 0.2,
                      jac=lambda cid, x: rows_of([[1.0]], x))
    aux = scaled_aux(model)
    cp = control_pair_build(f, aux, margin=0.5, seed=12)
    tau = perturb_to_transversal(f, cp, 0.1, seed=12)
    assert tau.is_zero()


def test_perturb_fold_finds_transversal_shift():
    model = finite_model()
    f = fold_section(model)
    aux = scaled_aux(model)
    cp = control_pair_build(f, aux, margin=0.5, seed=13)
    tau = perturb_to_transversal(f, cp, 0.1, seed=13)
    assert not tau.is_zero()
    sols = solution_set(f, tau, seed=14)
    rep = transversal_check(f, tau, sols)
    assert rep.passed
    for b in sols:
        for p in b.points:
            assert tau.norm(aux, "main", p) < 0.1


def test_perturb_ambiguous_cokernel_aims_along_the_whole_fiber():
    # every bump is too small to move the undecidable singular value, so the
    # search runs out of attempts rather than failing on the rank
    model = finite_model(base_dim=2, fiber_dim=2)
    f = ambiguous_section(model)
    aux = scaled_aux(model, scale=1e-12)
    cp = control_pair_build(f, aux, margin=0.5, seed=0)
    assert cp.certified
    with pytest.raises(ExhaustedAttemptsError):
        perturb_to_transversal(f, cp, 0.1, seed=0)


# --------------------------------------------------------- cobordism_compare

def test_cobordism_identical_perturbations():
    model = finite_model()
    f = fold_section(model)
    aux = scaled_aux(model)
    cp = control_pair_build(f, aux, margin=0.5, seed=15)
    tau = perturb_to_transversal(f, cp, 0.1, seed=15)
    rep = cobordism_compare(f, tau, tau, cp)
    assert rep.passed
    assert rep.count0 == rep.count1


def test_cobordism_fold_two_seeds_equal_counts():
    model = finite_model()
    f = fold_section(model)
    aux = scaled_aux(model)
    cp = control_pair_build(f, aux, margin=0.5, seed=16)
    tau0 = perturb_to_transversal(f, cp, 0.1, seed=21)
    tau1 = perturb_to_transversal(f, cp, 0.1, seed=22)
    rep = cobordism_compare(f, tau0, tau1, cp)
    assert rep.passed
    # oracle: explicit root counting; the fold's two roots carry opposite signs
    assert rep.count0 == Fraction(0)
    assert rep.count1 == Fraction(0)


def test_cobordism_support_violation_refused():
    model = finite_model()
    f = fold_section(model)
    aux = scaled_aux(model)
    cp = control_pair_build(f, aux, margin=0.5, seed=17)
    bad = Multisection(model, [(const_branch(model, [0.002]), Fraction(1))])
    with pytest.raises(ValueError, match="support"):
        cobordism_compare(f, bad, bad, cp)


def test_cobordism_norm_budget_refused():
    # the fold meets the constant 0.05 at x = +-0.22, where the branch's
    # auxiliary norm is 0.05 / 0.04 >= 1
    model = finite_model()
    f = fold_section(model)
    cp = control_pair_build(f, scaled_aux(model), margin=0.5, seed=17)
    big = Multisection(model, [(const_branch(model, [0.05]), Fraction(1))])
    with pytest.raises(ValueError, match="norm violates the budget"):
        cobordism_compare(f, big, big, cp)


def test_cobordism_degenerate_endpoint_refused():
    # the zero multisection solves the zero section at every point, where
    # its linearization is zero
    model = finite_model()
    cp = control_pair_build(fold_section(model), scaled_aux(model), margin=0.5,
                            seed=17)
    zero = Multisection.zero(model)
    with pytest.raises(ValueError, match="not transversal"):
        cobordism_compare(zero_section(model), zero, zero, cp)


# ----------------------------------------------------- weighted count details

def test_weighted_count_signs():
    model = finite_model()
    f = BundleSection(model, lambda cid, x: x ** 2 - 0.25,
                      jac=lambda cid, x: 2 * x[..., None])
    lam = Multisection.zero(model)
    sols = solution_set(f, lam, seed=18)
    count = weighted_count(f, sols, lam)
    assert count == Fraction(0)  # +1 at x=1/2, -1 at x=-1/2

    g = BundleSection(model, lambda cid, x: x - 0.3,
                      jac=lambda cid, x: rows_of([[1.0]], x))
    sols_g = solution_set(g, lam, seed=19)
    assert weighted_count(g, sols_g, lam) == Fraction(1)


# ------------------------------------------------------------ raising guards

@pytest.mark.parametrize("error, message, call", [
    pytest.param(UnchartedPointError, "no chart named 'elsewhere'",
                 lambda model: model.chart("elsewhere"), id="unknown-chart"),
    pytest.param(ValueError, "unknown section tag 'sc_minus'",
                 lambda model: BundleSection(model, None, tag="sc_minus"),
                 id="unknown-tag"),
    pytest.param(ValueError, "weights must be positive rationals",
                 lambda model: Multisection(model, [(zero_section(model), 0)]),
                 id="zero-weight"),
    pytest.param(ValueError, "multisection branches must be one-level-up sections",
                 lambda model: Multisection(model, [(fold_section(model), 1)]),
                 id="plain-branch"),
    pytest.param(ValueError, "multisections live on different bundle models",
                 lambda model: multisection_sum(Multisection.zero(model),
                                                Multisection.zero(finite_model())),
                 id="sum-across-models"),
    pytest.param(ValueError, "the norm budget must lie in (0, 1)",
                 lambda model: perturb_to_transversal(fold_section(model), None, 1.0),
                 id="budget-outside"),
    pytest.param(ValueError, "control pair is not certified",
                 lambda model: perturb_to_transversal(
                     fold_section(model),
                     ControlPair(ControlRegion({}), scaled_aux(model),
                                 {"certified": False}), 0.1),
                 id="uncertified-pair"),
    pytest.param(ValueError, "weighted counts need index-zero branches",
                 lambda model: weighted_count(
                     fold_section(model),
                     [SolutionBranch("main", 0, Fraction(1), [np.zeros(1)], 1)]),
                 id="positive-index-count"),
    pytest.param(UnchartedPointError, "base point outside the chart domain",
                 lambda model: linearization_set(fold_section(model), Multisection.zero(model),
                                                 "main", np.array([5.0])),
                 id="linearization-off-chart"),
])
def test_guard_raises(error, message, call):
    with pytest.raises(error, match=re.escape(message)):
        call(finite_model())


# ------------------------------------------- derivatives of built sections

def assert_jac_matches_differences(section, cid, points):
    assert section.jac is not None
    out_dim = section.model.chart(cid).fiber_dim()
    for x in points:
        analytic = section.derivative_matrix(cid, x)
        fd = _fd.jacobian(lambda z: section(cid, z), x, out_dim,
                          _fd.JACOBIAN_STEP)
        assert np.isfinite(analytic).all()
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-12)


def seeded_points(center, radius, count=6, seed=0):
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    return [center + radius * rng.uniform(-1, 1, center.size)
            for _ in range(count)]


def test_bump_gradient_matches_differences_and_vanishes_off_support():
    center, radius = np.array([0.3, -0.2]), 0.7
    chi, grad = perturbation._bump_profile(center, radius)
    u = np.array([0.6, 0.8])
    points = {"center": center, "half": center + 0.5 * radius * u,
              "edge": center + (1 - 1e-15) * radius * u,
              "outside": center + 1.5 * radius * u}
    for x in [*points.values(), *seeded_points(center, 0.6 * radius)]:
        g = grad(x)
        assert np.isfinite(g).all()
        fd = _fd.jacobian(chi, x, 1, _fd.JACOBIAN_STEP)[0]
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-12)
        if chi(x) == 0.0:
            assert np.array_equal(g, np.zeros(2))
    assert chi(points["half"]) > 0.0
    assert chi(points["edge"]) == chi(points["outside"]) == 0.0
    assert np.array_equal(grad(center), np.zeros(2))


@pytest.mark.parametrize("bundle", ["fold", "porkbarrel"])
def test_cokernel_shift_derivative(bundle):
    if bundle == "fold":
        model = finite_model()
        f, aux, cid = fold_section(model), scaled_aux(model), "main"
    else:
        model, f = _porkbarrel_bundle()
        aux, cid = scaled_aux(model, 0.02), "spanned"
    cp = control_pair_build(f, aux, margin=0.5, seed=0)
    tau = perturb_to_transversal(f, cp, 0.1, seed=0)
    shift = tau.branches[0][0]
    assert shift.name.startswith("cokernel-shift")
    points = [p for center, r in cp.region.balls[cid]
              for p in seeded_points(center, r)]
    assert any(np.abs(shift.derivative_matrix(cid, p)).max() > 0 for p in points)
    assert_jac_matches_differences(shift, cid, points)
    if bundle == "porkbarrel":  # no offset on the empty-fiber chart
        assert shift.derivative_matrix("collapsed", np.array([-0.6])).shape == (0, 1)


def test_interpolated_family_derivative(monkeypatch):
    model = finite_model()
    f = fold_section(model)
    cp = control_pair_build(f, scaled_aux(model), margin=0.5, seed=16)
    tau0 = perturb_to_transversal(f, cp, 0.1, seed=21)
    tau1 = perturb_to_transversal(f, cp, 0.1, seed=22)
    family = []
    solve = perturbation.solution_set

    def recording(f, l, **kwargs):
        if l.name.startswith("family-"):
            family.append(l)
        return solve(f, l, **kwargs)

    monkeypatch.setattr(perturbation, "solution_set", recording)
    cobordism_compare(f, tau0, tau1, cp)
    assert len(family) == 5
    for tau_t in family:
        for section, _ in tau_t.branches:
            assert_jac_matches_differences(section, "main",
                                           seeded_points([0.0], 1.2))


def test_convolution_sum_derivative():
    model = finite_model()
    f = fold_section(model)
    cp = control_pair_build(f, scaled_aux(model), margin=0.5, seed=13)
    tau = perturb_to_transversal(f, cp, 0.1, seed=13)
    shifts = Multisection(model, [(const_branch(model, [0.1]), Fraction(1, 2)),
                                  (const_branch(model, [-0.2]), Fraction(1, 2))])
    total = multisection_sum(tau, shifts)
    assert len(total.branches) == 2
    for section, _ in total.branches:
        assert_jac_matches_differences(section, "main", seeded_points([0.0], 1.2))
    opaque = Multisection(model, [(BundleSection(
        model, lambda cid, x: np.array([0.1]), tag="sc_plus"), Fraction(1))])
    assert multisection_sum(tau, opaque).branches[0][0].jac is None


def test_zero_and_constant_section_derivatives():
    model = finite_model(base_dim=2, fiber_dim=3)
    for section in (zero_section(model),
                    perturbation.constant_branch_section(model, [0.1, -2.0, 3.0])):
        assert_jac_matches_differences(section, "main",
                                       seeded_points([0.0, 0.0], 1.2))
        assert section.derivative_matrix("main", np.ones(2)).shape == (3, 2)


def test_derivative_matrix_is_one_jac_call():
    model = finite_model(base_dim=2, fiber_dim=3)
    matrix = np.arange(6.0).reshape(3, 2)
    calls = []

    def fn(cid, x):
        calls.append("fn")
        return np.zeros(3)

    def jac(cid, x):
        calls.append("jac")
        return matrix

    section = BundleSection(model, fn, jac=jac)
    assert section.derivative_matrix("main", np.array([0.3, -0.4])) is matrix
    assert calls == ["jac"]


def test_failed_curve_samples_are_counted():
    model, section = _porkbarrel_bundle()
    sols = solution_set(section, Multisection.zero(model), seed=0)
    spanned = [b for b in sols if b.chart_id == "spanned"]
    assert [(b.dimension, b.failed_samples) for b in spanned] == [(1, 33)]
    assert spanned[0].parametrize is None


def porkbarrel_curves():
    """The curve branches of the porkbarrel scenario's solve at seed 0."""
    model, section = _porkbarrel_bundle()
    aux = AuxiliaryNorm(model, norm_fn=lambda cid, v: float(np.linalg.norm(v)) / 0.02)
    cp = control_pair_build(section, aux, margin=0.5, seed=0)
    tau = perturb_to_transversal(section, cp, 0.1, seed=0)
    return [b for b in solution_set(section, tau, seed=1) if b.parametrize]


def test_branch_parametrize_evaluates_its_own_chart():
    # the porkbarrel scenario's solve at seed 0: its spanned branch is a
    # curve, and the model's last chart, "collapsed", has an empty fiber, so
    # a parametrize that read the loop's last chart id after solution_set
    # returned would evaluate f - s there
    curves = porkbarrel_curves()
    assert [b.chart_id for b in curves] == ["spanned"]
    for b in curves:
        first = b.parametrize(np.full(b.dimension, b.kernel_range[0]))
        assert np.array_equal(first, b.points[0])


def test_branch_parametrize_rows_match_one_row_calls():
    b, = porkbarrel_curves()
    kappa = np.linspace(*b.kernel_range, 7)[:, None]
    rows = b.parametrize(kappa)
    assert rows.shape == (7, 2)
    assert np.array_equal(rows, np.stack([b.parametrize(k) for k in kappa]))


def test_branch_parametrize_raises_the_first_failing_row():
    # off the kernel range the Picard iterates blow up, after a number of
    # sweeps that depends on kappa, so each failing row has its own message
    b, = porkbarrel_curves()
    kappa = np.array([[b.kernel_range[0]], [0.1], [-1.0], [b.kernel_range[1]]])
    messages = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in kappa[1:3]:
            with pytest.raises(NonConvergenceError) as one:
                b.parametrize(k)
            messages.append(str(one.value))
        with pytest.raises(NonConvergenceError) as rows:
            b.parametrize(kappa)
    assert messages[0] != messages[1]
    assert str(rows.value) == messages[0]


def _library_sections():
    """(name, section, chart_id) of every section the library builds, and of
    the fold and trough sections of the scenarios."""
    model = finite_model(base_dim=2, fiber_dim=3)
    zero = zero_section(model)
    const = perturbation.constant_branch_section(model, [0.1, -2.0, 3.0])
    opaque = BundleSection(model, lambda cid, x: np.sin(x[..., :1]) * [1.0, 2.0, 3.0],
                           tag="sc_plus")
    out = [("zero", zero, "main"), ("constant", const, "main"),
           ("combination", perturbation._combination(model, zero, const, 0.3,
                                                     0.7, "mix"), "main"),
           ("combination without jac", perturbation._combination(
               model, const, opaque, 0.5, 0.5, "mix"), "main")]
    for name, (model, f), aux_scale, cid in [
            ("fold", scenarios._fold_model()[:2], 0.04, "main"),
            ("porkbarrel", _porkbarrel_bundle(), 0.02, "spanned")]:
        cp = control_pair_build(f, scaled_aux(model, aux_scale), margin=0.5,
                                seed=0)
        shift = perturb_to_transversal(f, cp, 0.1, seed=0).branches[0][0]
        out += [(f"{name} section", f, cid), (f"{name} cokernel shift", shift, cid)]
    out.append(("porkbarrel collapsed", _porkbarrel_bundle()[1], "collapsed"))
    return out


@pytest.mark.parametrize("name,section,cid", _library_sections(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_sections_evaluate_rows_as_points(name, section, cid):
    chart = section.model.chart(cid)
    rng = np.random.default_rng(21)
    xs = chart.domain.center + _chart_radius(chart) * rng.uniform(
        -1, 1, (5, chart.domain.center.size))
    steps = 1e-7 * (1.0 + np.linalg.norm(xs, axis=1))
    values = section(cid, xs)
    jacs = section.derivative_matrix(cid, xs, steps)
    assert values.shape == (5, chart.fiber_dim())
    assert jacs.shape == (5, chart.fiber_dim(), xs.shape[1])
    for x, h, value, jac in zip(xs, steps, values, jacs):
        assert np.array_equal(value, section(cid, x))
        assert np.array_equal(jac, section.derivative_matrix(cid, x, h))
    if name.endswith("cokernel shift"):  # the bump is on at some rows
        assert np.abs(values).max() > 0.0


def seeded_zeros_dedup(zs, min_distance):
    """The deduplication _seeded_zeros used to write out: start order."""
    near = _fd.norms(zs[:, None] - zs[None]) < min_distance
    keep = []
    for i in range(len(zs)):
        if not near[i, keep].any():
            keep.append(i)
    return list(zs[keep])


def cluster_representatives(points, min_distance):
    """The curve-patch representatives solution_set used to pick: sorted."""
    reps = []
    for p in sorted(points, key=tuple):
        if all(np.linalg.norm(p - r) >= min_distance for r in reps):
            reps.append(p)
    return reps


def test_distinct_keeps_the_rows_of_both_former_loops():
    rng = np.random.default_rng(12)
    centers = rng.uniform(-1, 1, (6, 2))
    points = np.vstack([centers[rng.integers(0, 6, 40)] + 1e-6 * rng.standard_normal((40, 2)),
                        # 5.0 and 1.25 apart exactly
                        [[0.0, 0.0], [3.0, 4.0], [0.0, 1.25], [0.75, 1.0]]])
    sorted_points = np.array(sorted(points, key=tuple))
    for min_distance in (1e-5, 2e-6, 0.5, 1.25, 5.0):
        assert np.array_equal(perturbation._distinct(points, min_distance),
                              seeded_zeros_dedup(points, min_distance))
        assert np.array_equal(perturbation._distinct(sorted_points, min_distance),
                              cluster_representatives(points, min_distance))
    exact = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert len(perturbation._distinct(exact, 5.0)) == 2
    assert len(perturbation._distinct(exact, np.nextafter(5.0, 6.0))) == 1
    assert perturbation._distinct(np.zeros((0, 2)), 1e-5) == []


def _linear_section_sign(matrix):
    fiber_dim, d = matrix.shape
    model = finite_model(d, fiber_dim)
    f = BundleSection(model, lambda cid, x: x @ matrix.T,
                      jac=lambda cid, x: rows_of(matrix, x), name="linear")
    branch = SolutionBranch("main", -1, Fraction(1), [np.zeros(d)], 0)
    return orientation_sign(f, None, branch, np.zeros(d))


def test_orientation_sign_survives_determinant_underflow():
    small = 0.01 * np.eye(200)
    assert np.linalg.det(small) == 0.0  # 1e-400 underflows
    assert _linear_section_sign(small) == 1
    flipped = small.copy()
    flipped[0, 0] = -0.01
    assert _linear_section_sign(flipped) == -1
    assert _linear_section_sign(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0
    assert _linear_section_sign(np.ones((2, 3))) == 0


def test_porkbarrel_trough_one_row_equals_its_row_of_a_batch():
    # on one row x[..., 0] is a 0-d array and ramp's np.maximum returns a
    # float64 scalar, whose ** 2 is libm's pow: one ulp below the batch's
    # square at this point of a porkbarrel run at seed 4
    _, section = _porkbarrel_bundle()
    x = np.array([0.5233997828759264, 0.01698366503687249])
    rows = np.stack([x, [0.8, 0.3], [1.2, -0.05]])
    batch = section("spanned", rows)
    for row, value in zip(rows, batch):
        assert np.array_equal(section("spanned", row), value)
    assert section("spanned", x)[0].hex() == "0x1.051987f5260efp-10"


# ------------------------------------------------------------------ guards

def _alternative_structure_mismatch():
    # both branches pass through f(0.5) = 0.25, with slopes 0 and 0.5
    model = finite_model()
    linear = BundleSection(model, lambda cid, x: 0.5 * x, tag="sc_plus",
                           jac=lambda cid, x: rows_of([[0.5]], x), name="linear")
    linearization_set(fold_section(model),
                      Multisection(model, [(const_branch(model, [0.25]), Fraction(1))]),
                      "main", np.array([0.5]),
                      alternative=Multisection(model, [(linear, Fraction(1))]))


@pytest.mark.parametrize("build,message", [
    pytest.param(_alternative_structure_mismatch,
                 "linearization set depends on the local section structure",
                 id="alternative structure"),
])
def test_perturbation_guards_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _per_sample_control_report(f, aux_norm, margin, seed):
    """certified, escaped_zeros and stray_sublevel_points of control_pair_build,
    drawn by the reference loop: one uniform draw and one section call per
    sample."""
    rng = np.random.default_rng(seed)
    balls, escaped = {}, []
    for cid, chart in f.model.charts.items():
        if chart.fiber_dim() == 0:
            found = [chart.domain.center.copy()]
        else:
            found = perturbation._seeded_zeros(
                lambda z: f(cid, z), lambda z, h: f.derivative_matrix(cid, z, h),
                chart, 24, rng)
        for x_sol in found:
            if np.linalg.norm(x_sol - chart.domain.center) > 0.9 * _chart_radius(chart):
                escaped.append((cid, x_sol))
            balls.setdefault(cid, []).append((x_sol, margin))
    region = ControlRegion(balls)
    stray = []
    for cid, blist in balls.items():
        if f.model.charts[cid].fiber_dim() == 0:
            continue
        for center, radius in blist:
            for _ in range(200 // len(blist)):
                x = center + radius * rng.uniform(-1, 1, center.size)
                if aux_norm(cid, f(cid, x)) <= 1.0:
                    if region.interior_margin(cid, x) <= 1e-9:
                        stray.append((cid, x))
    return not escaped and not stray, escaped, stray


def _same_points(got, want):
    assert [cid for cid, _ in got] == [cid for cid, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("margin,strays", [(0.1, 9), (0.5, 0)])
def test_control_pair_samples_each_ball_in_one_section_call(monkeypatch, margin, strays):
    model, section = _porkbarrel_bundle()
    aux = AuxiliaryNorm(model, norm_fn=lambda cid, v: float(np.linalg.norm(v)) / 0.02)
    certified, escaped, stray = _per_sample_control_report(section, aux, margin, 0)
    assert len(stray) == strays

    calls, solving = [], []
    seeded_zeros, fn = perturbation._seeded_zeros, section.fn

    def corrector(*args):
        solving.append(True)
        try:
            return seeded_zeros(*args)
        finally:
            solving.pop()

    def counted(cid, x):
        if not solving:
            calls.append(cid)
        return fn(cid, x)

    monkeypatch.setattr(perturbation, "_seeded_zeros", corrector)
    monkeypatch.setattr(section, "fn", counted)
    cp = control_pair_build(section, aux, margin=margin, seed=0)
    assert cp.report["certified"] == certified
    _same_points(cp.report["escaped_zeros"], escaped)
    _same_points(cp.report["stray_sublevel_points"], stray)
    assert calls == ["spanned"] * len(cp.region.balls["spanned"])
