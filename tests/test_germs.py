import numpy as np
import pytest

from scfold.errors import NonConvergenceError
from scfold.germs import (
    BasicGerm,
    FillingData,
    SolveInfo,
    contraction_verify,
    filling_verify,
    germ_from_map,
    local_solution_manifold,
    solution_sheet,
    solve_germ,
)
from scfold.retracts import bump_splicing, splicing_to_retraction
from scfold.sc_core import FiniteDimScale, WeightedGridScale


def affine_germ(slope=0.5, base_dim=1, fiber_dim=1, levels=3):
    fiber = FiniteDimScale(fiber_dim, max_level=levels)
    return BasicGerm(
        base_dim=base_dim, quadrant_count=0, residue_dim=0, fiber=fiber,
        b_fn=lambda a, w, m: slope * w + np.full(fiber_dim, a.sum()),
        eps=(slope + 1e-9,), radii=(10.0,),
    )


# --------------------------------------------------------- contraction_verify

def test_contraction_zero_map():
    fiber = FiniteDimScale(2)
    g = BasicGerm(1, 0, 0, fiber, lambda a, w, m: np.zeros(2), eps=(0.1,))
    assert contraction_verify(g, 0) == 0.0


def test_contraction_affine_exact():
    # closed-form oracle: the ratio of an affine map is its slope everywhere
    g = affine_germ(slope=0.5)
    measured = contraction_verify(g, 0, sample_count=300, seed=1)
    assert measured == pytest.approx(0.5, abs=1e-12)


def test_contraction_sine_bounded():
    fiber = FiniteDimScale(1)
    g = BasicGerm(1, 0, 0, fiber, lambda a, w, m: 0.3 * np.sin(w),
                  eps=(0.3,), radii=(2.0,))
    measured = contraction_verify(g, 0, sample_count=400, seed=2)
    # Lipschitz oracle: |cos| <= 1 bounds the ratio by 0.3
    assert measured <= 0.3 + 1e-12
    assert measured > 0.2


# ----------------------------------------------------------------- solve_germ

def test_solve_affine_closed_form():
    g = affine_germ(slope=0.5)
    w, info = solve_germ(g, np.array([0.3]), 0, tol=1e-13)
    assert w[0] == pytest.approx(0.6, abs=1e-12)  # delta(a) = 2a
    assert info.rates and max(info.rates) == pytest.approx(0.5, abs=1e-6)


def test_solve_zero_map():
    fiber = FiniteDimScale(3)
    g = BasicGerm(1, 0, 0, fiber, lambda a, w, m: np.zeros(3), eps=(0.1,))
    w, info = solve_germ(g, np.array([0.7]), 0)
    assert np.all(w == 0.0)
    assert info.iterations <= 1


def test_solve_linear_operator_against_direct_solve():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((4, 4))
    q *= 0.4 / np.linalg.svd(q, compute_uv=False)[0]
    fiber = FiniteDimScale(4)
    gvec = rng.standard_normal(4)

    g = BasicGerm(1, 0, 0, fiber,
                  lambda a, w, m: q @ w + gvec * a[0],
                  eps=(0.4 + 1e-9,), radii=(5.0,))
    a = np.array([0.8])
    w, _ = solve_germ(g, a, 0, tol=1e-14)
    oracle = np.linalg.solve(np.eye(4) - q, gvec * a[0])
    assert np.linalg.norm(w - oracle) < 1e-10


def test_solve_iteration_bound_respected():
    g = affine_germ(slope=0.5)
    w, info = solve_germ(g, np.array([0.5]), 0, tol=1e-12)
    assert info.bound is not None
    assert info.iterations <= info.bound


def counting(b_fn):
    """b_fn with a call counter in its .calls attribute."""
    def counted(a, w, m):
        counted.calls += 1
        return b_fn(a, w, m)
    counted.calls = 0
    return counted


def test_solve_nonconvergent_reports():
    fiber = FiniteDimScale(1)
    b_fn = counting(lambda a, w, m: 1.5 * w + a)
    g = BasicGerm(1, 0, 0, fiber, b_fn,
                  eps=(0.9,), radii=(2.0,), validate=True)
    b_fn.calls = 0
    with pytest.raises(NonConvergenceError):
        solve_germ(g, np.array([0.1]), 0, max_iter=60)
    # a finite divergence runs every iteration: B(a, 0) plus one per step
    assert b_fn.calls == 1 + 60


def test_solve_stops_at_first_nonfinite_residual():
    # w -> 3 w^2 + a squares its way to overflow within a few steps
    b_fn = counting(lambda a, w, m: 3.0 * w ** 2 + a)
    g = BasicGerm(1, 0, 0, FiniteDimScale(1), b_fn, eps=(0.9,), radii=(2.0,),
                  validate=False)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonConvergenceError, match="level 0, iteration"):
            solve_germ(g, np.array([1.0]), 0, max_iter=300)
    assert b_fn.calls <= 12


def test_solve_infinite_b0_is_nonconvergence():
    b_fn = counting(lambda a, w, m: np.exp(1e3 * abs(a)) - 1 + 0 * w)
    g = BasicGerm(1, 0, 0, FiniteDimScale(1), b_fn, eps=(0.5,), radii=(2.0,))
    b_fn.calls = 0
    with np.errstate(over="ignore"):
        with pytest.raises(NonConvergenceError, match="B\\(a, 0\\)"):
            solve_germ(g, np.array([1.0]), 0)
    assert b_fn.calls == 1


def reference_picard(germ, a, m, tol=1e-12, max_iter=500):
    """Picard loop of solve_germ before it stopped at non-finite residuals."""
    a = np.asarray(a, dtype=float)
    w = np.zeros(germ.fiber.dim(m))
    b0 = germ.fiber.norm(germ.b(a, w, m), m)
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
        step_size = germ.fiber.norm(bw - w, m)
        if prev_step is not None and step_size > 100 * tol:
            rates.append(step_size / prev_step)
        prev_step = step_size
        w = bw
    raise NonConvergenceError("reference did not converge")


def _quadratic_root_germ():
    pg = germ_from_map(lambda x: np.array([x[0] ** 2 + x[1] - 1.0]),
                       np.array([0.3, 0.8]), out_dim=1)
    return pg.germ


@pytest.mark.parametrize("make, a, tol", [
    (lambda: affine_germ(slope=0.5), [0.3], 1e-13),
    (lambda: affine_germ(slope=0.9, fiber_dim=3), [-0.7], 1e-12),
    (lambda: BasicGerm(1, 0, 0, FiniteDimScale(1),
                       lambda a, w, m: 0.3 * np.sin(w) + a, eps=(0.3,),
                       radii=(2.0,), validate=False), [1.2], 1e-12),
    (_quadratic_root_germ, [0.25], 1e-12),
])
def test_solve_converging_matches_reference_picard(make, a, tol):
    g = make()
    w, info = solve_germ(g, np.array(a), 0, tol=tol)
    w_ref, info_ref = reference_picard(g, np.array(a), 0, tol=tol)
    assert np.array_equal(w, w_ref)
    assert info == info_ref


def test_solve_parameter_outside_radius():
    g = affine_germ()
    g2 = BasicGerm(1, 0, 0, g.fiber, g.b_fn, eps=(0.5,), radii=(0.2,))
    with pytest.raises(ValueError, match="radius"):
        solve_germ(g2, np.array([5.0]), 0)


# -------------------------------------------------------------- solution_sheet

def test_sheet_affine_matches_closed_form_at_every_node():
    g = affine_germ(slope=0.5)
    grid = np.linspace(-1.0, 1.0, 21)[:, None]
    sheet = solution_sheet(g, grid, m_max=3, tol=1e-13)
    for node in sheet.nodes:
        for m in range(4):
            assert node.deltas[m][0] == pytest.approx(2 * node.a[0], abs=1e-11)
    assert sheet.max_coherence() <= 2e-13


def test_sheet_zero_map():
    fiber = FiniteDimScale(2)
    g = BasicGerm(1, 0, 0, fiber, lambda a, w, m: np.zeros(2), eps=(0.1,))
    grid = np.linspace(-1, 1, 11)[:, None]
    sheet = solution_sheet(g, grid, m_max=2)
    assert np.all(sheet.delta_array(2) == 0.0)
    assert np.all(sheet.derivative_estimates == 0.0)


def test_sheet_quadratic_derivative_estimates():
    fiber = FiniteDimScale(1)
    g = BasicGerm(1, 0, 0, fiber, lambda a, w, m: 0.5 * w + a ** 2,
                  eps=(0.5,), radii=(4.0,))
    grid = np.linspace(-0.5, 0.5, 41)[:, None]
    sheet = solution_sheet(g, grid, m_max=0, tol=1e-13)
    # closed form delta(a) = 2 a^2: second difference of the derivative is 4
    mid = 20
    assert sheet.delta_array(0)[mid, 0] == pytest.approx(0.0, abs=1e-12)
    d_est = sheet.derivative_estimates[:, 0]
    h = grid[1, 0] - grid[0, 0]
    second = (d_est[mid + 1] - d_est[mid - 1]) / (2 * h)
    assert second == pytest.approx(4.0, abs=1e-6)


def test_sheet_one_dimensional_grid_is_one_coordinate_per_node():
    g = affine_germ()
    flat = solution_sheet(g, np.linspace(0, 1, 5), m_max=1)
    rows = solution_sheet(g, np.linspace(0, 1, 5)[:, None], m_max=1)
    assert flat.to_csv() == rows.to_csv()


def test_sheet_grid_of_columns_raises():
    # (base_dim, n): one column per node instead of one row
    with pytest.raises(ValueError, match=r"grid of shape \(1, 5\) needs rows of "
                                         r"the base dimension 1"):
        solution_sheet(affine_germ(), np.linspace(0, 1, 5)[None, :], m_max=1)


def test_sheet_csv_roundtrip():
    g = affine_germ()
    sheet = solution_sheet(g, np.linspace(0, 1, 5)[:, None], m_max=1)
    lines = sheet.to_csv().strip().split("\n")
    assert lines[0].startswith("a0,level,delta0")
    assert len(lines) == 1 + 5 * 2


# ------------------------------------------------------------------- fillings

@pytest.fixture(scope="module")
def small_bump():
    scale = WeightedGridScale(16.0, 1 / 8, (0.0, 0.02, 0.04))
    return bump_splicing(scale)


def make_filling(small_bump, breach=False):
    scale = small_bump.fiber
    r = splicing_to_retraction(small_bump)
    n = scale.n

    def gamma(s):
        return 0.4 + 0.1 * np.tanh(s)

    def ambient_fn(y):
        s, u = y[0], y[1:]
        f = small_bump.f_s(s) if s > 0 else np.zeros(n)
        return u - gamma(s) * f

    def phi(y, h):
        return small_bump.project(y[:1], h)

    if breach:
        # rank-deficient complement action: kill half of the fiber
        mask = np.zeros(n)
        mask[: n // 2] = 1.0

        def ambient_breach(y):
            s, u = y[0], y[1:]
            f = small_bump.f_s(s) if s > 0 else np.zeros(n)
            pu = small_bump.project(y[:1], u)
            return pu - gamma(s) * f + mask * (u - pu)

        return FillingData(ambient_breach, r, phi, scale)
    return FillingData(ambient_fn, r, phi, scale)


def test_trivial_filling_passes():
    scale = FiniteDimScale(3)
    from scfold.retracts import Retraction
    from scfold.sc_calculus import whole_scale_domain

    ident = Retraction(whole_scale_domain(scale), lambda x: x, lambda x, h: h)
    fdata = FillingData(lambda y: y - np.array([0.1, 0.2, 0.3]), ident,
                        lambda y, h: h, scale)
    rep = filling_verify(fdata, np.array([0.1, 0.2, 0.3]))
    assert rep.checks["agreement"]
    assert rep.checks["solutions_in_retract"]
    # kernel of Dr and of phi are both trivial
    assert rep.passed


def test_filling_disagreeing_section_fails_agreement():
    # with section_fn unset the agreement check compares the extension with
    # itself; a section off by 1e-6 from the extension must fail it, and
    # only it
    scale = FiniteDimScale(3)
    from scfold.retracts import Retraction
    from scfold.sc_calculus import whole_scale_domain

    ident = Retraction(whole_scale_domain(scale), lambda x: x, lambda x, h: h)
    shift = np.array([0.1, 0.2, 0.3])
    fdata = FillingData(lambda y: y - shift, ident, lambda y, h: h, scale,
                        section_fn=lambda y: y - shift + 1e-6)
    rep = filling_verify(fdata, shift)
    assert rep.agreement == pytest.approx(np.sqrt(3) * 1e-6, rel=1e-6)
    assert not rep.checks["agreement"]
    assert rep.checks["solutions_in_retract"] and rep.checks["isomorphism"]


def test_filling_phi_kernel_against_injective_retraction_fails_isomorphism():
    # Dr(x) = id has a trivial kernel, phi = 0 has the whole fiber as its
    # kernel: no map from the one onto the other is an isomorphism, and the
    # report says so instead of multiplying mismatched frames
    scale = FiniteDimScale(3)
    from scfold.retracts import Retraction
    from scfold.sc_calculus import whole_scale_domain

    ident = Retraction(whole_scale_domain(scale), lambda x: x, lambda x, h: h)
    shift = np.array([0.1, 0.2, 0.3])
    fdata = FillingData(lambda y: y - shift, ident,
                        lambda y, h: np.zeros_like(h), scale)
    rep = filling_verify(fdata, shift)
    assert rep.iso_min_singular == 0.0 and rep.iso_condition == np.inf
    assert not rep.checks["isomorphism"]
    assert rep.checks["agreement"]


def test_bump_filling_passes(small_bump):
    fdata = make_filling(small_bump)
    x = np.concatenate([[1.0], 0.4 * small_bump.f_s(1.0)])
    rep = filling_verify(fdata, x)
    assert rep.passed
    assert np.isfinite(rep.iso_condition)


def test_bump_filling_breach_detected(small_bump):
    fdata = make_filling(small_bump, breach=True)
    x = np.concatenate([[1.0], 0.4 * small_bump.f_s(1.0)])
    rep = filling_verify(fdata, x)
    assert not rep.checks["isomorphism"]


# ------------------------------------------------- local_solution_manifold

def test_manifold_full_patch_when_no_residue():
    fiber = FiniteDimScale(2)
    g = BasicGerm(2, 0, 0, fiber, lambda a, w, m: np.zeros(2), eps=(0.1,))
    rep = local_solution_manifold(g, samples_per_dim=5)
    assert rep.dimension == 2
    assert len(rep.samples) == 25
    assert all(np.all(s.w == 0) for s in rep.samples)


def test_manifold_affine_index_one_matches_closed_form():
    # residue: a0 + a1 + w = 0 with w = delta(a) = (a0 - a1); solution line
    fiber = FiniteDimScale(1)
    g = BasicGerm(
        2, 0, 1, fiber,
        b_fn=lambda a, w, m: 0.5 * w + 0.5 * (a[0] - a[1]),
        residue_fn=lambda a, w: np.array([a[0] + a[1] + w[0]]),
        eps=(0.5,), radii=(5.0,),
    )
    rep = local_solution_manifold(g, kernel_dim=1, samples_per_dim=9)
    assert rep.dimension == 1
    assert rep.base_surjectivity > 1e-8
    for s in rep.samples:
        # closed form: w = a0 - a1 and a0 + a1 + w = 0 => 2 a0 + ... wait,
        # the oracle is direct evaluation of both defining equations
        assert abs(s.w[0] - (s.a[0] - s.a[1])) < 1e-8
        assert abs(s.a[0] + s.a[1] + s.w[0]) < 1e-8


def test_manifold_boundary_degeneracies():
    fiber = FiniteDimScale(1)
    g = BasicGerm(
        2, 1, 1, fiber,
        b_fn=lambda a, w, m: 0.5 * w + 0.25 * (a[0] + a[1]),
        residue_fn=lambda a, w: np.array([a[1] - a[0]]),  # kernel diag(1,1)
        eps=(0.5,), radii=(5.0,),
    )
    rep = local_solution_manifold(g, kernel_dim=1, samples_per_dim=9)
    assert rep.samples, "no quadrant samples found"
    boundary = rep.boundary_samples()
    assert boundary and all(s.degeneracy == 1 for s in boundary)
    for s in rep.samples:
        assert s.a[0] >= -1e-12


def test_manifold_not_transversal_raises():
    fiber = FiniteDimScale(1)
    g = BasicGerm(
        1, 0, 1, fiber,
        b_fn=lambda a, w, m: 0.5 * w,
        residue_fn=lambda a, w: np.array([a[0] ** 2]),
        eps=(0.5,), radii=(2.0,),
    )
    with pytest.raises(NonConvergenceError, match="surjective"):
        local_solution_manifold(g)


# ----------------------------------------------------------- germ stability

def test_stability_under_one_level_up_perturbation():
    # perturbing the contraction by a small smooth term keeps it contracting
    g = affine_germ(slope=0.5)
    strength = (1 - 0.5) / 2 * 0.9

    def perturbed(a, w, m):
        return g.b_fn(a, w, m) + strength * np.sin(w)

    g2 = BasicGerm(1, 0, 0, g.fiber, perturbed, eps=(0.5 + strength,),
                   radii=(2.0,), validate=True)
    measured = contraction_verify(g2, 0, sample_count=300, seed=4)
    assert measured < 1.0
    w, _ = solve_germ(g2, np.array([0.2]), 0)
    assert np.linalg.norm(w - g2.b(np.array([0.2]), w)) < 1e-10


def test_uniqueness_two_initial_guesses():
    g = affine_germ(slope=0.5)
    a = np.array([0.4])
    w1, _ = solve_germ(g, a, 0, tol=1e-13)
    # hand-rolled Picard from a different start must land at the same point
    w = np.array([5.0])
    for _ in range(200):
        w = g.b(a, w, 0)
    assert np.linalg.norm(w - w1) <= 2e-13


# ------------------------------------------------------------- germ_from_map

def test_germ_from_map_solves_quadratic_root():
    def fn(x):
        return np.array([x[0] ** 2 + x[1] - 1.0])

    pg = germ_from_map(fn, np.array([0.3, 0.8]), out_dim=1)
    assert pg.germ.base_dim == 1  # index one kernel
    w, _ = solve_germ(pg.germ, np.zeros(1), 0, tol=1e-12)
    sol = pg.ambient(np.zeros(1), w)
    assert abs(fn(sol)[0]) < 1e-10


def test_sheet_rate_bounded_by_declared_constant():
    # observed per-iteration ratios stay within the declared constant plus
    # a small sampling margin at every solved node
    g = affine_germ(slope=0.5)
    sheet = solution_sheet(g, np.linspace(-1, 1, 20)[:, None], m_max=2)
    for node in sheet.nodes:
        for level_rates in node.rates:
            for r in level_rates:
                assert r <= 0.5 + 0.05
