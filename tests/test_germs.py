import re

import numpy as np
import pytest

from scfold import _fd
from scfold.errors import NonConvergenceError, NotInQuadrantError
from scfold.germs import (
    BasicGerm,
    FillingData,
    ManifoldReport,
    ManifoldSample,
    SolveInfo,
    contraction_verify,
    filling_verify,
    germ_from_map,
    local_solution_manifold,
    solution_sheet,
    solve_germ,
)
from scfold.retracts import bump_splicing, splicing_to_retraction
from scfold.sc_core import (
    FiniteDimScale,
    WeightedGridScale,
    degeneracy_index,
    fredholm_split,
)


def affine_germ(slope=0.5, base_dim=1, fiber_dim=1, levels=3):
    fiber = FiniteDimScale(fiber_dim, max_level=levels)
    return BasicGerm(
        base_dim=base_dim, quadrant_count=0, residue_dim=0, fiber=fiber,
        b_fn=lambda a, w, m: slope * w + a.sum(axis=-1, keepdims=True),
        eps=(slope + 1e-9,), radii=(10.0,),
    )


# --------------------------------------------------------- contraction_verify

def test_contraction_zero_map():
    fiber = FiniteDimScale(2)
    g = BasicGerm(1, 0, 0, fiber, lambda a, w, m: np.zeros_like(w), eps=(0.1,))
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
    g = BasicGerm(1, 0, 0, fiber, lambda a, w, m: np.zeros_like(w), eps=(0.1,))
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
                  lambda a, w, m: (q @ w[..., None])[..., 0] + gvec * a[..., :1],
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
    pg = germ_from_map(lambda x: x[..., :1] ** 2 + x[..., 1:] - 1.0,
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
    g = BasicGerm(1, 0, 0, fiber, lambda a, w, m: np.zeros_like(w), eps=(0.1,))
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
    g = BasicGerm(2, 0, 0, fiber, lambda a, w, m: np.zeros_like(w), eps=(0.1,))
    rep = local_solution_manifold(g, samples_per_dim=5)
    assert rep.dimension == 2
    assert len(rep.samples) == 25
    assert all(np.all(s.w == 0) for s in rep.samples)


def test_manifold_affine_index_one_matches_closed_form():
    # residue: a0 + a1 + w = 0 with w = delta(a) = (a0 - a1); solution line
    fiber = FiniteDimScale(1)
    g = BasicGerm(
        2, 0, 1, fiber,
        b_fn=lambda a, w, m: 0.5 * w + 0.5 * (a[..., :1] - a[..., 1:]),
        residue_fn=lambda a, w: a[..., :1] + a[..., 1:] + w,
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
        b_fn=lambda a, w, m: 0.5 * w + 0.25 * (a[..., :1] + a[..., 1:]),
        residue_fn=lambda a, w: a[..., 1:] - a[..., :1],  # kernel diag(1,1)
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
        residue_fn=lambda a, w: a ** 2,
        eps=(0.5,), radii=(2.0,),
    )
    with pytest.raises(NonConvergenceError, match="surjective"):
        local_solution_manifold(g)


def reference_local_solution_manifold(germ, kernel_dim=None, samples_per_dim=9):
    """local_solution_manifold as a per-point Newton loop: each mesh point
    kernel @ kappa is corrected on its own affine slice of the complement by
    up to 50 np.linalg.solve steps on central-difference Jacobians, and kept
    once its residue is below 1e-9."""
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


def _manifold_germ(name, radius=5.0):
    """The germs of the local_solution_manifold tests above, and a nonlinear
    one with three parameters whose kernel is two-dimensional."""
    fiber = FiniteDimScale(1)
    if name == "no_residue":
        return BasicGerm(2, 0, 0, FiniteDimScale(2), lambda a, w, m: np.zeros_like(w),
                         eps=(0.1,), radii=(radius,))
    if name == "affine_index_one":
        return BasicGerm(2, 0, 1, fiber,
                         b_fn=lambda a, w, m: 0.5 * w + 0.5 * (a[..., :1] - a[..., 1:]),
                         residue_fn=lambda a, w: a[..., :1] + a[..., 1:] + w,
                         eps=(0.5,), radii=(radius,))
    if name == "boundary":
        return BasicGerm(2, 1, 1, fiber,
                         b_fn=lambda a, w, m: 0.5 * w + 0.25 * (a[..., :1] + a[..., 1:]),
                         residue_fn=lambda a, w: a[..., 1:] - a[..., :1],
                         eps=(0.5,), radii=(radius,))
    if name == "not_transversal":
        return BasicGerm(1, 0, 1, fiber, b_fn=lambda a, w, m: 0.5 * w,
                         residue_fn=lambda a, w: a ** 2, eps=(0.5,), radii=(radius,))
    return BasicGerm(3, 0, 1, fiber,
                     b_fn=lambda a, w, m: 0.4 * np.sin(w) + 0.3 * a[..., :1] * a[..., 1:2],
                     residue_fn=lambda a, w: (a[..., :1] + np.sin(a[..., 1:2])
                                              + a[..., 2:] ** 3 + w ** 2),
                     eps=(0.4,), radii=(radius,))


@pytest.mark.parametrize("name, samples_per_dim, count", [
    ("no_residue", 5, 25),
    ("affine_index_one", 9, 9),
    ("boundary", 9, 5),
    ("nonlinear_three_parameters", 9, 81),
])
def test_manifold_matches_pointwise_newton_reference(name, samples_per_dim, count):
    germ = _manifold_germ(name)
    got = local_solution_manifold(germ, samples_per_dim=samples_per_dim)
    ref = reference_local_solution_manifold(germ, samples_per_dim=samples_per_dim)
    assert len(got.samples) == len(ref.samples) == count
    assert (got.dimension, got.base_surjectivity) == (ref.dimension, ref.base_surjectivity)
    assert np.array_equal(got.kernel_basis, ref.kernel_basis)
    for s, r in zip(got.samples, ref.samples):
        assert np.array_equal(s.kernel_coords, r.kernel_coords)
        assert s.degeneracy == r.degeneracy
        assert np.abs(s.a - r.a).max() <= 1e-8
        assert np.abs(s.w - r.w).max(initial=0.0) <= 1e-8
        assert s.surjectivity == pytest.approx(r.surjectivity, rel=0, abs=1e-6)


@pytest.mark.parametrize("name, radius, error, match", [
    ("not_transversal", 2.0, NonConvergenceError, "surjective"),
    ("affine_index_one", 0.2, ValueError, "outside validity radius"),
    ("no_residue", 0.2, ValueError, "outside validity radius"),
])
def test_manifold_refusals_match_reference(name, radius, error, match):
    germ = _manifold_germ(name, radius)
    with pytest.raises(error, match=match) as got:
        local_solution_manifold(germ)
    with pytest.raises(error, match=match) as ref:
        reference_local_solution_manifold(germ)
    assert str(got.value) == str(ref.value)


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
        return x[..., :1] ** 2 + x[..., 1:] - 1.0

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


# ------------------------------------------- row solves against scalar loops

def scalar_solve_germ(germ, a, m, tol=1e-12, max_iter=500):
    """solve_germ as it was, one parameter at a time: the reference the row
    solve must match bit for bit, errors included."""
    a = np.asarray(a, dtype=float)
    if np.linalg.norm(a) > germ.radii[m] * (1 + 1e-12):
        raise ValueError(f"parameter outside validity radius {germ.radii[m]:g}")
    w = np.zeros(germ.fiber.dim(m))
    b0 = germ.fiber.norm(germ.b(a, w, m), m)
    if not np.isfinite(b0):
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
        if not np.isfinite(residual):
            raise NonConvergenceError(
                f"residual {residual:g} at level {m}, iteration {it}; "
                "contraction assumption violated")
        if prev_step is not None and residual > 100 * tol:
            rates.append(residual / prev_step)
        prev_step = residual
        w = bw
    raise NonConvergenceError(
        f"no fixed point within {max_iter} iterations at level {m} "
        f"(last residual {residual:g}); contraction assumption may be violated"
    )


def node_major_sheet(germ, a_grid, m_max, tol):
    """solution_sheet's node-major loop as it was, on scalar_solve_germ:
    (deltas, iterations, rates, coherence) per node."""
    nodes = []
    for a in a_grid:
        deltas, iters, rates, coher = [], [], [], []
        for m in range(m_max + 1):
            try:
                w, info = scalar_solve_germ(germ, a, m, tol=tol)
            except NonConvergenceError as exc:
                raise NonConvergenceError(f"node {a.tolist()}: {exc}") from exc
            deltas.append(w)
            iters.append(info.iterations)
            rates.append(info.rates)
            if m > 0:
                coher.append(germ.fiber.norm(deltas[m] - deltas[m - 1], m - 1))
        nodes.append((deltas, iters, rates, coher))
    return nodes


def scalar_contraction_verify(germ, m, sample_count=200, seed=0):
    """contraction_verify as it was, two pointwise B calls per sample."""
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


def scalar_outcome(germ, a, m, **kw):
    try:
        return scalar_solve_germ(germ, a, m, **kw)
    except (ValueError, NonConvergenceError) as exc:
        return exc


def orthogonal_germ(seed, dim=3, rate=0.4):
    """The germ scenario's germ: B(a, w) = q w + g a with q a random
    orthogonal matrix scaled to the contraction rate."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= rate
    gvec = rng.standard_normal(dim)
    return BasicGerm(1, 0, 0, FiniteDimScale(dim, max_level=3),
                     lambda a, w, m: (q @ w[..., None])[..., 0] + gvec * a[..., :1],
                     eps=(rate + 1e-9,), radii=(5.0,))


class DoubledNorm(FiniteDimScale):
    """A fiber whose norm is not FiniteDimScale's: twice the Euclidean one."""

    def norm(self, coeffs, level):
        return 2.0 * super().norm(coeffs, level)


ROW_CASES = {
    "converging affine": (lambda: affine_germ(slope=0.9, fiber_dim=3),
                          [[-0.7], [0.0], [0.3], [2.5]], {}),
    "converging operator": (lambda: orthogonal_germ(0), [[-1.0], [0.25], [0.8]],
                            {"tol": 1e-13}),
    "converging sine": (lambda: BasicGerm(1, 0, 0, FiniteDimScale(1),
                                          lambda a, w, m: 0.3 * np.sin(w) + a,
                                          eps=(0.3,), radii=(2.0,), validate=False),
                        [[1.2], [-0.4]], {}),
    "converging germ_from_map": (_quadratic_root_germ, [[0.25], [0.0], [-0.1]], {}),
    "non-finite B(a, 0)": (lambda: BasicGerm(
        1, 0, 0, FiniteDimScale(1), lambda a, w, m: np.exp(1e3 * abs(a)) - 1 + 0.5 * w,
        eps=(0.5,), radii=(2.0,)), [[0.001], [1.0], [0.002]], {}),
    "non-finite mid-iteration": (lambda: BasicGerm(
        1, 0, 0, FiniteDimScale(1), lambda a, w, m: 3.0 * w ** 2 + a,
        eps=(0.9,), radii=(2.0,), validate=False), [[0.05], [1.0], [0.02]],
        {"max_iter": 300}),
    "max_iter": (lambda: BasicGerm(1, 0, 0, FiniteDimScale(1),
                                   lambda a, w, m: 1.5 * w + a, eps=(0.9,), radii=(2.0,)),
                 [[0.0], [0.1], [-0.2]], {"max_iter": 60}),
    "outside radius": (lambda: BasicGerm(1, 0, 0, FiniteDimScale(1),
                                         lambda a, w, m: 0.5 * w + a,
                                         eps=(0.5,), radii=(0.2,)),
                       [[0.1], [5.0], [-0.15]], {}),
    "norm not FiniteDimScale's": (lambda: BasicGerm(
        1, 0, 0, DoubledNorm(2), lambda a, w, m: 0.5 * w + a, eps=(0.5,), radii=(2.0,)),
        [[0.1], [-0.3]], {}),
}


@pytest.mark.parametrize("case", list(ROW_CASES))
def test_solve_rows_match_scalar_reference(case):
    make, rows, kw = ROW_CASES[case]
    g = make()
    rows = np.array(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        w, info = solve_germ(g, rows, 0, **kw)
        outcomes = [scalar_outcome(g, a, 0, **kw) for a in rows]
    assert w.shape == (len(rows), g.fiber.dim(0))
    assert info.iterations == max(info.row_iterations)
    for i, ref in enumerate(outcomes):
        if isinstance(ref, Exception):
            assert type(info.errors[i]) is type(ref)
            assert str(info.errors[i]) == str(ref)
            continue
        w_ref, info_ref = ref
        assert info.errors[i] is None
        assert np.array_equal(w[i], w_ref)
        assert info.row_iterations[i] == info_ref.iterations
        assert info.residual[i] == info_ref.residual
        assert info.rates[i] == info_ref.rates
        assert all(type(r) is float for r in info.rates[i])
        assert info.bound[i] == info_ref.bound
    assert any(isinstance(ref, tuple) for ref in outcomes)


@pytest.mark.parametrize("case", list(ROW_CASES))
def test_solve_one_row_matches_scalar_reference(case):
    # a 1-D parameter is the one-row case and raises the row's error
    make, rows, kw = ROW_CASES[case]
    g = make()
    for a in np.array(rows):
        with np.errstate(over="ignore", invalid="ignore"):
            ref = scalar_outcome(g, a, 0, **kw)
            if isinstance(ref, Exception):
                with pytest.raises(type(ref)) as raised:
                    solve_germ(g, a, 0, **kw)
                assert str(raised.value) == str(ref)
                continue
            w, info = solve_germ(g, a, 0, **kw)
        assert np.array_equal(w, ref[0])
        assert info == ref[1]


def test_pointwise_b_fn_on_rows_raises():
    g = BasicGerm(1, 0, 0, FiniteDimScale(2), lambda a, w, m: np.zeros(2), eps=(0.1,))
    with pytest.raises(ValueError, match=r"germ b_fn returned shape \(2,\) for rows "
                                         r"a of shape \(3, 1\); rows need shape \(3, 2\)"):
        solve_germ(g, np.zeros((3, 1)), 0)


@pytest.mark.parametrize("shape", [(2, 3, 1), (3, 2), (2,)])
def test_solve_germ_rejects_parameters_of_another_shape(shape):
    g = BasicGerm(1, 0, 0, FiniteDimScale(1), lambda a, w, m: 0.5 * w, eps=(0.5,))
    with pytest.raises(ValueError, match=re.escape(
            f"parameters a of shape {shape}; rows need shape (1,) or (n, 1)")):
        solve_germ(g, np.zeros(shape), 0)


def test_pointwise_residue_fn_on_rows_raises():
    g = BasicGerm(2, 0, 1, FiniteDimScale(1), lambda a, w, m: 0.5 * w,
                  residue_fn=lambda a, w: np.array([a[0] - a[1]]), eps=(0.5,))
    assert g.residue(np.array([0.3, 0.1]), np.zeros(1)).shape == (1,)
    with pytest.raises(ValueError, match="germ residue_fn returned shape"):
        g.residue(np.zeros((4, 2)), np.zeros((4, 1)))


@pytest.mark.parametrize("make, grid, tol", [
    (lambda: orthogonal_germ(0), np.linspace(-1.0, 1.0, 100), 1e-12),
    (lambda: orthogonal_germ(7), np.linspace(-1.0, 1.0, 100), 1e-12),
    (lambda: affine_germ(slope=0.5), np.linspace(-1.0, 1.0, 21), 1e-13),
    (lambda: BasicGerm(1, 0, 0, FiniteDimScale(1), lambda a, w, m: 0.5 * w + a ** 2,
                       eps=(0.5,), radii=(4.0,)), np.linspace(-0.5, 0.5, 41), 1e-13),
])
def test_sheet_matches_node_major_reference(make, grid, tol):
    g = make()
    sheet = solution_sheet(g, grid[:, None], m_max=3 if g.fiber.max_level >= 3 else 0,
                           tol=tol)
    ref = node_major_sheet(g, grid[:, None], sheet.m_max, tol)
    for node, (deltas, iters, rates, coher) in zip(sheet.nodes, ref):
        assert all(np.array_equal(d, r) for d, r in zip(node.deltas, deltas))
        assert node.iterations == iters
        assert node.rates == rates
        assert node.coherence == coher
        assert all(type(c) is float for c in node.coherence)


def _level_failing_germ(radii=(5.0,)):
    """B(a, 0) is infinite for a = 0.1 at level 2 and for a = 0.2 at level 0."""
    def b_fn(a, w, m):
        bad = ((m == 2) & (a == 0.1)) | ((m == 0) & (a == 0.2))
        return 0.5 * w + a + np.where(bad, np.inf, 0.0)
    return BasicGerm(1, 0, 0, FiniteDimScale(1, max_level=3), b_fn, eps=(0.5,),
                     radii=radii)


@pytest.mark.parametrize("radii, kind", [
    ((5.0,), NonConvergenceError),
    # node 0 leaves the radius at level 2, as a ValueError the loop never wrapped
    ((5.0, 5.0, 0.05, 5.0), ValueError),
])
def test_sheet_raises_first_failing_node_at_its_lowest_level(radii, kind):
    # node 0 fails at level 2 and node 1 at level 0: the node-major loop
    # raises node 0's error, and so must the level-major solve
    g = _level_failing_germ(radii)
    grid = np.array([[0.1], [0.2], [0.3]])
    with np.errstate(invalid="ignore"):
        with pytest.raises(kind) as ref:
            node_major_sheet(g, grid, 3, 1e-12)
        with pytest.raises(kind) as got:
            solution_sheet(g, grid, m_max=3)
    assert str(got.value) == str(ref.value)
    assert "level 0" not in str(got.value)


@pytest.mark.parametrize("make, m, samples, seed", [
    (lambda: BasicGerm(1, 0, 0, FiniteDimScale(2), lambda a, w, m: np.zeros_like(w),
                       eps=(0.1,)), 0, 200, 0),
    (lambda: affine_germ(slope=0.5), 0, 300, 1),
    (lambda: BasicGerm(1, 0, 0, FiniteDimScale(1), lambda a, w, m: 0.3 * np.sin(w),
                       eps=(0.3,), radii=(2.0,)), 0, 400, 2),
    (lambda: BasicGerm(1, 0, 0, FiniteDimScale(1),
                       lambda a, w, m: 0.5 * w + a + 0.225 * np.sin(w),
                       eps=(0.725,), radii=(2.0,)), 0, 300, 4),
    (lambda: orthogonal_germ(7), 2, 300, 2),
])
def test_contraction_verify_matches_scalar_reference(make, m, samples, seed):
    g = make()
    got = contraction_verify(g, m, sample_count=samples, seed=seed)
    assert got == scalar_contraction_verify(g, m, sample_count=samples, seed=seed)
    assert type(got) is float


# ------------------------------------------------------------------ guards

def _half(a, w, m):
    return 0.5 * w


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: BasicGerm(1, 0, 1, FiniteDimScale(1), _half),
                 "residue evaluator required when residue_dim > 0", id="no residue"),
    pytest.param(lambda: BasicGerm(1, 0, 0, FiniteDimScale(1),
                                   lambda a, w, m: 0.5 * w + 1.0),
                 "germ must vanish at the origin", id="germ at origin"),
    pytest.param(lambda: BasicGerm(1, 0, 1, FiniteDimScale(1), _half,
                                   residue_fn=lambda a, w: a + 1.0),
                 "residue must vanish at the origin", id="residue at origin"),
    pytest.param(lambda: local_solution_manifold(affine_germ(), kernel_dim=2),
                 "expected kernel dimension 2, got 1", id="kernel dimension"),
])
def test_germ_guards_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()
