import numpy as np
import pytest
import scipy.linalg

from scfold import _fd
from scfold.errors import (
    AmbiguousRankError,
    DegenerateBasisError,
    ImageMismatchError,
    NonIdempotentError,
    WindowExitError,
)
from scfold.retracts import (
    _probe_block,
    BrokenPathDemo,
    LocalScModel,
    Retraction,
    Splicing,
    broken_path_demo,
    bump_splicing,
    corner_invariance_check,
    good_position_check,
    neatness_check,
    retract_tangent_basis,
    retraction_check,
    splicing_to_retraction,
    tangent_independence_check,
    tangent_retraction_check,
)
from scfold.sc_calculus import ScDomain, whole_scale_domain
from scfold.sc_core import (
    FiniteDimScale,
    PartialQuadrant,
    WeightedGridScale,
    fredholm_split,
)

BUMP_DELTAS = (0.0, 0.01, 0.02, 0.03)


@pytest.fixture(scope="module")
def bump_scale():
    return WeightedGridScale(64.0, 1 / 16, BUMP_DELTAS)


@pytest.fixture(scope="module")
def bump(bump_scale):
    return bump_splicing(bump_scale)


@pytest.fixture(scope="module")
def bump_retraction(bump):
    return splicing_to_retraction(bump, name="bump")


def on_retract_point(bump, s, t):
    """Ambient coordinates of the retract point (s, t * f_s)."""
    fiber = t * bump.f_s(s) if s > 0 else np.zeros(bump.fiber.n)
    return np.concatenate([[s], fiber])


# ------------------------------------------------------ splicing_to_retraction

def identity_family():
    return Splicing(whole_scale_domain(FiniteDimScale(1)), FiniteDimScale(3),
                    project=lambda v, e: np.asarray(e, dtype=float),
                    dproject=lambda v, e, dv, de: np.asarray(de, dtype=float))


def zero_family():
    return Splicing(whole_scale_domain(FiniteDimScale(1)), FiniteDimScale(3),
                    project=lambda v, e: np.zeros_like(np.asarray(e, dtype=float)),
                    dproject=lambda v, e, dv, de: np.zeros_like(np.asarray(de, dtype=float)))


def test_identity_family_gives_identity_retraction():
    r = splicing_to_retraction(identity_family(), [np.zeros(1)], [np.ones(3)])
    x = np.array([0.5, 1.0, -2.0, 3.0])
    assert np.allclose(r(x), x)
    assert r.in_image(x)


def test_zero_family_kills_fiber():
    r = splicing_to_retraction(zero_family(), [np.zeros(1)], [np.ones(3)])
    x = np.array([0.5, 1.0, -2.0, 3.0])
    out = r(x)
    assert np.allclose(out, [0.5, 0.0, 0.0, 0.0])
    assert r.in_image(out)


def test_non_idempotent_family_rejected():
    fiber = FiniteDimScale(2)
    param = FiniteDimScale(1)
    sp = Splicing(whole_scale_domain(param), fiber,
                  project=lambda v, e: 0.5 * np.asarray(e, dtype=float))
    with pytest.raises(NonIdempotentError):
        splicing_to_retraction(sp, [np.zeros(1)], [np.ones(2)])


def test_bump_core_is_graph_of_profile(bump):
    x = on_retract_point(bump, 1.0, 0.7)
    r = splicing_to_retraction(bump)
    assert r.in_image(x)


# ---------------------------------------------------------------- bump family

def test_bump_negative_parameter_rank_zero(bump):
    e = np.exp(-bump.fiber.grid ** 2)
    assert np.all(bump.project(np.array([-1.0]), e) == 0.0)


def test_bump_projects_own_profile(bump):
    f1 = bump.f_s(1.0)
    out = bump.project(np.array([1.0]), f1)
    assert bump.fiber.norm(out - f1, 0) < 1e-12


def test_bump_kills_orthogonal_complement(bump):
    scale = bump.fiber
    f1 = bump.f_s(1.0)
    # Gram-Schmidt oracle: remove the f_1 component from a generic vector
    g = np.exp(-(scale.grid + 2.5) ** 2)
    coeff = scale.inner0(f1, g) / scale.inner0(f1, f1)
    e_perp = g - coeff * f1
    assert abs(scale.inner0(e_perp, f1)) < 1e-12
    out = bump.project(np.array([1.0]), e_perp)
    assert scale.norm(out, 0) < 1e-10


def test_bump_window_exit(bump):
    with pytest.raises(WindowExitError):
        bump.f_s(0.2)  # exp(5) + 1 > 64


def test_bump_needs_a_grid_scale():
    with pytest.raises(ValueError, match="weighted_grid"):
        bump_splicing(FiniteDimScale(3))


# ----------------------------------------------------------------- idempotence

def test_bump_retraction_idempotence_all_levels(bump, bump_retraction):
    samples = [
        on_retract_point(bump, 1.0, 0.7) + _noise(bump, 1),
        on_retract_point(bump, 0.25, -0.4) + _noise(bump, 2),
        on_retract_point(bump, -1.0, 0.0) + _noise(bump, 3),
        on_retract_point(bump, 0.5, 1.2),
    ]
    assert retraction_check(bump_retraction, samples, levels=range(4)) <= 1e-9


def _noise(bump, seed, size=0.05):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(bump.fiber.n + 1)
    raw[0] = 0.0
    return size * raw / np.linalg.norm(raw)


def test_tangent_map_of_retraction_is_retraction(bump, bump_retraction):
    rng = np.random.default_rng(5)
    samples = [on_retract_point(bump, 1.0, 0.7), on_retract_point(bump, -0.5, 0.0)]
    dirs = [rng.standard_normal(bump.fiber.n + 1) for _ in samples]
    assert tangent_retraction_check(bump_retraction, samples, dirs) < 1e-9


def test_restriction_is_retraction(bump, bump_retraction):
    sub = bump_retraction.restrict(lambda y: y[0] > 0.3)
    x = on_retract_point(bump, 1.0, 0.7)
    assert sub.domain.contains(x, 0)
    assert not sub.domain.contains(on_retract_point(bump, -1.0, 0.0), 0)
    assert retraction_check(sub, [x], levels=range(2)) < 1e-9


# --------------------------------------------------------- derivatives on rows

def one_row_loop(r, x, rows):
    """Dr(x) one direction per call, as every derivative matrix was built
    before derivatives took rows: the reference for the row calls."""
    return np.array([r.derivative(x, h) for h in rows])


def _identity(bump, bump_retraction):
    ident = Retraction(whole_scale_domain(FiniteDimScale(5)), lambda x: x,
                       lambda x, h: h)
    return ident, np.linspace(-1.0, 1.0, 5)


def _spliced(family):
    return lambda bump, bump_retraction: (splicing_to_retraction(family()),
                                          np.array([0.5, 1.0, -2.0, 3.0]))


def _acceptance_conjugate(bump, bump_retraction):
    # the criterion 3 conjugate; tests/ is on the import path under pytest
    from test_acceptance import _conjugate_retraction
    return (_conjugate_retraction(bump, bump_retraction, 0.1),
            on_retract_point(bump, 1.0, 0.7))


@pytest.mark.parametrize("build", [
    pytest.param(lambda bump, r: (r, on_retract_point(bump, -0.5, 0.0)), id="bump s<=0"),
    pytest.param(lambda bump, r: (r, on_retract_point(bump, 1.0, 0.7)), id="bump s>0"),
    pytest.param(lambda bump, r: (radial_conjugate_retraction(bump, r, alpha=0.1),
                                  on_retract_point(bump, 1.0, 0.7)), id="radial conjugate"),
    pytest.param(_acceptance_conjugate, id="acceptance conjugate"),
    pytest.param(_spliced(identity_family), id="identity splicing"),
    pytest.param(_spliced(zero_family), id="zero splicing"),
    pytest.param(_identity, id="identity"),
    pytest.param(lambda bump, r: (squeezed_retraction(), np.array([0.3, -0.2, 1.5])),
                 id="squeezed"),
    pytest.param(lambda bump, r: (Retraction(r.domain, r.fn),
                                  on_retract_point(bump, 1.0, 0.7)),
                 id="centered differences"),
])
def test_derivative_rows_equal_one_row_calls(bump, bump_retraction, build):
    r, x = build(bump, bump_retraction)
    rows = np.random.default_rng(4).standard_normal((2, 3, x.size))
    got = r.derivative(x, rows)
    assert got.shape == rows.shape
    ref = one_row_loop(r, x, rows.reshape(-1, x.size)).reshape(rows.shape)
    assert np.array_equal(got, ref)
    # the transpose of a column block, as retract_tangent_basis passes probes
    cols = rows.reshape(-1, x.size).T.copy()
    assert np.array_equal(r.derivative(x, cols.T), one_row_loop(r, x, cols.T))


def test_pointwise_derivative_on_rows_raises():
    # n (n . h) is written for one direction: on a batch it returns one vector
    n = np.array([0.6, 0.8])
    proj = Retraction(whole_scale_domain(FiniteDimScale(2)), lambda x: n * (n @ x),
                      lambda x, h: n * (n @ h), name="pointwise")
    assert np.array_equal(proj.derivative(n, np.array([1.0, 0.0])), 0.6 * n)
    with pytest.raises(ValueError, match=r"'pointwise' derivative returned shape "
                                         r"\(2,\) for rows h of shape \(2, 2\)"):
        proj.derivative(n, np.eye(2))


def test_bump_project_rows_equal_one_row_calls(bump):
    rows = np.random.default_rng(6).standard_normal((3, bump.fiber.n))
    for s in (-0.5, 1.0):
        v = np.array([s])
        assert np.array_equal(bump.project(v, rows), [bump.project(v, e) for e in rows])


# -------------------------------------------------------- retract_tangent_basis

def test_identity_retraction_full_dimension():
    scale = FiniteDimScale(3)
    dom = whole_scale_domain(scale)
    ident = Retraction(dom, lambda x: x, lambda x, h: h)
    tb = retract_tangent_basis(ident, np.array([0.1, 0.2, 0.3]))
    assert tb.dimension == 3


def test_saturated_sketch_falls_back_to_the_full_basis():
    # 24 probes of the identity on R^100 have rank 24: a sketch whose rank
    # fills its width has not seen the whole image
    ident = Retraction(whole_scale_domain(FiniteDimScale(100)), lambda x: x,
                       lambda x, h: h)
    tb = retract_tangent_basis(ident, np.linspace(0.0, 1.0, 100))
    assert tb.dimension == 100


def reference_tangent_basis(r, x, seed=0):
    """retract_tangent_basis with a fresh probe draw on every call."""
    d = x.size
    if d > 64:
        probes = np.random.default_rng(seed).standard_normal((d, 24))
        probes /= np.linalg.norm(probes, axis=0)
        basis, sing = _fd.orthonormal_columns(r.derivative(x, probes.T).T)
        if basis.shape[1] < 24:
            return basis, basis.shape[1], sing
    basis, sing = _fd.orthonormal_columns(r.derivative(x, np.eye(d)).T)
    return basis, basis.shape[1], sing


def test_probe_block_is_shared_and_read_only():
    probes = _probe_block(100, 3)
    assert _probe_block(100, 3) is probes
    assert probes.shape == (100, 24)
    with pytest.raises(ValueError, match="read-only"):
        probes[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        probes /= 2.0
    fresh = np.random.default_rng(3).standard_normal((100, 24))
    assert np.array_equal(probes, fresh / np.linalg.norm(fresh, axis=0))


@pytest.mark.parametrize("case", ["sketch s>0", "sketch s<0", "full-basis fallback"])
@pytest.mark.parametrize("seed", [0, 5])
def test_tangent_basis_equals_fresh_probe_reference(bump, bump_retraction, case, seed):
    if case == "full-basis fallback":  # 24 probes of the identity have rank 24
        r = Retraction(whole_scale_domain(FiniteDimScale(100)), lambda x: x,
                       lambda x, h: h)
        x = np.linspace(0.0, 1.0, 100)
    else:
        s = 1.0 if case == "sketch s>0" else -0.5
        r, x = bump_retraction, on_retract_point(bump, s, 0.7)
    for _ in range(2):  # the second call reads the cached block
        tb = retract_tangent_basis(r, x, seed)
        basis, dimension, sing = reference_tangent_basis(r, x, seed)
        assert tb.dimension == dimension
        assert np.array_equal(tb.basis, basis)
        assert np.array_equal(tb.singular_values, sing)
    assert len(sing) == (100 if case == "full-basis fallback" else 24)


def squeezed_retraction():
    # r(x) = (x0, x1 exp(-x2), 0) retracts R^3 onto the plane x2 = 0; off the
    # image, at (0, 0, t), Dr = diag(1, exp(-t), 0), whose second singular
    # value is exp(-t) relative to the first
    dom = whole_scale_domain(FiniteDimScale(3))
    return Retraction(
        dom, lambda x: np.array([x[0], x[1] * np.exp(-x[2]), 0.0]),
        lambda x, h: np.stack([h[..., 0], h[..., 1] * np.exp(-x[2])
                               - h[..., 2] * x[1] * np.exp(-x[2]),
                               np.zeros(h.shape[:-1])], axis=-1))


@pytest.mark.parametrize("rel,expected", [(1e-11, 1), (1e-7, 2)])
def test_tangent_basis_decides_outside_the_guard_band(rel, expected):
    x = np.array([0.0, 0.0, -np.log(rel)])
    assert retract_tangent_basis(squeezed_retraction(), x).dimension == expected


def test_tangent_basis_raises_inside_the_guard_band():
    x = np.array([0.0, 0.0, -np.log(1e-9)])
    with pytest.raises(AmbiguousRankError):
        retract_tangent_basis(squeezed_retraction(), x)


@pytest.mark.parametrize("s,t,expected", [
    (-1.0, 0.0, 1),
    (-0.25, 0.0, 1),
    (0.25, 0.7, 2),
    (1.0, 0.7, 2),
])
def test_bump_dimension_jump(bump, bump_retraction, s, t, expected):
    x = on_retract_point(bump, s, t)
    tb = retract_tangent_basis(bump_retraction, x)
    assert tb.dimension == expected
    # finite-difference Jacobian oracle with direction-separated probes:
    # the parameter direction is probed alone, fiber probes see a linear map
    oracle = fd_jacobian_rank(bump_retraction, x, seed=3)
    assert oracle == expected


def fd_jacobian_rank(r, x, probes=10, seed=0, step=1e-6):
    rng = np.random.default_rng(seed)
    cols = []
    e0 = np.zeros_like(x)
    e0[0] = 1.0
    cols.append((r(x + step * e0) - r(x - step * e0)) / (2 * step))
    for _ in range(probes):
        v = rng.standard_normal(x.size)
        v[0] = 0.0
        v /= np.linalg.norm(v)
        cols.append((r(x + step * v) - r(x - step * v)) / (2 * step))
    sing = np.linalg.svd(np.array(cols).T, compute_uv=False)
    return int(np.sum(sing / sing[0] > 1e-8))


# --------------------------------------------------- tangent_independence_check

def test_independence_same_retraction(bump, bump_retraction):
    samples = [on_retract_point(bump, 1.0, 0.7)]
    gap = tangent_independence_check(bump_retraction, bump_retraction, samples)
    assert gap <= 1e-12  # identical retraction, gap at round-off


def test_independence_two_projections_same_range():
    scale = FiniteDimScale(4)
    dom = whole_scale_domain(scale)
    rng = np.random.default_rng(1)
    basis = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    p = basis @ basis.T
    mixed = basis @ rng.standard_normal((2, 2))  # same range, different basis
    q = mixed @ np.linalg.pinv(mixed)
    r1 = Retraction(dom, lambda x: p @ x, lambda x, h: h @ p.T)
    r2 = Retraction(dom, lambda x: q @ x, lambda x, h: h @ q.T)
    samples = [p @ rng.standard_normal(4) for _ in range(3)]
    assert tangent_independence_check(r1, r2, samples) <= 1e-12


def test_independence_bump_vs_radial_rescaled_conjugate(bump, bump_retraction):
    r2 = radial_conjugate_retraction(bump, bump_retraction, alpha=0.1)
    samples = [on_retract_point(bump, 1.0, 0.7), on_retract_point(bump, 0.25, 0.4)]
    gap = tangent_independence_check(bump_retraction, r2, samples)
    assert gap <= 1e-8


def radial_conjugate_retraction(bump, base_r, alpha):
    """Conjugate by the fiber-radial rescaling u -> u (1 + alpha |u|_0^2).

    The rescaling preserves fiber rays, so the conjugate has the same image;
    its derivative is assembled by the chain rule from the closed-form
    derivatives of the rescaling, its inverse, and the base retraction.
    """
    scale = bump.fiber

    def rescale(x):
        s, u = x[0], x[1:]
        n2 = scale.inner0(u, u)
        return np.concatenate([[s], u * (1.0 + alpha * n2)])

    def drescale(x, h):
        u, w = x[1:], h[..., 1:]
        n2 = scale.inner0(u, u)
        return np.concatenate([
            h[..., :1],
            w * (1.0 + alpha * n2) + np.multiply.outer(2.0 * alpha * scale.inner0(u, w), u)
        ], axis=-1)

    def rescale_inv(x):
        s, y = x[0], x[1:]
        n2y = scale.inner0(y, y)
        gamma = 1.0
        for _ in range(60):
            g = gamma * (1.0 + alpha * gamma ** 2 * n2y) - 1.0
            dg = 1.0 + 3.0 * alpha * gamma ** 2 * n2y
            step = g / dg
            gamma -= step
            if abs(step) < 1e-16:
                break
        return np.concatenate([[s], gamma * y])

    def drescale_inv(x, h):
        # invert the derivative of the rescaling at the preimage point
        pre = rescale_inv(x)
        u = pre[1:]
        z = h[..., 1:]
        n2 = scale.inner0(u, u)
        uz = scale.inner0(u, z)
        uw = uz / (1.0 + 3.0 * alpha * n2)
        w = (z - np.multiply.outer(2.0 * alpha * uw, u)) / (1.0 + alpha * n2)
        return np.concatenate([h[..., :1], w], axis=-1)

    def fn(x):
        return rescale(base_r(rescale_inv(x)))

    def dfn(x, h):
        pre = rescale_inv(x)
        mid = base_r(pre)
        return drescale(mid, base_r.derivative(pre, drescale_inv(x, h)))

    return Retraction(base_r.domain, fn, dfn, name="conjugate")


def test_independence_image_mismatch(bump, bump_retraction):
    scale = bump.fiber
    dom = bump_retraction.domain

    def other(x):
        return np.concatenate([[x[0]], np.zeros(scale.n)])

    r2 = Retraction(dom, other, lambda x, h: np.concatenate(
        [h[..., :1], np.zeros(h.shape[:-1] + (scale.n,))], axis=-1))
    with pytest.raises(ImageMismatchError):
        tangent_independence_check(bump_retraction, r2,
                                   [on_retract_point(bump, 1.0, 0.7)])


# ---------------------------------------------------------------- neatness

def test_neatness_identity_interior():
    scale = FiniteDimScale(2)
    quadrant = PartialQuadrant(scale, (0, 1))
    dom = ScDomain(quadrant)
    ident = Retraction(dom, lambda x: x, lambda x, h: h)
    model = LocalScModel(ident)
    rep = neatness_check(model, np.array([1.0, 2.0]))
    assert rep.passed


def test_neatness_identity_corner():
    scale = FiniteDimScale(2)
    quadrant = PartialQuadrant(scale, (0, 1))
    ident = Retraction(ScDomain(quadrant), lambda x: x, lambda x, h: h)
    model = LocalScModel(ident)
    rep = neatness_check(model, np.array([0.0, 0.0]))
    assert rep.passed
    assert rep.details["sequence"].startswith("constant")


def test_neatness_bump_at_jump(bump, bump_retraction):
    model = LocalScModel(bump_retraction)
    rep = neatness_check(model, on_retract_point(bump, 0.0, 0.0))
    # quadrant-free ambient: every complement is admissible
    assert rep.complement_ok
    assert rep.passed


def test_neatness_nearly_parallel_complement_is_rejected():
    # the fixed space is tilted 3e-12 off the non-quadrant axis e_1, the only
    # admissible complement, so the stacked frame [n, e_1] has relative
    # sigma_min near 1e-12: rank 2 at numpy's default tolerance, rank 1 below
    # the guard band of _fd.numerical_rank
    scale = FiniteDimScale(2)
    quadrant = PartialQuadrant(scale, (0,))
    n = np.array([3e-12, 1.0]) / np.hypot(3e-12, 1.0)
    proj = Retraction(ScDomain(quadrant), lambda x: n * (n @ x),
                      lambda x, h: np.multiply.outer(h @ n, n))
    rep = neatness_check(LocalScModel(proj), n)
    assert rep.details["fixed_space_dim"] == 1
    assert rep.details["complement_dim"] == 1
    assert not rep.complement_ok


def test_neatness_ladder_off_the_image_passes():
    # projection onto the x0 axis of a quadrant-free plane: (0, 1) is off the
    # image, and every retracted perturbation has its degeneracy 0
    proj = Retraction(whole_scale_domain(FiniteDimScale(2)),
                      lambda x: np.array([x[0], 0.0]),
                      lambda x, h: h * np.array([1.0, 0.0]))
    rep = neatness_check(LocalScModel(proj), np.array([0.0, 1.0]))
    assert rep.details["sequence"].startswith("sampled ladder")
    assert rep.complement_ok
    assert rep.passed


def test_neatness_ladder_without_equal_degeneracy_is_inconclusive():
    # r(x) = (1, x1) on the half plane x0 >= 0: the corner point (0, 0) has
    # degeneracy 1, every retracted point has x0 = 1 and degeneracy 0
    quadrant = PartialQuadrant(FiniteDimScale(2), (0,))
    r = Retraction(ScDomain(quadrant), lambda x: np.array([1.0, x[1]]),
                   lambda x, h: h * np.array([0.0, 1.0]))
    rep = neatness_check(LocalScModel(r), np.zeros(2))
    assert rep.details["sequence"].startswith("sampled ladder")
    assert rep.sequence_status == "inconclusive"
    assert not rep.passed


def test_neatness_complement_wider_than_the_free_coordinates_fails():
    # the zero retraction of the half plane x0 >= 0 fixes only 0, so a
    # complement must span the plane, but only x1 is free of the quadrant
    quadrant = PartialQuadrant(FiniteDimScale(2), (0,))
    zero = Retraction(ScDomain(quadrant), lambda x: np.zeros(2),
                      lambda x, h: np.zeros_like(h))
    rep = neatness_check(LocalScModel(zero), np.zeros(2))
    assert rep.details["fixed_space_dim"] == 0
    assert rep.details["complement_dim"] == 0
    assert not rep.complement_ok
    assert rep.sequence_status == "pass"


def _stacked_frame_verdict(n_basis, qidx):
    """Reference: the construction neatness_check used before it read the
    quadrant block. Free columns picked by pivoted QR of their residual
    against the fixed space, then the rank of the stacked d x d frame.
    Returns (complement_ok, complement_dim), or "ambiguous"."""
    d, k = n_basis.shape
    w = np.eye(d)[:, [i for i in range(d) if i not in qidx]]
    need = d - k
    if need == 0:
        return True, 0
    if need > w.shape[1]:
        return False, 0
    z = w - n_basis @ (n_basis.T @ w)
    piv = scipy.linalg.qr(z, pivoting=True, mode="economic")[2]
    stacked = np.concatenate([n_basis, w[:, piv[:need]]], axis=1)
    try:
        return fredholm_split(stacked).image.shape[1] == d, need
    except AmbiguousRankError:
        return "ambiguous"


def _projection_model(n, qidx):
    # orthogonal projection onto the columns of n, in the quadrant with
    # indices qidx
    d = n.shape[0]
    proj = Retraction(ScDomain(PartialQuadrant(FiniteDimScale(d), tuple(qidx))),
                      lambda x: n @ (n.T @ x), lambda x, h: (h @ n) @ n.T)
    return LocalScModel(proj)


def _tilted_frame(d, k, qidx, tilt, rng):
    # orthonormal d x k frame whose quadrant rows have singular values of
    # order 1, except the smallest, of order tilt
    a = rng.standard_normal((d, k))
    m = min(len(qidx), k)
    if m:
        u = np.linalg.qr(rng.standard_normal((len(qidx),) * 2))[0][:, :m]
        v = np.linalg.qr(rng.standard_normal((k, k)))[0][:, :m]
        a[qidx] = (u * np.r_[np.ones(m - 1), tilt]) @ v.T
    return np.linalg.qr(a)[0]


def _both_verdicts(n, qidx, x):
    model = _projection_model(n, qidx)
    basis = retract_tangent_basis(model.retraction, x).basis
    try:
        rep = neatness_check(model, x)
        got = rep.complement_ok, rep.details["complement_dim"]
    except AmbiguousRankError:
        got = "ambiguous"
    return got, _stacked_frame_verdict(basis, qidx)


def _fixtures(tilts_of):
    # every ambient dimension 2..6, fixed-space dimension k and number of
    # quadrant indices, with seeded frames and quadrant indices
    for d in range(2, 7):
        for k in range(d + 1):
            for q in range(d + 1):
                for i, tilt in enumerate(tilts_of(d, k, q)):
                    rng = np.random.default_rng([d, k, q, i])
                    qidx = sorted(rng.choice(d, q, replace=False).tolist())
                    yield d, k, qidx, _tilted_frame(d, k, qidx, tilt, rng)


def test_neatness_verdicts_equal_the_stacked_frame_construction():
    seen = set()
    count = 0
    for d, k, qidx, n in _fixtures(lambda d, k, q: (1.0, 1e-7, 1e-9, 3e-12)):
        got, want = _both_verdicts(n, qidx, np.zeros(d))
        assert got == want, (d, k, qidx)
        seen.add(got if got == "ambiguous" else got[0])
        count += 1
    assert count == 540 and seen == {True, False, "ambiguous"}
    # the tilted line of the half plane, across the guard band
    ladder = set()
    for tilt in np.geomspace(3e-12, 1e-7, 41):
        n = np.array([[tilt], [1.0]]) / np.hypot(tilt, 1.0)
        got, want = _both_verdicts(n, [0], n[:, 0])
        assert got == want, tilt
        ladder.add(got if got == "ambiguous" else got[0])
    assert ladder == {True, False, "ambiguous"}


def test_neatness_verdicts_near_the_guard_band():
    # log-uniform tilts in [1e-12, 1e-6]. With as many quadrant indices as
    # fixed-space dimensions the two frames are the same matrix; with fewer,
    # [n, E_W] has all the free axes and the reference only d - k of them,
    # and dropping columns never raises a singular value, so the verdict
    # (False < ambiguous < True) is never below the reference's
    def tilts(d, k, q):
        return 10.0 ** np.random.default_rng([d, k, q]).uniform(-12, -6, 12)

    def level(verdict):
        return 1 if verdict == "ambiguous" else 2 * verdict[0]

    for d, k, qidx, n in _fixtures(tilts):
        got, want = _both_verdicts(n, qidx, np.zeros(d))
        if len(qidx) >= k:
            assert got == want, (d, k, qidx)
        else:
            assert level(got) >= level(want), (d, k, qidx)


# ---------------------------------------------------- corner_invariance_check

def quadrant2():
    return PartialQuadrant(FiniteDimScale(2), (0, 1))


def corner_samples():
    pts = [
        np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 2.0]),
        np.array([0.5, 1.5]), np.array([3.0, 0.0]), np.array([2.0, 2.0]),
    ]
    return pts


def test_corner_identity():
    q = quadrant2()
    worst, _ = corner_invariance_check(lambda x: x, lambda y: y, q, q, corner_samples())
    assert worst == 0


def test_corner_diagonal_scaling():
    q = quadrant2()
    worst, _ = corner_invariance_check(
        lambda x: np.array([2.0 * x[0], 3.0 * x[1]]),
        lambda y: np.array([y[0] / 2.0, y[1] / 3.0]),
        q, q, corner_samples())
    assert worst == 0


def test_corner_shear():
    q = quadrant2()
    worst, _ = corner_invariance_check(
        lambda x: np.array([x[0], x[1] * (1.0 + x[0] ** 2)]),
        lambda y: np.array([y[0], y[1] / (1.0 + y[0] ** 2)]),
        q, q, corner_samples())
    assert worst == 0


def test_corner_non_invertible_rejected():
    q = quadrant2()
    with pytest.raises(ValueError, match="invertible"):
        corner_invariance_check(
            lambda x: np.array([x[0], 0.0 * x[1]]),
            lambda y: y, q, q, [np.array([1.0, 2.0])])


# ------------------------------------------------------- good_position_check

def test_good_position_diagonal():
    q = quadrant2()
    rep = good_position_check(np.array([[1.0], [1.0]]), q,
                              np.array([[1.0], [-1.0]]), c=0.5)
    assert rep.passed
    # exhaustive oracle over a coefficient grid
    for a in np.linspace(-1, 1, 21):
        n = np.array([a, a])
        for bcoef in np.linspace(-1, 1, 21):
            m = np.array([bcoef, -bcoef]) / np.sqrt(2)
            if np.linalg.norm(m) <= 0.5 * np.linalg.norm(n):
                assert q.contains(n + m) == q.contains(n)


def test_good_position_face_fails_with_counterexample():
    q = quadrant2()
    rep = good_position_check(np.array([[1.0], [0.0]]), q,
                              np.array([[0.0], [1.0]]), c=0.5, sample_count=2000)
    assert rep.interior_ok
    assert not rep.equivalence_ok
    n, m = rep.counterexamples[0]
    assert q.contains(n) != q.contains(n + m)


def test_good_position_whole_space():
    q = quadrant2()
    rep = good_position_check(np.eye(2), q, np.zeros((2, 0)), c=1.0)
    assert rep.passed


def test_good_position_one_dimensional_frame_is_its_column():
    q = quadrant2()
    flat = good_position_check(np.array([1.0, 0.0]), q, np.array([0.0, 1.0]),
                               c=0.5, sample_count=2000)
    cols = good_position_check(np.array([[1.0], [0.0]]), q, np.array([[0.0], [1.0]]),
                               c=0.5, sample_count=2000)
    assert (flat.equivalence_ok, flat.interior_ok) == (cols.equivalence_ok, cols.interior_ok)
    assert np.array_equal(flat.interior_witness, cols.interior_witness)
    assert np.array_equal(flat.counterexamples, cols.counterexamples)


@pytest.mark.parametrize("build", [
    lambda frame, q: good_position_check(frame, q, np.zeros((2, 0)), c=0.5),
], ids=["good_position_check"])
def test_frame_of_rows_raises(build):
    # a (k, d) frame: one row per basis vector instead of one column
    with pytest.raises(ValueError, match=r"frame of shape \(1, 2\) needs 2 rows"):
        build(np.array([[1.0, 0.0]]), quadrant2())


# ------------------------------------------------------------ broken path demo

def test_broken_path_demo_degeneracies():
    demo = broken_path_demo(np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                            np.array([2.0, 0.0]))
    kinds = {s.kind: s for s in demo.samples}
    assert kinds["broken"].degeneracy == 1
    for s in demo.samples:
        if s.kind == "unbroken":
            assert s.degeneracy == 0
    dims = {s.local_dimension for s in demo.samples}
    assert dims == {3}  # 1 glue + 2 shape coordinates


def test_broken_path_demo_rows_schema():
    demo = broken_path_demo(np.zeros(2), np.array([1.0, 1.0]), np.array([2.0, 0.0]))
    rows = demo.rows()
    assert all(set(r) == {"sample", "level", "local_dimension", "degeneracy_index"}
               for r in rows)


def test_broken_path_demo_degeneration_narrative():
    a, b, c = np.zeros(2), np.array([1.0, 1.0]), np.array([2.0, 0.0])
    demo = broken_path_demo(a, b, c, shape_amplitude=0.0,
                            glue_values=(0.05, 0.4))
    def middle_distance(sample):
        curve = sample.curve[0]
        return np.min(np.linalg.norm(curve - b[None, :], axis=1))
    small = next(s for s in demo.samples if s.glue == 0.05)
    large = next(s for s in demo.samples if s.glue == 0.4)
    # the smaller the glue parameter, the closer the visible path to the middle
    assert middle_distance(small) < middle_distance(large)
    assert middle_distance(small) < 1e-6


def test_broken_path_demo_coincident_anchors_rejected():
    with pytest.raises(ValueError, match="distinct"):
        broken_path_demo(np.zeros(2), np.zeros(2), np.ones(2))


def test_dimension_constant_within_strata_jumps_at_zero(bump, bump_retraction):
    # the local dimension is locally constant along a curve in each stratum
    # and jumps exactly at the family's rank-jump parameter
    dims = []
    for s in (-1.0, -0.7, -0.4, -0.1, 0.3, 0.5, 0.8, 1.2):
        t = 0.5 if s > 0 else 0.0
        x = on_retract_point(bump, s, t)
        dims.append((s, retract_tangent_basis(bump_retraction, x).dimension))
    for s, d in dims:
        assert d == (2 if s > 0 else 1)


# ------------------------------------------------------------------ guards

def _first_axis_retraction():
    keep = np.array([1.0, 0.0])
    return Retraction(whole_scale_domain(FiniteDimScale(2)), lambda x: x * keep,
                      lambda x, h: h * keep)


@pytest.mark.parametrize("build,error,message", [
    pytest.param(lambda: tangent_independence_check(
        _first_axis_retraction(), _first_axis_retraction(), [np.array([0.0, 1.0])]),
                 ImageMismatchError, "sample not fixed by both retractions",
                 id="sample off the image"),
    pytest.param(lambda: good_position_check(np.array([[1.0], [0.0]]), quadrant2(),
                                             np.array([[1.0], [1e-9]]), c=0.5),
                 DegenerateBasisError, "combined basis condition number too large",
                 id="degenerate basis"),
])
def test_retract_guards_raise(build, error, message):
    with pytest.raises(error, match=message):
        build()
