import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from scfold import sc_core
from scfold.errors import (
    AmbiguousRankError,
    ConfigError,
    LevelRangeError,
    NotInQuadrantError,
)
from scfold.germs import (
    BasicGerm,
    germ_from_map,
    local_solution_manifold,
)
from scfold.perturbation import (
    BundleChart,
    BundleSection,
    Multisection,
    StrongBundleModel,
    linearization_set,
)
from scfold.sc_calculus import ScDomain
from scfold.sc_core import (
    CircleGridScale,
    FiniteDimScale,
    PartialQuadrant,
    LevelWindow,
    SumScale,
    WeightedGridScale,
    degeneracy_index,
    direct_sum,
    embedding_report,
    fredholm_split,
    level_norm,
    lowrank_split,
    reconstruction_residual,
    scale_from_config,
)


def make_grid_scale(R=8.0, h=1 / 64, deltas=(0.0, 0.1, 0.2, 0.3)):
    return WeightedGridScale(R, h, deltas)


# ---------------------------------------------------------------- level_norm

def test_level_norm_zero_vector():
    scale = make_grid_scale()
    z = scale.zero()
    for m in range(scale.max_level + 1):
        assert level_norm(z, m) == 0.0


def test_level_norm_finite_dim_euclidean():
    scale = FiniteDimScale(2, max_level=3)
    v = scale.vector([3.0, 4.0])
    for m in range(4):
        assert level_norm(v, m) == pytest.approx(5.0, abs=0)


def _finite_dim_norm_inputs():
    rng = np.random.default_rng(5)
    block = rng.standard_normal((7, 5))
    yield "1-D", rng.standard_normal(37)
    yield "2-D", block
    yield "2-D transposed", block.T
    yield "empty", np.zeros(0)
    yield "integer", rng.integers(-1000, 1000, 23)
    yield "integer list", [3, 4, 12]
    yield "near 1e155", np.array([1e155, -2e154, 3e155])


@pytest.mark.parametrize("name,x", list(_finite_dim_norm_inputs()))
def test_finite_dim_norm_bit_identical_to_numpy(name, x):
    got = FiniteDimScale(3).norm(x, 2)
    want = float(np.linalg.norm(x))
    assert type(got) is float
    assert got == want
    if name == "near 1e155":  # solve_germ's non-finite stop reads this inf
        assert got == want == float("inf")


class DoubledNorm(FiniteDimScale):
    """A finite-dimensional scale whose norm is twice the Euclidean one."""

    def norm(self, coeffs, level):
        return 2.0 * super().norm(coeffs, level)


@pytest.mark.parametrize("scale", [FiniteDimScale(3, max_level=2), DoubledNorm(3, max_level=2)],
                         ids=["finite", "own norm"])
def test_finite_dim_norms_equal_norm_of_each_row(scale):
    rng = np.random.default_rng(9)
    block = np.vstack([rng.standard_normal((6, 3)), np.zeros((1, 3)),
                       [[1e155, -2e154, 3e155], [3e154, -3e154, 3e154]]])
    for rows in (block, block[::2], np.asfortranarray(block), np.zeros((0, 3))):
        for level in range(3):
            with np.errstate(over="ignore"):
                got = scale.norms(rows, level)
                want = [scale.norm(row, level) for row in rows]
            assert got.shape == (len(rows),)
            assert np.array_equal(got, want)
    with np.errstate(over="ignore"):
        assert np.isinf(scale.norms(block, 0)[-2:]).all()
        assert np.array_equal(DoubledNorm(3).norms(block, 0),
                              2.0 * FiniteDimScale(3).norms(block, 0))
    with pytest.raises(LevelRangeError):
        scale.norms(block, 3)


def test_level_norm_gaussian_matches_fine_grid_oracle():
    # oracle: the same discrete norm evaluated at h = 1/512
    coarse = make_grid_scale(h=1 / 64)
    fine = make_grid_scale(h=1 / 512)
    u_c = np.exp(-coarse.grid ** 2)
    u_f = np.exp(-fine.grid ** 2)
    val = coarse.norm(u_c, 1)
    oracle = fine.norm(u_f, 1)
    assert abs(val - oracle) / oracle < 1e-6


def test_level_norm_out_of_range():
    scale = make_grid_scale()
    v = scale.vector(np.exp(-scale.grid ** 2), level=1)
    with pytest.raises(LevelRangeError):
        level_norm(v, 2)


def test_declared_level_validates_length():
    scale = FiniteDimScale(3)
    with pytest.raises(ValueError):
        scale.vector([1.0, 2.0])


# ---------------------------------------------------------- embedding_report

def test_embedding_report_finite_dim_ratios_exactly_one():
    scale = FiniteDimScale(5)
    rep = embedding_report(scale, 1, sample_count=32, seed=2)
    assert rep.passed
    assert np.all(rep.ratios == 1.0)


def test_inner0_rows_equal_one_row_products():
    # a C-contiguous block sums each row as the 1-D product does
    scale = WeightedGridScale(64.0, 1 / 16, (0.0, 0.01))
    rng = np.random.default_rng(8)
    f = rng.standard_normal(scale.n)
    block = rng.standard_normal((24, scale.n))
    got = scale.inner0(f, block)
    assert got.shape == (24,)
    assert np.array_equal(got, [scale.inner0(f, row) for row in block])
    assert type(scale.inner0(f, block[0])) is float


def reference_norm(scale, v, level):
    """The level norm of one grid vector: one matvec and one sum per order."""
    if not isinstance(scale, WeightedGridScale):
        return scale.norm(v, level)
    return float(np.sqrt(sum(reference_energy_sums(scale, v, level, None))))


def reference_energy_sums(scale, v, level, outside):
    w = np.exp(scale.deltas[level] * np.abs(scale.grid))
    sums = []
    for k in range(scale.orders[level] + 1):
        e = scale.quad_weights * (((scale.diff(k) @ v) if k else v) * w) ** 2
        sums.append(float(np.sum(e if outside is None else e[outside])))
    return sums


def reference_tail_fraction(scale, v, level, frac):
    total = sum(reference_energy_sums(scale, v, level, None))
    outside = np.abs(scale.grid) > frac * scale.R
    tail = sum(reference_energy_sums(scale, v, level, outside))
    return tail / total if total > 0 else 0.0


def reference_embedding_report(scale, m, sample_count, seed):
    """embedding_report as a loop over samples: one draw, three norms and
    three tail fractions per sample. Returns ratios and tail profile."""
    rng = np.random.default_rng(seed)
    ratios = []
    tails = {0.25: [], 0.5: [], 0.75: []}
    for _ in range(sample_count):
        v = rng.standard_normal(scale.dim(m + 1))
        hi = reference_norm(scale, v, m + 1)
        if hi == 0.0:
            continue
        v = v / hi
        ratios.append(reference_norm(scale, v, m) / reference_norm(scale, v, m + 1))
        if isinstance(scale, WeightedGridScale):
            for frac in tails:
                tails[frac].append(reference_tail_fraction(scale, v, m, frac))
    return np.asarray(ratios), {f: max(t) if t else None for f, t in tails.items()}


@pytest.mark.parametrize("args, kwargs, m, seed, count", [
    # a block's outside entries e[:, outside] are strided; summed that way,
    # tail 0.75 of the first case differs in its last bit
    pytest.param((4.0, 0.25, (0.0, 0.1)), {}, 0, 0, 64, id="R4-m0-seed0"),
    pytest.param((4.0, 0.25, (0.0, 0.1)), {}, 0, 5, 64, id="R4-m0-seed5"),
    pytest.param((64.0, 1 / 16, (0.0, 0.01, 0.02, 0.03)), {}, 2, 0, 64, id="porkbarrel-m2"),
    pytest.param((8.0, 1 / 8, (0.0, 0.1, 0.2, 0.3)), {}, 1, 2, 40, id="R8-m1"),
    pytest.param((8.0, 1 / 8, (0.0, 0.1, 0.2, 0.3)), {"orders": (0, 2, 1, 3)}, 1, 1, 16,
                 id="orders-0213-m1"),
    pytest.param((8.0, 1 / 8, (0.0, 0.1, 0.2, 0.3)), {"orders": (0, 2, 1, 3)}, 2, 3, 16,
                 id="orders-0213-m2"),
    pytest.param((4.0, 0.25, (0.0, 0.1)), {}, 0, 0, 0, id="no-samples"),
])
def test_embedding_report_equals_per_sample_loop(args, kwargs, m, seed, count):
    scale = WeightedGridScale(*args, **kwargs)
    rep = embedding_report(scale, m, sample_count=count, seed=seed)
    ratios, tails = reference_embedding_report(scale, m, count, seed)
    assert np.array_equal(rep.ratios, ratios)
    assert rep.tail_profile == tails
    assert rep.max_ratio == (ratios.max() if count else 0.0)


@pytest.mark.parametrize("scale", [FiniteDimScale(5, max_level=2),
                                   CircleGridScale(16, max_level=2),
                                   direct_sum(FiniteDimScale(2), CircleGridScale(8))],
                         ids=["finite", "circle", "sum"])
def test_embedding_report_of_other_scales_equals_per_sample_loop(scale):
    rep = embedding_report(scale, 1, sample_count=12, seed=4)
    ratios, tails = reference_embedding_report(scale, 1, 12, 4)
    assert np.array_equal(rep.ratios, ratios)
    assert rep.tail_profile == tails == dict.fromkeys((0.25, 0.5, 0.75))


def test_grid_norms_and_tail_fraction_equal_one_vector_sums():
    scale = WeightedGridScale(8.0, 1 / 8, (0.0, 0.1, 0.2, 0.3), orders=(0, 2, 1, 3))
    block = np.random.default_rng(6).standard_normal((9, scale.n))
    for level in range(scale.max_level + 1):
        ref = [reference_norm(scale, v, level) for v in block]
        assert np.array_equal(scale.norms(block, level), ref)
        assert [scale.norm(v, level) for v in block] == ref
        assert type(scale.norm(block[0], level)) is float
        for frac in (0.25, 0.75):
            assert scale.tail_fraction(block[0], level, frac) == \
                reference_tail_fraction(scale, block[0], level, frac)
    with pytest.raises(ValueError, match="rows of"):
        scale.norms(block[0], 0)


def test_embedding_report_grid_ratios_below_recorded_constant():
    scale = WeightedGridScale(4.0, 1 / 16, (0.0, 0.1, 0.2))
    rep = embedding_report(scale, 0, sample_count=64, seed=3)
    assert rep.passed
    assert rep.max_ratio <= rep.constant * (1 + 1e-9)
    # oracle: exhaustive maximization over canonical basis vectors is a lower
    # bound for the recorded constant
    basis_max = 0.0
    for i in range(scale.n):
        e = np.zeros(scale.n)
        e[i] = 1.0
        basis_max = max(basis_max, scale.norm(e, 0) / scale.norm(e, 1))
    assert basis_max <= rep.constant * (1 + 1e-9)
    assert rep.tail_profile[0.5] is not None


# (R, h, deltas, orders) small enough for a dense generalized eigh to be the
# reference; orders (0, 2, 1, 3) makes G_2 - G_1 indefinite
SMALL_GRID_SCALES = [
    (8.0, 1 / 8, (0.0, 0.1, 0.2, 0.3), None),
    (4.0, 1 / 16, (0.0, 0.1, 0.2), None),
    (16.0, 1 / 8, (0.0, 0.02, 0.04), None),
    (8.0, 1 / 8, (0.0, 0.1, 0.2, 0.3), (0, 2, 1, 3)),
]


@pytest.mark.parametrize("R, h, deltas, orders", SMALL_GRID_SCALES)
def test_embedding_constant_matches_dense_eigh(R, h, deltas, orders):
    scale = WeightedGridScale(R, h, deltas, orders=orders)
    for m in range(scale.max_level):
        ev = scipy.linalg.eigh(scale.gram(m).toarray(), scale.gram(m + 1).toarray(),
                               eigvals_only=True)
        dense = float(np.sqrt(ev[-1]))
        assert scale.embedding_constant(m) == pytest.approx(dense, rel=1e-9)


def test_embedding_constant_repeats_exactly():
    a = WeightedGridScale(8.0, 1 / 16, (0.0, 0.1, 0.2, 0.3))
    b = WeightedGridScale(8.0, 1 / 16, (0.0, 0.1, 0.2, 0.3))
    for m in range(3):
        assert a.embedding_constant(m) == b.embedding_constant(m)


def test_gram_is_sparse_banded():
    scale = WeightedGridScale(4.0, 1 / 16, (0.0, 0.1, 0.2, 0.3))
    for level in range(scale.max_level + 1):
        g = scale.gram(level)
        assert sp.issparse(g)
        order = scale.orders[level]
        # the widest stencil in G is the one of the highest derivative order
        width = scale.diff(order).getnnz(axis=1).max() if order else 1
        rows, cols = g.nonzero()
        assert np.all(np.abs(rows - cols) <= width - 1)


GRAM_SCALE = WeightedGridScale(8.0, 1 / 16, (0.0, 0.1, 0.2, 0.3))


@settings(max_examples=40, deadline=None)
@given(level=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_gram_quadratic_form_is_squared_norm(level, seed):
    scale = GRAM_SCALE
    u = np.random.default_rng(seed).standard_normal(scale.n)
    assert float(u @ (scale.gram(level) @ u)) == pytest.approx(
        scale.norm(u, level) ** 2, rel=1e-12)


def test_non_monotone_deltas_rejected():
    with pytest.raises(ValueError):
        WeightedGridScale(4.0, 1 / 16, (0.0, 0.2, 0.1))
    with pytest.raises(ValueError):
        WeightedGridScale(4.0, 1 / 16, (0.1, 0.2, 0.3))


# ---------------------------------------------------------- degeneracy_index

def test_degeneracy_interior_point():
    q = PartialQuadrant(FiniteDimScale(2), (0, 1))
    assert degeneracy_index(q, np.array([1.0, 2.0]), tol=1e-12) == 0


def test_degeneracy_corner():
    q = PartialQuadrant(FiniteDimScale(2), (0, 1))
    assert degeneracy_index(q, np.array([0.0, 0.0])) == 2


def test_degeneracy_mixed():
    q = PartialQuadrant(FiniteDimScale(3), (0, 1, 2))
    assert degeneracy_index(q, np.array([0.0, 3.2, 0.0])) == 2


def test_degeneracy_not_in_quadrant():
    q = PartialQuadrant(FiniteDimScale(2), (0, 1))
    with pytest.raises(NotInQuadrantError):
        degeneracy_index(q, np.array([-1.0, 0.5]))


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=3, max_size=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_degeneracy_permutation_invariant(vals, seed):
    arr = np.asarray(vals)
    scale = FiniteDimScale(arr.size)
    q = PartialQuadrant(scale, tuple(range(arr.size)))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(arr.size)
    assert degeneracy_index(q, arr) == degeneracy_index(q, arr[perm])


# ------------------------------------------------------------ fredholm_split

def elimination_rank(a, tol=1e-10):
    """Independent rank oracle: Gaussian elimination with partial pivoting."""
    m = np.array(a, dtype=float)
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        if rank >= rows:
            break
        piv = rank + np.argmax(np.abs(m[rank:, col]))
        if abs(m[piv, col]) <= tol:
            continue
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = m[rank] / m[rank, col]
        for r in range(rows):
            if r != rank:
                m[r] -= m[r, col] * m[rank]
        rank += 1
    return rank


def test_fredholm_identity():
    data = fredholm_split(np.eye(5))
    assert data.kernel_dim == 0
    assert data.cokernel_dim == 0
    assert data.index == 0


def test_fredholm_zero_operator():
    data = fredholm_split(np.zeros((2, 3)))
    assert data.kernel_dim == 3
    assert data.cokernel_dim == 2
    assert data.index == 1


def test_fredholm_random_rank2():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 4))
    assert elimination_rank(a) == 2  # oracle fixes the rank first
    data = fredholm_split(a)
    assert data.kernel_dim == 2
    assert data.cokernel_dim == 1
    assert data.index == 1
    assert reconstruction_residual(a, data, seed=1) < 1e-10


def test_fredholm_index_vs_elimination_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(25):
        nt, ns = rng.integers(1, 6, size=2)
        r = int(rng.integers(0, min(nt, ns) + 1))
        a = rng.standard_normal((nt, r)) @ rng.standard_normal((r, ns)) if r else np.zeros((nt, ns))
        data = fredholm_split(a)
        rank = elimination_rank(a)
        assert data.kernel_dim == ns - rank
        assert data.cokernel_dim == nt - rank
        assert data.index == (ns - rank) - (nt - rank)


@settings(max_examples=60, deadline=None)
@given(nt=st.integers(0, 7), ns=st.integers(0, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_fredholm_split_index_is_dimension_difference(nt, ns, seed):
    a = np.random.default_rng(seed).standard_normal((nt, ns))
    data = fredholm_split(a)
    assert data.index == ns - nt
    assert data.kernel_dim - data.cokernel_dim == ns - nt


def test_fredholm_split_rank_cutoffs():
    # the one rank rule, _fd.numerical_rank: a relative singular value inside
    # the guard band (1e-10, 1e-8) raises, one outside it decides the rank
    with pytest.raises(AmbiguousRankError):
        fredholm_split(np.diag([1.0, 1e-9]))
    assert fredholm_split(np.diag([1.0, 1e-7])).image.shape[1] == 2
    assert fredholm_split(np.diag([1.0, 1e-11])).image.shape[1] == 1
    for a in (np.zeros((2, 3)), np.zeros((0, 4))):
        data = fredholm_split(a)
        assert data.image.shape[1] == 0
        assert data.kernel_dim == a.shape[1]
        assert data.cokernel_dim == a.shape[0]


def test_fredholm_grid_lowrank():
    scale = WeightedGridScale(4.0, 1 / 16, (0.0, 0.1))
    n = scale.n
    rng = np.random.default_rng(0)
    u = rng.standard_normal((n, 2)) * 0.1
    v = rng.standard_normal((n, 2)) * 0.1
    data = lowrank_split(u, v)
    assert data.index == 0
    # generic small perturbation of the identity is invertible
    assert data.kernel_dim == 0 and data.cokernel_dim == 0


def test_fredholm_grid_lowrank_core_rank_uses_the_guard_band():
    # core = I + V'U = diag(1, 1e-9): its second singular value lies inside
    # the guard band, so the kernel dimension is undecidable
    n = WeightedGridScale(4.0, 1 / 16, (0.0, 0.1)).n
    u = np.eye(n)[:, :2]
    v = np.zeros((n, 2))
    v[1, 1] = -1.0 + 1e-9
    with pytest.raises(AmbiguousRankError):
        lowrank_split(u, v)


def test_fredholm_grid_lowrank_rank_is_measured_against_the_identity():
    # T = I - q q' for a unit q: the 1 x 1 core 1 - q'q is round-off, far
    # below the identity's scale, so both splits find the kernel q
    n = WeightedGridScale(4.0, 1 / 16, (0.0, 0.1)).n
    q = np.random.default_rng(1).standard_normal(n)
    q /= np.linalg.norm(q)
    u, v = q[:, None], -q[:, None]
    assert 0.0 < abs((np.eye(1) + v.T @ u).item()) < 1e-15
    data = lowrank_split(u, v)
    dense = fredholm_split(np.eye(n) - np.outer(q, q))
    assert data.kernel_dim == dense.kernel_dim == 1
    assert data.cokernel_dim == dense.cokernel_dim == 1
    assert abs(data.kernel[:, 0] @ q) == pytest.approx(1.0)


@pytest.mark.parametrize("power", [30, 34])
def test_fredholm_grid_lowrank_badly_scaled_frames_keep_their_dimension(power):
    # core = I + V'U is exactly zero, a two-dimensional kernel, while the
    # columns of U and V differ in scale by 2^power: the frames U a and V b
    # have full column rank whatever their spread
    n = WeightedGridScale(4.0, 1 / 16, (0.0, 0.1)).n
    u = np.zeros((n, 2))
    u[0, 0], u[1, 1] = 1.0, 2.0 ** -power
    v = np.zeros((n, 2))
    v[0, 0], v[1, 1] = -1.0, -(2.0 ** power)
    assert not (np.eye(2) + v.T @ u).any()
    data = lowrank_split(u, v)
    assert data.kernel_dim == 2 and data.cokernel_dim == 2
    t = np.eye(n) + u @ v.T
    assert np.linalg.norm(t @ data.kernel) < 1e-12
    assert np.linalg.norm(t.T @ data.cokernel) < 1e-12


def test_fredholm_grid_lowrank_with_kernel():
    scale = WeightedGridScale(4.0, 1 / 16, (0.0, 0.1))
    n = scale.n
    u = np.zeros((n, 1))
    u[3, 0] = 1.0
    v = np.zeros((n, 1))
    v[3, 0] = -1.0  # I + u v' kills the coordinate 3 direction
    data = lowrank_split(u, v)
    assert data.kernel_dim == 1
    assert data.cokernel_dim == 1
    assert data.index == 0
    k = data.kernel[:, 0]
    assert np.linalg.norm(k + u @ (v.T @ k)) < 1e-12


def test_fredholm_grid_lowrank_cokernel_is_the_adjoint_kernel():
    # core = I + V'U = [[0, 1], [0, 1]] is not symmetric: its right null
    # vector (1, 0) and left null vector (1, -1)/sqrt(2) differ, and only the
    # left one gives the cokernel V b of I + U V'
    scale = WeightedGridScale(4.0, 1 / 16, (0.0, 0.1))
    n = scale.n
    u = np.zeros((n, 2))
    u[0, 0] = u[1, 1] = 1.0
    v = np.zeros((n, 2))
    v[0, 0], v[1, 0], v[2, 1] = -1.0, 1.0, 1.0
    assert np.array_equal(np.eye(2) + v.T @ u, [[0.0, 1.0], [0.0, 1.0]])
    data = lowrank_split(u, v)
    assert data.kernel_dim == 1 and data.cokernel_dim == 1
    assert data.index == 0
    t = np.eye(n) + u @ v.T
    assert np.linalg.norm(t @ data.kernel) < 1e-12
    assert np.linalg.norm(t.T @ data.cokernel) < 1e-12


def _scfold_modules():
    return [m for k, m in sorted(sys.modules.items())
            if k == "scfold" or k.startswith("scfold.")]


def _count_splits(monkeypatch):
    """Patch every scfold module binding of sc_core.fredholm_split with a
    counter, the way a tracer that wraps the function finds it."""
    raw = sc_core.fredholm_split
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return raw(*args, **kwargs)

    for mod in _scfold_modules():
        for key, value in list(vars(mod).items()):
            if value is raw:
                monkeypatch.setattr(mod, key, counted)
    return calls


def _linearization_of_two_branches():
    base, fiber = FiniteDimScale(1, max_level=3), FiniteDimScale(1, max_level=3)
    domain = ScDomain(PartialQuadrant(base, ()), center=np.zeros(1), radii=(1.5,) * 4)
    model = StrongBundleModel([BundleChart("main", domain, fiber)])
    f = BundleSection(model, lambda cid, x: x ** 2, jac=lambda cid, x: np.array([[2 * x[0]]]))
    shift = BundleSection(model, lambda cid, x: np.array([0.25]), tag="sc_plus",
                          jac=lambda cid, x: np.zeros((1, 1)))
    lam = Multisection(model, [(shift, Fraction(1, 3)), (shift, Fraction(2, 3))])
    linearization_set(f, lam, "main", np.array([0.5]))


def _affine_index_one_manifold():
    g = BasicGerm(2, 0, 1, FiniteDimScale(1),
                  b_fn=lambda a, w, m: 0.5 * w + 0.5 * (a[..., :1] - a[..., 1:]),
                  residue_fn=lambda a, w: a[..., :1] + a[..., 1:] + w,
                  eps=(0.5,), radii=(5.0,))
    local_solution_manifold(g, kernel_dim=1, samples_per_dim=9)


@pytest.mark.parametrize("run, expected", [
    pytest.param(_linearization_of_two_branches, [(1, 1), (1, 1)], id="linearization_set"),
    pytest.param(lambda: germ_from_map(lambda x: x[..., :1] ** 2 + x[..., 1:] - 1.0,
                                       np.array([0.3, 0.8]), out_dim=1),
                 [(1, 2)], id="germ_from_map"),
    # the base-point Jacobian once, then the complement of its kernel
    pytest.param(_affine_index_one_manifold, [(1, 2), (1, 2)], id="local_solution_manifold"),
])
def test_every_library_split_is_fredholm_split(monkeypatch, run, expected):
    calls = _count_splits(monkeypatch)
    run()
    assert calls == expected


def test_no_module_binds_a_second_split_name():
    found = [f"{m.__name__}.{name}" for m in _scfold_modules()
             for name in ("dense_split", "LinearScOperator") if name in vars(m)]
    assert found == []


# ---------------------------------------------------------------- direct_sum

def test_direct_sum_dims():
    s = direct_sum(FiniteDimScale(2), FiniteDimScale(3))
    for m in range(4):
        assert s.dim(m) == 5


def test_direct_sum_with_zero_summand():
    e = make_grid_scale(R=4.0, h=1 / 16, deltas=(0.0, 0.1))
    z = FiniteDimScale(0, max_level=1)
    s = direct_sum(e, z)
    u = np.exp(-e.grid ** 2)
    for m in range(2):
        assert s.norm(u, m) == pytest.approx(e.norm(u, m), abs=0)


def test_direct_sum_mixed_backend_recompute_oracle():
    e = make_grid_scale(R=4.0, h=1 / 16, deltas=(0.0, 0.1))
    f = FiniteDimScale(3, max_level=1)
    s = direct_sum(e, f)
    u = np.exp(-e.grid ** 2)
    v = np.array([1.0, -2.0, 2.0])
    both = np.concatenate([u, v])
    for m in range(2):
        expected = np.sqrt(e.norm(u, m) ** 2 + f.norm(v, m) ** 2)
        assert s.norm(both, m) == pytest.approx(expected, rel=1e-15)


def test_direct_sum_mismatched_levels():
    with pytest.raises(ValueError):
        direct_sum(FiniteDimScale(2, max_level=2), FiniteDimScale(2, max_level=3))


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=2),
    b=st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
)
def test_direct_sum_parallelogram(a, b):
    s = direct_sum(FiniteDimScale(2), FiniteDimScale(3))
    joint = np.asarray(a + b)
    na = FiniteDimScale(2).norm(np.asarray(a), 0)
    nb = FiniteDimScale(3).norm(np.asarray(b), 0)
    assert s.norm(joint, 0) ** 2 == pytest.approx(na ** 2 + nb ** 2, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------------- shifted

def test_shifted_scale_levels():
    e = make_grid_scale()
    sh = e.shifted(1)
    assert sh.max_level == e.max_level - 1
    u = np.exp(-e.grid ** 2)
    assert sh.norm(u, 0) == pytest.approx(e.norm(u, 1), abs=0)


def test_circle_scale_norms():
    c = CircleGridScale(256, max_level=2)
    u = np.sin(c.grid)
    n0 = c.norm(u, 0)
    assert n0 == pytest.approx(np.sqrt(np.pi), rel=1e-6)
    assert c.norm(u, 1) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-6)


def test_circle_scale_norm_rejects_wrong_length():
    c = CircleGridScale(64, max_level=2)
    for level in range(3):
        with pytest.raises(ValueError, match=r"expected 64 grid values, got shape \(10,\)"):
            c.norm(np.ones(10), level)


def test_circle_scale_norms_equal_norm_of_each_row():
    c = CircleGridScale(64, max_level=3, orders=[0, 2, 1, 3])
    block = np.random.default_rng(3).standard_normal((7, 64))
    for level in range(4):
        assert np.array_equal(c.norms(block, level), [c.norm(row, level) for row in block])
    assert type(c.norm(block[0], 0)) is float
    with pytest.raises(ValueError, match=r"expected rows of 64 grid values, got shape \(3, 10\)"):
        c.norms(np.ones((3, 10)), 0)


def test_circle_scale_norm_sums_h_v_squared():
    # the grid backends share one energy helper: each entry is h * v**2,
    # summed along the grid, the sums added in order of derivative
    c = CircleGridScale(50, max_level=1)
    u = np.random.default_rng(1).standard_normal(50)
    du = c.diff(1) @ u
    assert c.norm(u, 0) == float(np.sqrt(np.sum(c.h * u ** 2)))
    assert c.norm(u, 1) == float(np.sqrt(np.sum(c.h * u ** 2) + np.sum(c.h * du ** 2)))


# ------------------------------------------------------------ config parsing

def test_scale_from_config_finite():
    s = scale_from_config('{"backend": "finite_dim", "dims": 4, "max_level": 2}')
    assert isinstance(s, FiniteDimScale)
    assert s.dim(0) == 4


def test_scale_from_config_grid():
    s = scale_from_config(
        '{"backend": "weighted_grid", "grid": {"R": 4.0, "h": 0.0625},'
        ' "deltas": [0.0, 0.1]}'
    )
    assert isinstance(s, WeightedGridScale)
    assert s.n == 129


def test_grid_scale_rejects_grid_narrower_than_top_stencil():
    # R/h = 2 gives n = 5 points; level 2 needs the width-7 order-2 stencil
    with pytest.raises(ValueError, match="grid of 5 points .* order 2: .* width 7"):
        WeightedGridScale(1 / 8, 1 / 16, (0, .1, .2))
    with pytest.raises(ValueError, match="grid of 5 points"):
        scale_from_config('{"backend": "weighted_grid", "grid": {"R": 0.125,'
                          ' "h": 0.0625}, "deltas": [0.0, 0.1, 0.2]}')
    # the order-1 stencil has width 5, which fits
    assert WeightedGridScale(1 / 8, 1 / 16, (0, .1)).norm(np.ones(5), 1) > 0


@pytest.mark.parametrize("R,h,name", [
    (0.0, 1 / 16, "R"),      # one-point grid, zero seminorm
    (-1.0, 1 / 16, "R"),     # negative dimension inside numpy
    (-1.0, -1 / 16, "R"),    # reversed grid
    (1.0, 0.0, "h"),
    (1.0, -1 / 16, "h"),
])
def test_grid_scale_rejects_non_positive_R_or_h(R, h, name):
    with pytest.raises(ValueError, match=f"grid .* {name} must be positive"):
        WeightedGridScale(R, h, (0.0,))
    with pytest.raises(ValueError, match=f"grid .* {name} must be positive"):
        scale_from_config({"backend": "weighted_grid", "grid": {"R": R, "h": h},
                           "deltas": [0.0]})


def test_circle_scale_rejects_n_unless_a_positive_integer():
    # as WeightedGridScale names R or h: n = 0 would divide by zero, a
    # negative n would give a negative dim, and 2.5 would truncate to 2
    for build in (lambda: CircleGridScale(0), lambda: CircleGridScale(-4, 1),
                  lambda: CircleGridScale(2.5),
                  lambda: scale_from_config({"backend": "circle_grid", "n": 0})):
        with pytest.raises(ValueError, match="grid size n must be a positive integer"):
            build()
    assert CircleGridScale(8).dim(0) == 8


def test_scale_from_config_unknown_key():
    with pytest.raises(ConfigError):
        scale_from_config('{"backend": "finite_dim", "dims": 4, "bogus": 1}')


def test_scale_from_config_bad_json_reports_line():
    with pytest.raises(ConfigError, match="line"):
        scale_from_config('{"backend": "finite_dim",\n "dims": }')


# ------------------------------------------------------------------ guards

@pytest.mark.parametrize("build,error,message", [
    pytest.param(lambda: FiniteDimScale(1, max_level=1).shifted(2), LevelRangeError,
                 "no room to shift", id="shift past max_level"),
    pytest.param(lambda: FiniteDimScale(-1), ValueError,
                 "dimension and max_level must be nonnegative", id="negative dim"),
    pytest.param(lambda: CircleGridScale(8, max_level=2, orders=[0, 1]), ValueError,
                 "one derivative order per level", id="orders per level"),
    pytest.param(lambda: WeightedGridScale(1.0, 0.3, (0.0, 0.1)), ValueError,
                 "R/h must be a positive even integer", id="R/h not even"),
    pytest.param(lambda: LevelWindow(FiniteDimScale(1, max_level=2), 1, 2),
                 LevelRangeError, "invalid level window", id="window past top"),
    pytest.param(lambda: SumScale([]), ValueError, "need at least one component",
                 id="empty sum"),
    pytest.param(lambda: SumScale([FiniteDimScale(1, 1), FiniteDimScale(1, 2)]),
                 ValueError, "mismatched max_level among components",
                 id="sum max_level"),
    pytest.param(lambda: SumScale([FiniteDimScale(1)]).split(np.zeros(2)), ValueError,
                 "coefficient length does not match the sum scale", id="split length"),
    pytest.param(lambda: PartialQuadrant(FiniteDimScale(2), (2,)), ValueError,
                 "quadrant index outside ambient coordinate range",
                 id="quadrant index range"),
    pytest.param(lambda: PartialQuadrant(FiniteDimScale(2), (0, 0)), ValueError,
                 "repeated quadrant index", id="repeated quadrant index"),
])
def test_sc_core_guards_raise(build, error, message):
    with pytest.raises(error, match=message):
        build()
