"""Difference stencils: the one-stencil build of diff_matrix against a per-row
reference, and exactness on polynomials."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from scfold import _fd
from scfold.errors import AmbiguousRankError


def stencil_width(order):
    width = order + _fd.STENCIL_ACCURACY
    return width + 1 if width % 2 == 0 else width


def per_row_diff_matrix(n, h, order, periodic=False):
    """Reference build: one Fornberg stencil per row, centered where the
    window fits and shifted to one side at the edges."""
    if order == 0:
        return sp.identity(n, format="csr")
    width = stencil_width(order)
    half = width // 2
    offsets = np.arange(-half, half + 1)
    rows, cols, vals = [], [], []
    for i in range(n):
        if periodic:
            idx = (i + offsets) % n
            w = _fd.fornberg_weights(0.0, offsets * h, order)
        else:
            lo = max(0, min(i - half, n - width))
            idx = np.arange(lo, lo + width)
            w = _fd.fornberg_weights(i * h, idx * h, order)
        rows.extend([i] * width)
        cols.extend(idx)
        vals.extend(w)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [9, 33, 129])
def test_diff_matrix_bit_identical_to_per_row_build(n, order, periodic):
    a = _fd.diff_matrix(n, 1 / 16, order, periodic=periodic)
    b = per_row_diff_matrix(n, 1 / 16, order, periodic=periodic)
    assert a.shape == b.shape
    assert (a != b).nnz == 0


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("h", [0.1, 2 * np.pi / 100])
def test_diff_matrix_non_dyadic_step_agrees_to_rounding(h, order, periodic):
    # away from dyadic h the interior stencil at offsets*h and the per-row
    # stencil at (idx - i)*h differ in the last bits of their node positions
    a = _fd.diff_matrix(129, h, order, periodic=periodic)
    b = per_row_diff_matrix(129, h, order, periodic=periodic)
    assert abs(a - b).max() <= 1e-13 * abs(b).max()


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(1, 4),
    n=st.integers(9, 40),
    coeffs=st.lists(st.floats(-1, 1, allow_nan=False), min_size=9, max_size=9),
)
def test_diff_matrix_exact_on_polynomials_of_stencil_degree(order, n, coeffs):
    # every row, edge rows included, uses `width` nodes, so it differentiates
    # polynomials of degree width - 1 exactly up to rounding
    h = 1 / 16
    degree = stencil_width(order) - 1
    p = np.polynomial.Polynomial(coeffs[:degree + 1])
    x = h * np.arange(n) - h * (n // 2)
    d = _fd.diff_matrix(n, h, order)
    got = d @ p(x)
    want = p.deriv(order)(x)
    # rounding bound: the cancelled sum sum_j |w_ij p(x_j)| per row
    scale = abs(d) @ np.abs(p(x))
    assert np.all(np.abs(got - want) <= 1e-12 * (scale + 1.0))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_diff_matrix_rejects_grid_narrower_than_stencil(order):
    width = stencil_width(order)
    with pytest.raises(ValueError, match=f"grid of {width - 1} points .* "
                                         f"order {order}: .* width {width}"):
        _fd.diff_matrix(width - 1, 1 / 16, order)
    assert _fd.diff_matrix(width, 1 / 16, order).shape == (width, width)
    # a periodic stencil wraps around, so it needs no minimum grid
    assert _fd.diff_matrix(width - 1, 1 / 16, order, periodic=True).shape == (
        width - 1, width - 1)


@pytest.mark.parametrize("order", [2, 11, 12])
def test_gauss01_cached_and_read_only(order):
    pts, wts = _fd.gauss01(order)
    assert _fd.gauss01(order)[0] is pts
    raw_pts, raw_wts = np.polynomial.legendre.leggauss(order)
    assert np.array_equal(pts, (raw_pts + 1.0) / 2.0)
    assert np.array_equal(wts, raw_wts / 2.0)
    for arr in (pts, wts):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0


@pytest.mark.parametrize("out_dim", [1, 2])
def test_gauss_newton_on_a_zero_dimensional_domain_stays_put(out_dim):
    # an empty row is a zero row: its minimum-norm step is empty
    assert _fd.min_norm_step(np.zeros((3, out_dim, 0)), np.ones((3, out_dim))).shape == (3, 0)
    x, res = _fd.gauss_newton(lambda x: np.ones((len(x), out_dim)), np.zeros((3, 0)), out_dim)
    assert x.shape == (3, 0)
    assert np.array_equal(res, np.full(3, np.sqrt(out_dim)))


@pytest.mark.parametrize("rel,rank", [(1e-11, 1), (1e-7, 2)])
def test_numerical_rank_decides_outside_the_guard_band(rel, rank):
    # below the band a relative singular value counts as zero, above it as one
    assert _fd.numerical_rank([3.0, 3.0 * rel]) == rank


def test_numerical_rank_raises_inside_the_guard_band():
    with pytest.raises(AmbiguousRankError, match=r"guard band \(1e-10, 1e-08\)"):
        _fd.numerical_rank([3.0, 3.0 * 1e-9])


@pytest.mark.parametrize("s", [[], [0.0], [0.0, 0.0]])
def test_numerical_rank_of_an_empty_or_zero_spectrum_is_zero(s):
    assert _fd.numerical_rank(s) == 0


@pytest.mark.parametrize("n,split", [(9, 3), (8, 2)])
def test_simpson_weights_reject_an_odd_panel_count(n, split):
    # n nodes make n - 1 panels: 3 + 5 fails on the left side, 2 + 5 on the
    # right one
    with pytest.raises(ValueError, match="even panel count per side"):
        _fd.simpson_weights(n, 0.1, split)


def loop_jacobian(fn, x, out_dim, step):
    """Reference: the central-difference Jacobian of one point, column by
    column."""
    jac = np.zeros((out_dim, x.size))
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = step
        jac[:, j] = (np.atleast_1d(fn(x + e)) - np.atleast_1d(fn(x - e))) / (2 * step)
    return jac


def test_jacobian_of_rows_is_the_jacobian_of_each_row():
    def fn(x):
        return np.stack([np.sin(x[..., 0]) * x[..., 1], np.exp(x[..., 1]),
                         x[..., 0] ** 3], axis=-1)

    rng = np.random.default_rng(5)
    xs = rng.uniform(-1, 1, (5, 2))
    steps = 1e-7 * (1.0 + np.linalg.norm(xs, axis=1))
    rows = _fd.jacobian(fn, xs, 3, steps)
    assert rows.shape == (5, 3, 2)
    for x, h, jac in zip(xs, steps, rows):
        assert np.array_equal(jac, _fd.jacobian(fn, x, 3, h))
        assert np.array_equal(jac, loop_jacobian(fn, x, 3, h))
    # one step for every row
    same = _fd.jacobian(fn, xs, 3, 1e-6)
    for x, jac in zip(xs, same):
        assert np.array_equal(jac, loop_jacobian(fn, x, 3, 1e-6))
    assert _fd.jacobian(fn, np.zeros(0), 3, 1e-6).shape == (3, 0)


def test_directional_derivative_rows_equal_one_row_calls():
    def fn(z):  # pointwise: one point in, one value out
        return np.array([np.sin(z[0]) * z[1], np.exp(z[1]), z[0] ** 3])

    x = np.array([0.3, -1.2])
    rows = np.random.default_rng(2).standard_normal((2, 4, 2))
    got = _fd.directional_derivative(fn, x, rows)
    assert got.shape == (2, 4, 3)
    h = _fd.FD_STEP * (1.0 + np.linalg.norm(x))
    for v, row in zip(rows.reshape(-1, 2), got.reshape(-1, 3)):
        assert np.array_equal(row, _fd.directional_derivative(fn, x, v))
        assert np.array_equal(row, (fn(x + h * v) - fn(x - h * v)) / (2.0 * h))


# ---------------------------------------------------------------- check_rows

class Unformattable(str):
    """A callback description that fails the test once it is formatted."""

    def format(self, *args):
        raise AssertionError("check_rows formatted a message on a passing call")


def test_check_rows_never_checks_one_row():
    out = np.zeros((3, 7))
    assert _fd.check_rows(np.zeros(2), out, (5,), Unformattable("f"), arg="x") is out


@pytest.mark.parametrize("out_shape, row_shape", [
    ((4, 3, 5, 2), (5, 2)), ((4, 3, 5, 2), (None, 2)), ((4, 3), ())])
def test_check_rows_returns_a_passing_batch_itself(out_shape, row_shape):
    out = np.zeros(out_shape)
    assert _fd.check_rows(np.zeros((4, 3, 2)), out, row_shape,
                          Unformattable("f"), arg="x") is out


@pytest.mark.parametrize("x_shape, out_shape, row_shape, want", [
    pytest.param((4, 2), (4,), (1,), "(4, 1)", id="ndim"),
    pytest.param((4, 2), (4, 3, 2), (3, 3), "(4, 3, 3)", id="fixed-axis"),
    pytest.param((4, 2), (3, 7, 2), (None, 2), "(4, n, 2)", id="none-axis"),
    pytest.param((5, 2), (2,), (), "(5,)", id="one-axis"),
    pytest.param((144, 2), (2, 2), (None,), "(144, n)", id="free-n"),
])
def test_check_rows_message(x_shape, out_shape, row_shape, want):
    message = (f"section 'fold' returned shape {out_shape} for rows q of shape "
               f"{x_shape}; rows need shape {want}")
    with pytest.raises(ValueError) as err:
        _fd.check_rows(np.zeros(x_shape), np.zeros(out_shape), row_shape,
                       "section {!r}", "fold", arg="q")
    assert str(err.value) == message
