"""Property tests of the sparse basis matrix and the H1/H2/h3 factors.

Draws n in {4, ..., 256} and Daubechies orders 1-10, and checks W against
the per-tap cascade in `cascade_reference`, orthogonality and the round
trip, the Hessian diagonals against the dense diag(W^T M W) oracle, and the
exactly empty constant row of H1.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascade_reference import dense_matrix, loop_matrix
from stencil_reference import diff_apply
from waveng.grid import make_grid
from waveng.metrics import build_precomp
from waveng.operators import laplacian_apply
from waveng.wavelets import make_basis, transform_forward, transform_inverse

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def bases(draw, max_log2n=8, dims=(1,)):
    """(dim, n, order)."""
    dim = draw(st.sampled_from(dims))
    log2n = draw(st.integers(2, max_log2n))
    return dim, 2**log2n, draw(st.integers(1, 10))


@PROPERTY_SETTINGS
@given(bases())
@example((1, 256, 10))
@example((1, 4, 10))
def test_matrix_matches_cascade(case):
    _, n, order = case
    w = make_basis(make_grid(1, n), order=order).matrix.toarray()
    assert np.max(np.abs(w - loop_matrix(n, order))) <= 1e-13


@PROPERTY_SETTINGS
@given(bases(dims=(1, 2)), st.integers(0, 2**32 - 1))
def test_orthogonal_with_exact_round_trip(case, seed):
    dim, n, order = case
    basis = make_basis(make_grid(dim, n), order=order)
    w = basis.matrix.toarray()
    assert np.max(np.abs(w.T @ w - np.eye(n))) <= 1e-12
    v = np.random.default_rng(seed).standard_normal(n**dim)
    c = transform_forward(basis, v)
    assert abs(np.linalg.norm(c) - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)
    assert np.max(np.abs(transform_inverse(basis, c) - v)) <= 1e-12 * np.max(np.abs(v))


@PROPERTY_SETTINGS
@given(bases(dims=(1, 2), max_log2n=4), st.integers(0, 2**32 - 1))
@example((2, 16, 10), 0)
def test_diagonals_match_dense_oracle(case, seed):
    dim, n, order = case
    grid = make_grid(dim, n)
    basis = make_basis(grid, order=order)
    pre = build_precomp(basis)
    w = dense_matrix(basis)
    p = np.random.default_rng(seed).uniform(0.5, 1.5, grid.total)
    transport = np.zeros((grid.total, grid.total))
    for axis in range(dim):
        d = np.column_stack([diff_apply(grid, col, axis) for col in np.eye(grid.total)])
        transport += d.T @ np.diag(p) @ d
    lap = np.column_stack([laplacian_apply(grid, col) for col in w.T])
    want_h1 = np.diag(w.T @ transport @ w)
    np.testing.assert_allclose(pre.h1_apply(p), want_h1, rtol=1e-10, atol=1e-10 * want_h1.max())
    np.testing.assert_allclose(pre.h2_apply(p), np.diag(w.T @ np.diag(p) @ w), rtol=1e-10, atol=1e-14)
    want_h3 = np.diag(w.T @ lap)
    np.testing.assert_allclose(pre.h3_diagonal(), want_h3, rtol=1e-10, atol=1e-10 * want_h3.max())


@PROPERTY_SETTINGS
@given(st.integers(2, 8), st.integers(1, 10))
def test_constant_row_of_h1_is_empty_at_full_depth(log2n, order):
    n = 2**log2n
    pre = build_precomp(make_basis(make_grid(1, n), order=order))
    assert pre.h1[n - 1].nnz == 0
    assert pre.h3[n - 1] == 0.0
    np.testing.assert_array_equal(pre.basis.matrix[:, [n - 1]].toarray(), 1.0 / np.sqrt(n))
