import numpy as np
import pytest

import stencil_reference as ref
from cascade_reference import dense_matrix
from stencil_reference import diff_adjoint_apply, diff_apply
from waveng.grid import Density, make_grid, uniform_density
from waveng.metrics import (
    COARSE_BLOCK,
    MetricInfeasibleError,
    MetricKind,
    build_coarse_block,
    build_precomp,
    metric_apply_fn,
)
from waveng.operators import laplacian_apply
from waveng.wavelets import make_basis


def random_density(grid, rng) -> Density:
    values = rng.uniform(0.5, 1.5, grid.total)
    return Density(grid, values / values.sum())


def dense_diff(grid, axis=0) -> np.ndarray:
    return np.column_stack([diff_apply(grid, col, axis) for col in np.eye(grid.total)])


class TestBuildPrecomp:
    def test_h2_rows_of_scaling_block_haar_n4(self):
        grid = make_grid(1, 4)
        pre = build_precomp(make_basis(grid, order=1))
        # level-2 detail column is [1/2,1/2,-1/2,-1/2]; scaling is constant 1/2
        np.testing.assert_allclose(pre.h2[2].toarray()[0], np.full(4, 0.25), atol=1e-14)
        np.testing.assert_allclose(pre.h2[3].toarray()[0], np.full(4, 0.25), atol=1e-14)

    def test_haar_finest_h3_is_3n_squared(self):
        n = 8
        pre = build_precomp(make_basis(make_grid(1, n), order=1))
        np.testing.assert_allclose(pre.h3[: n // 2], 3.0 * n**2, rtol=1e-12)

    def test_h2_column_sums_one(self):
        for dim, n in [(1, 64), (2, 8)]:
            pre = build_precomp(make_basis(make_grid(dim, n), order=2))
            sums = [pre.diagonals(e, h1=False)[1].sum() for e in np.eye(n**dim)]
            np.testing.assert_allclose(sums, 1.0, atol=1e-10)

    def test_h2_of_uniform_density(self):
        grid = make_grid(1, 64)
        pre = build_precomp(make_basis(grid, order=3))
        out = pre.h2 @ uniform_density(grid).values
        np.testing.assert_allclose(out, 1.0 / 64, atol=1e-12)

    def test_h3_equals_h1_row_sums(self):
        for dim, n in [(1, 32), (2, 8)]:
            pre = build_precomp(make_basis(make_grid(dim, n), order=2))
            np.testing.assert_allclose(
                pre.h3_diagonal(), pre.diagonals(np.ones(n**dim), h2=False)[0], atol=1e-10
            )

    def test_constant_column_rows_exactly_zero(self):
        pre = build_precomp(make_basis(make_grid(1, 64), order=3))
        assert pre.h1[63].nnz == 0
        assert pre.h3[63] == 0.0
        pre2 = build_precomp(make_basis(make_grid(2, 16), order=3))
        p = random_density(pre2.basis.grid, np.random.default_rng(39)).values
        assert pre2.diagonals(p)[0][-1] == 0.0
        assert pre2.h3_diagonal()[-1] == 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("order", range(1, 11))
    def test_h1_h3_match_row_shift_bitwise(self, order, dim):
        # DW from the difference matrix against n (next row of W - W); the
        # whole of H1 is compared, the rows built from D's wrap row included
        for n in (8, 16, 32, 64, 128, 256, 512):
            basis = make_basis(make_grid(dim, n), order=order)
            pre = build_precomp(basis)
            h1, h3 = ref.h1_h3(basis.matrix)
            assert pre.h1.nnz == h1.nnz
            np.testing.assert_array_equal(pre.h1.toarray(), h1.toarray())
            np.testing.assert_array_equal(pre.h3, h3)

    @pytest.mark.parametrize("n,order", [(4, 10), (16, 3), (512, 1), (512, 10), (4096, 3)])
    def test_h2_is_squared_transpose_bitwise(self, n, order):
        basis = make_basis(make_grid(1, n), order=order)
        h2, w = build_precomp(basis).h2, basis.matrix
        want = w.multiply(w).T.tocsr()
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(h2, part), getattr(want, part))

    @pytest.mark.parametrize("order", range(1, 11))
    def test_2d_dense_copies_equal_csr(self, order):
        basis = make_basis(make_grid(2, 8), order=order)
        pre = build_precomp(basis)
        np.testing.assert_array_equal(basis.synthesis, basis.matrix.toarray())
        np.testing.assert_array_equal(basis.analysis, basis.matrix.T.toarray())
        for dense, stored in zip(pre.factors, (pre.h1, pre.h2)):
            np.testing.assert_array_equal(dense, stored.toarray())

    def test_compared_and_hashed_by_identity(self):
        # a field-wise == compared the CSR factors elementwise and raised
        basis = make_basis(make_grid(2, 8), order=2)
        a, b = build_precomp(basis), build_precomp(basis)
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_entries_nonnegative(self):
        pre = build_precomp(make_basis(make_grid(1, 32), order=2))
        assert pre.h1.data.min() >= 0 and pre.h2.data.min() >= 0 and pre.h3.min() >= 0


class TestDiagonalIdentities:
    """Brute-force check of the diagonal construction on small grids."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_1d(self, n, order):
        rng = np.random.default_rng(40 + n + order)
        grid = make_grid(1, n)
        basis = make_basis(grid, order=order)
        pre = build_precomp(basis)
        w = dense_matrix(basis)
        p = random_density(grid, rng).values
        d = dense_diff(grid)
        np.testing.assert_allclose(
            pre.h1 @ p, np.diag(w.T @ d.T @ np.diag(p) @ d @ w), atol=1e-10
        )
        np.testing.assert_allclose(pre.h2 @ p, np.diag(w.T @ np.diag(p) @ w), atol=1e-10)
        lap = np.column_stack([laplacian_apply(grid, w[:, i]) for i in range(n)])
        np.testing.assert_allclose(pre.h3, np.diag(w.T @ lap), atol=1e-10)

    def test_2d(self):
        rng = np.random.default_rng(41)
        for n in (8, 16):
            grid = make_grid(2, n)
            basis = make_basis(grid, order=2)
            pre = build_precomp(basis)
            w = dense_matrix(basis)
            p = random_density(grid, rng).values
            d1, d2 = dense_diff(grid, 0), dense_diff(grid, 1)
            weighted = d1.T @ np.diag(p) @ d1 + d2.T @ np.diag(p) @ d2
            h1p, h2p = pre.diagonals(p)
            np.testing.assert_allclose(h1p, np.diag(w.T @ weighted @ w), atol=1e-10)
            np.testing.assert_allclose(h2p, np.diag(w.T @ np.diag(p) @ w), atol=1e-10)
            lap = np.column_stack([laplacian_apply(grid, w[:, i]) for i in range(grid.total)])
            np.testing.assert_allclose(pre.h3_diagonal(), np.diag(w.T @ lap), atol=1e-10)

    @pytest.mark.parametrize("order", [1, 2, 3, 6, 10])
    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_2d_tensor_rule_matches_hand_products_bitwise(self, n, order):
        grid = make_grid(2, n)
        pre = build_precomp(make_basis(grid, order=order))
        p = random_density(grid, np.random.default_rng(52 + n + order)).values
        want = ref.diagonals_2d(pre.h1.toarray(), pre.h2.toarray(), p)
        for got, expected in zip(pre.diagonals(p), want):
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(pre.h3_diagonal(), np.add.outer(pre.h3, pre.h3).ravel())

    @pytest.mark.parametrize("dim,n", [(1, 16), (1, 64), (2, 4), (2, 16), (2, 64)])
    def test_h1_h2_apply_is_both_diagonals_bitwise(self, dim, n):
        # H2 P is formed once for both 2D diagonals; for every flag pattern
        # each diagonal asked for is bit for bit the hand product, the other None
        grid = make_grid(dim, n)
        pre = build_precomp(make_basis(grid))
        p = random_density(grid, np.random.default_rng(57 + n)).values
        if dim == 1:
            want = (pre.h1 @ p, pre.h2 @ p)
        else:
            want = ref.diagonals_2d(pre.h1.toarray(), pre.h2.toarray(), p)
        for flags in [(True, False), (False, True), (True, True)]:
            for got, expected, asked in zip(pre.diagonals(p, *flags), want, flags):
                if asked:
                    assert got.tobytes() == expected.tobytes()
                else:
                    assert got is None


class TestScaling:
    def test_nnz_growth_order2(self):
        counts = {}
        for n in (256, 512, 1024):
            pre = build_precomp(make_basis(make_grid(1, n), order=2))
            counts[n] = pre.h1.nnz + pre.h2.nnz
            assert counts[n] <= 8 * n * np.log2(n)
        assert counts[512] / counts[256] <= 2.3
        assert counts[1024] / counts[512] <= 2.3


class TestCombinedMetric:
    def test_zero_gradient(self):
        grid = make_grid(1, 32)
        pre = build_precomp(make_basis(grid, order=2))
        p = uniform_density(grid)
        metric = metric_apply_fn(MetricKind.COMBINED, grid, precomp=pre, alphas=(1.0, 1e-3, 1e-4))
        out = metric(p, np.zeros(32), p)
        np.testing.assert_allclose(out, 0.0, atol=1e-16)

    def test_fisher_rao_limit_at_uniform(self):
        # alpha = (0,1,0) at uniform p: H2 p = 1/total, metric = I/total
        grid = make_grid(1, 64)
        pre = build_precomp(make_basis(grid, order=2))
        rng = np.random.default_rng(42)
        g = rng.standard_normal(64)
        p = uniform_density(grid)
        out = metric_apply_fn(MetricKind.COMBINED, grid, precomp=pre, alphas=(0.0, 1.0, 0.0))(p, g, p)
        np.testing.assert_allclose(out, g / 64, atol=1e-12)
        fisher_rao = metric_apply_fn(MetricKind.FISHER_RAO, grid)
        np.testing.assert_allclose(out, fisher_rao(p, g, p), atol=1e-12)

    def test_mass_freezing_alpha1(self):
        grid = make_grid(1, 64)
        pre = build_precomp(make_basis(grid, order=3))
        rng = np.random.default_rng(43)
        p = random_density(grid, rng)
        g = rng.standard_normal(64)
        out = metric_apply_fn(MetricKind.COMBINED, grid, precomp=pre, alphas=(1.0, 1e-3, 1e-4))(p, g, p)
        assert abs(out.sum()) <= 1e-10

    def test_pseudo_inverse_convention_alpha3_only(self):
        # d is exactly 0 on the constant slot when only the Laplacian term
        # is active; that slot must be annihilated, not amplified
        grid = make_grid(1, 32)
        pre = build_precomp(make_basis(grid, order=2))
        rng = np.random.default_rng(44)
        p = random_density(grid, rng)
        g = rng.standard_normal(32)
        out = metric_apply_fn(MetricKind.COMBINED, grid, precomp=pre, alphas=(0.0, 0.0, 1.0))(p, g, p)
        assert np.all(np.isfinite(out))
        assert abs(out.sum()) <= 1e-10

    def test_rejects_nonpositive_density(self):
        grid = make_grid(1, 32)
        pre = build_precomp(make_basis(grid, order=2))
        values = np.full(32, 1 / 32)
        values[5] = 0.0
        metric = metric_apply_fn(MetricKind.COMBINED, grid, precomp=pre, alphas=(1.0, 0.0, 0.0))
        with pytest.raises(MetricInfeasibleError):
            metric(Density(grid, values), np.ones(32), uniform_density(grid))


def dense_factors(basis) -> tuple[np.ndarray, list[np.ndarray]]:
    """The dense basis matrix, kron(W, W) in 2D, and the dense D_a, Kronecker-assembled in 2D."""
    n = basis.grid.n
    w1 = basis.matrix.toarray()
    dif = dense_diff(make_grid(1, n))
    if basis.grid.dim == 1:
        return w1, [dif]
    eye = np.eye(n)
    return np.kron(w1, w1), [np.kron(dif, eye), np.kron(eye, dif)]


def kron_combined_oracle(basis, alphas, p: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(direction, scale) of W diag(1/d) W^T g from the dense basis and D_a.

    d holds the diagonals of the wavelet-transformed Hessian blocks, with
    1/(+inf) = 0 and 1/0 := 0.
    """
    grid = basis.grid
    w, ds = dense_factors(basis)
    a1, a2, a3 = alphas
    d = np.zeros(grid.total)
    with np.errstate(divide="ignore"):
        if a1 > 0:
            d += a1 / np.diag(w.T @ sum(da.T @ np.diag(p) @ da for da in ds) @ w)
        if a2 > 0:
            d += a2 / np.diag(w.T @ np.diag(p) @ w)
        d += a3 * np.diag(w.T @ sum(da.T @ da for da in ds) @ w)
        scale = np.where(d > 0.0, 1.0 / d, 0.0)
    return w @ (scale * (w.T @ g)), scale


class TestCombinedMetric2D:
    """The 2D combined metric, applied by dense two-sided products, against a Kronecker oracle."""

    @pytest.mark.parametrize("alphas", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                                        (1.0, 1e-3, 1e-4)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_matches_kron_oracle(self, n, order, alphas):
        grid = make_grid(2, n)
        basis = make_basis(grid, order=order)
        pre = build_precomp(basis)
        rng = np.random.default_rng(60 + n + order)
        p = random_density(grid, rng)
        g = rng.standard_normal(grid.total)
        got = metric_apply_fn(
            MetricKind.COMBINED, grid, precomp=pre, alphas=alphas, coarse_block=0
        )(p, g, p)
        want, scale = kron_combined_oracle(basis, alphas, p.values, g)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        coeffs = basis.matrix.toarray().T @ got.reshape(n, n) @ basis.matrix.toarray()
        if alphas[0] == alphas[1] == 0.0:
            # the constant slot has d = 0: 1/0 := 0, not an overflow
            assert scale[-1] == 0.0
            assert abs(coeffs[-1, -1]) <= 1e-14 * np.abs(coeffs).max()
        if alphas[0] > 0:
            # d = +inf on the constant slot freezes the mass
            assert abs(got.sum()) <= 1e-14 * np.abs(got).sum()

    def test_binds_share_the_dense_factors(self):
        grid = make_grid(2, 16)
        basis = make_basis(grid, order=3)
        pre = build_precomp(basis)

        def factors():
            return [basis.synthesis, basis.analysis, *pre.factors]

        before = factors()
        rng = np.random.default_rng(61)
        p = random_density(grid, rng)
        for alphas in [(1.0, 1e-3, 1e-4), (0.0, 1.0, 1e-4)]:
            metric_apply_fn(MetricKind.COMBINED, grid, precomp=pre, alphas=alphas)(
                p, rng.standard_normal(grid.total), p
            )
        csr = [basis.matrix, basis.matrix.T, pre.h1, pre.h2]
        for old, new, stored in zip(before, factors(), csr):
            assert new is old
            assert isinstance(new, np.ndarray)
            assert not new.flags.writeable and new.flags.c_contiguous
            np.testing.assert_array_equal(new, stored.toarray())
        np.testing.assert_array_equal(basis.analysis, basis.synthesis.T)
        # 1D applies the stored CSR factors themselves
        basis_1d = make_basis(make_grid(1, 16), order=3)
        pre_1d = build_precomp(basis_1d)
        assert basis_1d.synthesis is basis_1d.matrix and basis_1d.analysis.format == "csr"
        np.testing.assert_array_equal(basis_1d.analysis.toarray(), basis_1d.matrix.T.toarray())
        h1_1d, h2_1d = pre_1d.factors
        assert h1_1d is pre_1d.h1 and h2_1d is pre_1d.h2


def coarse_oracle(basis, alphas, mu: np.ndarray, m: int, drops: bool):
    """(indices, B1, B2, B3, H_c^-1) from the dense E_c^T (.) E_c.

    E_c holds the dense basis columns of the last m indices per axis, the
    2D ones the Kronecker products W[:, i] (x) W[:, j] (column i n + j of
    kron(W, W)), without the constant column, the last, when `drops`.
    """
    n = basis.grid.n
    corner = np.arange(n - m, n)
    indices = corner if basis.grid.dim == 1 else (corner[:, None] * n + corner).ravel()
    if drops:
        indices = indices[:-1]
    w, ds = dense_factors(basis)
    e = w[:, indices]
    b1 = e.T @ sum(da.T @ np.diag(mu) @ da for da in ds) @ e
    b2 = e.T @ np.diag(mu) @ e
    b3 = e.T @ sum(da.T @ da for da in ds) @ e
    a1, a2, a3 = alphas
    h = a3 * b3 + sum(a * np.linalg.inv(b) for a, b in ((a1, b1), (a2, b2)) if a > 0)
    return indices, b1, b2, b3, np.linalg.inv(h)


# (alphas, whether the block drops the constant column)
COARSE_ALPHAS = [
    ((1.0, 0.0, 0.0), True),
    ((1.0, 1e-3, 1e-4), True),
    ((1.0, 0.0, 1e-4), True),
    ((1.0, 3e-4, 0.0), True),
    ((0.0, 1e-3, 1e-4), False),
    ((0.0, 1.0, 0.0), False),
    ((0.0, 0.0, 1.0), True),
]


class TestCoarseBlock:
    """The two-level combined metric's coarse block against a dense E_c^T (.) E_c build."""

    @pytest.mark.parametrize("alphas,drops", COARSE_ALPHAS)
    @pytest.mark.parametrize("m", [4, 16])
    @pytest.mark.parametrize("dim,n", [(1, 16), (1, 32), (2, 8), (2, 16)])
    def test_matches_dense_oracle(self, dim, n, m, alphas, drops):
        grid = make_grid(dim, n)
        basis = make_basis(grid, order=3)
        pre = build_precomp(basis)
        rng = np.random.default_rng(70 + 7 * dim + n + m)
        p, mu = random_density(grid, rng), random_density(grid, rng)
        g = rng.standard_normal(grid.total)
        block = build_coarse_block(pre, mu, alphas, m)
        indices, b1, b2, b3, inverse = coarse_oracle(basis, alphas, mu.values, min(m, n), drops)
        np.testing.assert_array_equal(block.indices, indices)
        np.testing.assert_allclose(block.inverse, inverse, rtol=0, atol=1e-10 * np.abs(inverse).max())
        # a one-hot alpha leaves one block: H_c^-1 is B1, B2 or B3^-1
        one_hot = {(1.0, 0.0, 0.0): b1, (0.0, 1.0, 0.0): b2, (0.0, 0.0, 1.0): b3}
        if alphas in one_hot:
            got = np.linalg.inv(block.inverse) if alphas[2] else block.inverse
            want = one_hot[alphas]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())
        np.testing.assert_array_equal(block.inverse, block.inverse.T)
        metric = metric_apply_fn(MetricKind.COMBINED, grid, precomp=pre, alphas=alphas, coarse_block=m)
        got = metric(p, g, mu)
        w, _ = dense_factors(basis)
        c = w.T @ g
        coefficients = kron_combined_oracle(basis, alphas, p.values, g)[1] * c
        coefficients[indices] = inverse @ c[indices]
        want = w @ coefficients
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())
        if alphas[0] > 0:
            assert abs(got.sum()) <= 1e-14 * np.abs(got).sum()

    def test_cached_read_only_and_shared(self):
        grid = make_grid(2, 16)
        pre = build_precomp(make_basis(grid))
        mu = random_density(grid, np.random.default_rng(71))
        alphas = (1.0, 1e-3, 1e-4)
        block = build_coarse_block(pre, mu, alphas, 16)
        assert build_coarse_block(pre, mu, alphas, 16) is block
        for array in (block.indices, block.inverse):
            with pytest.raises(ValueError):
                array.flat[0] += 1
        # a metric bound for the same run applies that very block
        metric = metric_apply_fn(MetricKind.COMBINED, grid, precomp=pre, alphas=alphas)
        metric(mu, np.ones(grid.total), mu)
        assert build_coarse_block(pre, mu, alphas, COARSE_BLOCK) is block

    def test_checks_arguments_before_the_cache(self):
        # a warm cache used to answer these with the block cached for equal keys
        grid = make_grid(1, 32)
        pre = build_precomp(make_basis(grid))
        mu = random_density(grid, np.random.default_rng(72))
        alphas = (1.0, 1e-3, 0.0)
        build_coarse_block(pre, mu, alphas, 16)
        with pytest.raises(ValueError, match="alphas must be finite and nonnegative"):
            build_coarse_block(pre, mu, (True, 1e-3, 0.0), 16)
        with pytest.raises(ValueError, match="coarse_block"):
            build_coarse_block(pre, mu, alphas, 16.0)
        build_coarse_block(pre, mu, alphas, 1)
        with pytest.raises(ValueError, match="coarse_block"):
            build_coarse_block(pre, mu, alphas, True)
        # a list or an array of alphas keys like the tuple
        block = build_coarse_block(pre, mu, alphas, 16)
        assert build_coarse_block(pre, mu, list(alphas), 16) is block
        assert build_coarse_block(pre, mu, np.array(alphas), 16) is block

    @pytest.mark.parametrize("bad", [-1, True, 1.5, "16", None])
    def test_rejects_bad_block_size(self, bad):
        grid = make_grid(1, 16)
        with pytest.raises(ValueError, match="coarse_block"):
            metric_apply_fn(MetricKind.COMBINED, grid, precomp=build_precomp(make_basis(grid)),
                            alphas=(1.0, 1e-3, 1e-4), coarse_block=bad)

    @pytest.mark.parametrize("kind", [k for k in MetricKind if k is not MetricKind.COMBINED])
    def test_baselines_ignore_block_size(self, kind):
        grid = make_grid(1, 16)
        mu = uniform_density(grid)
        metric = metric_apply_fn(kind, grid, coarse_block=-1)
        assert metric(mu, np.ones(16), mu).shape == (16,)

    def test_builder_rejects_bad_input(self):
        grid = make_grid(1, 16)
        pre = build_precomp(make_basis(grid))
        mu = uniform_density(grid)
        with pytest.raises(ValueError, match="integer >= 1"):
            build_coarse_block(pre, mu, (1.0, 1e-3, 1e-4), 0)
        with pytest.raises(ValueError, match="grid"):
            build_coarse_block(pre, uniform_density(make_grid(2, 4)), (1.0, 1e-3, 1e-4), 16)
        with pytest.raises(ValueError, match="positive"):
            build_coarse_block(pre, mu, (0.0, 0.0, 0.0), 16)

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_bound_metric_checks_mu(self, kind):
        # mu is checked like p: a Density on the metric's grid
        grid = make_grid(1, 16)
        metric = metric_apply_fn(kind, grid, precomp=build_precomp(make_basis(grid)),
                                 alphas=(1.0, 1e-3, 1e-4))
        p = uniform_density(grid)
        with pytest.raises(TypeError, match="mu must be a Density, got ndarray"):
            metric(p, np.ones(16), p.values)
        with pytest.raises(ValueError, match="mu grid"):
            metric(p, np.ones(16), uniform_density(make_grid(2, 4)))

    def test_mu_not_strictly_positive_is_infeasible(self):
        grid = make_grid(1, 16)
        values = np.full(16, 1 / 16)
        values[3] = 0.0
        metric = metric_apply_fn(MetricKind.COMBINED, grid, precomp=build_precomp(make_basis(grid)),
                                 alphas=(1.0, 1e-3, 1e-4))
        with pytest.raises(MetricInfeasibleError):
            metric(uniform_density(grid), np.ones(16), Density(grid, values))

    def test_paper_metric_ignores_mu(self):
        # coarse_block = 0 is the paper's diagonal at p alone
        grid = make_grid(2, 8)
        pre = build_precomp(make_basis(grid))
        rng = np.random.default_rng(72)
        p, g = random_density(grid, rng), rng.standard_normal(grid.total)
        metric = metric_apply_fn(MetricKind.COMBINED, grid, precomp=pre, alphas=(1.0, 1e-3, 1e-4),
                                 coarse_block=0)
        a, b = (metric(p, g, random_density(grid, rng)) for _ in range(2))
        assert a.tobytes() == b.tobytes()


class TestWassersteinMetric:
    def test_constant_gradient_exact_zero(self):
        grid = make_grid(1, 32)
        p = uniform_density(grid)
        metric = metric_apply_fn(MetricKind.WASSERSTEIN, grid)
        assert np.all(metric(p, np.full(32, 4.2), p) == 0.0)

    def test_uniform_density_eigenvector(self):
        n, k = 64, 4
        grid = make_grid(1, n)
        p = uniform_density(grid)
        s = np.sin(2 * np.pi * k * np.arange(n) / n)
        lam = 4 * n**2 * np.sin(np.pi * k / n) ** 2
        out = metric_apply_fn(MetricKind.WASSERSTEIN, grid)(p, s, p)
        np.testing.assert_allclose(out, (lam / n) * s, atol=1e-8 * lam / n)

    def test_positive_semidefinite(self):
        grid = make_grid(2, 8)
        rng = np.random.default_rng(45)
        p = random_density(grid, rng)
        metric = metric_apply_fn(MetricKind.WASSERSTEIN, grid)
        for _ in range(20):
            g = rng.standard_normal(grid.total)
            assert g @ metric(p, g, p) >= 0.0

    def test_matches_stencil_composition(self):
        grid = make_grid(2, 8)
        rng = np.random.default_rng(46)
        p = random_density(grid, rng)
        g = rng.standard_normal(64)
        want = np.zeros(64)
        for axis in range(2):
            want += diff_adjoint_apply(grid, p.values * diff_apply(grid, g, axis), axis)
        metric = metric_apply_fn(MetricKind.WASSERSTEIN, grid)
        np.testing.assert_allclose(metric(p, g, p), want, atol=1e-10)


class TestFisherRaoMetric:
    def test_ones_returns_density(self):
        grid = make_grid(1, 16)
        rng = np.random.default_rng(47)
        p = random_density(grid, rng)
        metric = metric_apply_fn(MetricKind.FISHER_RAO, grid)
        np.testing.assert_array_equal(metric(p, np.ones(16), p), p.values)

    def test_entrywise_oracle(self):
        rng = np.random.default_rng(48)
        grid = make_grid(1, 32)
        p = Density(grid, rng.uniform(0.1, 1.0, 32))
        g = rng.standard_normal(32)
        metric = metric_apply_fn(MetricKind.FISHER_RAO, grid)
        np.testing.assert_array_equal(metric(p, g, p), p.values * g)


class TestMahalanobisMetric:
    def test_constant_to_zero(self):
        grid = make_grid(1, 32)
        metric = metric_apply_fn(MetricKind.MAHALANOBIS, grid)
        u = uniform_density(grid)
        np.testing.assert_allclose(metric(u, np.full(32, 1.5), u), 0.0, atol=1e-14)

    def test_eigenvector(self):
        n, k = 64, 3
        grid = make_grid(1, n)
        s = np.sin(2 * np.pi * k * np.arange(n) / n)
        lam = 4 * n**2 * np.sin(np.pi * k / n) ** 2
        metric = metric_apply_fn(MetricKind.MAHALANOBIS, grid)
        u = uniform_density(grid)
        np.testing.assert_allclose(metric(u, s, u), s / lam, atol=1e-8)

    def test_pinv_identity(self):
        grid = make_grid(2, 16)
        rng = np.random.default_rng(49)
        g = rng.standard_normal(256)
        metric = metric_apply_fn(MetricKind.MAHALANOBIS, grid)
        u = uniform_density(grid)
        back = laplacian_apply(grid, metric(u, g, u))
        np.testing.assert_allclose(back, g - g.mean(), atol=1e-8)


class TestMetricProperties:
    """Symmetry and positive semidefiniteness across all four metrics."""

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_symmetry_and_psd(self, kind):
        grid = make_grid(1, 64)
        pre = build_precomp(make_basis(grid, order=2))
        alphas = (1.0, 1e-3, 1e-4)
        metric = metric_apply_fn(kind, grid, precomp=pre, alphas=alphas)
        rng = np.random.default_rng(50)
        p = random_density(grid, rng)
        for _ in range(50):
            g1 = rng.standard_normal(64)
            g2 = rng.standard_normal(64)
            m1, m2 = metric(p, g1, p), metric(p, g2, p)
            lhs, rhs = g1 @ m2, m1 @ g2
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
            quad = g1 @ m1
            assert quad >= -1e-12 * (g1 @ g1)

    def test_combined_strictly_positive_off_frozen_modes(self):
        grid = make_grid(1, 32)
        basis = make_basis(grid, order=2)
        pre = build_precomp(basis)
        rng = np.random.default_rng(51)
        p = random_density(grid, rng)
        metric = metric_apply_fn(MetricKind.COMBINED, grid, precomp=pre, alphas=(1.0, 0.0, 0.0))
        for _ in range(20):
            g = rng.standard_normal(32)
            g -= g.mean()  # no component on the frozen constant mode
            assert g @ metric(p, g, p) > 0.0

    def test_dispatcher_requires_precomp(self):
        with pytest.raises(ValueError):
            metric_apply_fn(MetricKind.COMBINED, make_grid(1, 16))

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, True, False, np.True_])
    def test_dispatcher_rejects_bad_alpha(self, slot, bad):
        # checked as LossSpec checks them: a nan or negative alpha used to
        # drop its term silently (a1 > 0 is False for both), and a bool
        # was taken as a weight
        grid = make_grid(1, 16)
        alphas = [1.0, 1e-3, 1e-4]
        alphas[slot] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            metric_apply_fn(MetricKind.COMBINED, grid, precomp=build_precomp(make_basis(grid)),
                            alphas=tuple(alphas))

    @pytest.mark.parametrize("alphas", [(1.0, 0.0), (1.0, 0.0, 0.0, 5.0)])
    def test_dispatcher_rejects_wrong_alpha_count(self, alphas):
        # two alphas used to fail to unpack inside the bound helper, and a
        # fourth was ignored
        grid = make_grid(1, 16)
        with pytest.raises(ValueError, match="three alphas are needed"):
            metric_apply_fn(MetricKind.COMBINED, grid, precomp=build_precomp(make_basis(grid)),
                            alphas=alphas)

    def test_dispatcher_rejects_all_zero_alphas(self):
        # used to stall every descent with "non-descent direction"
        grid = make_grid(1, 16)
        with pytest.raises(ValueError, match="positive"):
            metric_apply_fn(MetricKind.COMBINED, grid, precomp=build_precomp(make_basis(grid)),
                            alphas=(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_bound_metric_rejects_bare_array(self, kind):
        # a bare array carries no grid, so neither a 32-site nor a 16-site
        # array may pass for a density on the bound 32-site grid
        grid = make_grid(1, 32)
        metric = metric_apply_fn(kind, grid, precomp=build_precomp(make_basis(grid)),
                                 alphas=(1.0, 1e-3, 1e-4))
        for values in (np.full(32, 1 / 32), np.full(16, 1 / 16)):
            with pytest.raises(TypeError, match="Density"):
                metric(values, np.ones(values.size), uniform_density(grid))

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_rejects_gradient_of_wrong_length(self, kind):
        grid = make_grid(1, 32)
        metric = metric_apply_fn(kind, grid, precomp=build_precomp(make_basis(grid)),
                                 alphas=(1.0, 1e-3, 1e-4))
        for g in (np.ones(16), np.ones(64), np.ones((32, 1))):
            with pytest.raises(ValueError, match="shape"):
                metric(uniform_density(grid), g, uniform_density(grid))

    def test_dispatcher_rejects_precomp_of_another_grid(self):
        # same site count (16): a 1D n = 16 basis bound to a 2D 4 x 4 grid
        pre = build_precomp(make_basis(make_grid(1, 16)))
        with pytest.raises(ValueError, match="grid"):
            metric_apply_fn(MetricKind.COMBINED, make_grid(2, 4), precomp=pre, alphas=(1.0, 0.0, 0.0))
