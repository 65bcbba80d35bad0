import numpy as np
import pytest

from waveng.grid import Density, make_grid
from waveng.operators import (
    EllipticSolveConfig,
    EllipticSolveError,
    diff_adjoint_apply,
    diff_apply,
    laplacian_apply,
    laplacian_pinv_apply,
    weighted_elliptic_pinv_apply,
)


def circulant_eigenvalue(n: int, k: int) -> float:
    return 4.0 * n**2 * np.sin(np.pi * k / n) ** 2


class TestDiff:
    def test_constant_maps_to_zero_exactly(self):
        grid = make_grid(1, 32)
        out = diff_apply(grid, np.full(32, 3.7))
        assert np.all(out == 0.0)

    def test_hand_example(self):
        grid = make_grid(1, 4)
        out = diff_apply(grid, np.array([0.0, 1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(out, [4.0, -4.0, 0.0, 0.0])

    def test_periodic_wrap(self):
        grid = make_grid(1, 4)
        out = diff_apply(grid, np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(out, [-4.0, 0.0, 0.0, 4.0])

    def test_eigenvector(self):
        grid = make_grid(1, 64)
        k = 7
        v = np.sin(2 * np.pi * k * np.arange(64) / 64)
        lam = circulant_eigenvalue(64, k)
        dtd = diff_adjoint_apply(grid, diff_apply(grid, v))
        assert np.max(np.abs(dtd - lam * v)) <= 1e-8 * lam

    @pytest.mark.parametrize("dim,axis", [(1, 0), (2, 0), (2, 1)])
    def test_adjoint_pairing(self, dim, axis):
        grid = make_grid(dim, 16)
        rng = np.random.default_rng(21)
        u = rng.standard_normal(grid.total)
        v = rng.standard_normal(grid.total)
        lhs = diff_apply(grid, u, axis) @ v
        rhs = u @ diff_adjoint_apply(grid, v, axis)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            diff_apply(make_grid(1, 8), np.zeros(8), axis=1)
        with pytest.raises(ValueError):
            diff_adjoint_apply(make_grid(2, 4), np.zeros(16), axis=2)


class TestLaplacian:
    def test_constant(self):
        grid = make_grid(2, 8)
        assert np.all(laplacian_apply(grid, np.full(64, 1.23)) == 0.0)

    def test_1d_eigenvector(self):
        grid = make_grid(1, 128)
        k = 11
        v = np.sin(2 * np.pi * k * np.arange(128) / 128)
        lam = circulant_eigenvalue(128, k)
        assert np.max(np.abs(laplacian_apply(grid, v) - lam * v)) <= 1e-8 * lam

    def test_2d_separable_eigenvector(self):
        n, k, m = 32, 3, 9
        grid = make_grid(2, n)
        s = np.arange(n) / n
        v = np.outer(np.sin(2 * np.pi * k * s), np.sin(2 * np.pi * m * s)).ravel()
        lam = circulant_eigenvalue(n, k) + circulant_eigenvalue(n, m)
        out = laplacian_apply(grid, v)
        assert np.max(np.abs(out - lam * v)) <= 1e-8 * lam


class TestLaplacianPinv:
    def test_eigenvector(self):
        grid = make_grid(1, 64)
        k = 5
        v = np.sin(2 * np.pi * k * np.arange(64) / 64)
        lam = circulant_eigenvalue(64, k)
        np.testing.assert_allclose(laplacian_pinv_apply(grid, v), v / lam, atol=1e-10)

    def test_constant_maps_to_zero(self):
        grid = make_grid(1, 32)
        np.testing.assert_allclose(laplacian_pinv_apply(grid, np.full(32, 2.0)), 0.0, atol=1e-14)

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_pinv_identity_on_range(self, dim, n):
        grid = make_grid(dim, n)
        rng = np.random.default_rng(22)
        r = rng.standard_normal(grid.total)
        back = laplacian_apply(grid, laplacian_pinv_apply(grid, r))
        np.testing.assert_allclose(back, r - r.mean(), atol=1e-8)


class TestWeightedPinv:
    def test_zero_rhs(self):
        grid = make_grid(1, 16)
        w = Density(grid, np.full(16, 1 / 16))
        np.testing.assert_array_equal(weighted_elliptic_pinv_apply(w, np.zeros(16)), np.zeros(16))

    def test_constant_rhs(self):
        grid = make_grid(1, 16)
        w = Density(grid, np.full(16, 1 / 16))
        np.testing.assert_allclose(
            weighted_elliptic_pinv_apply(w, np.full(16, 5.0)), np.zeros(16), atol=1e-12
        )

    def test_uniform_weight_reduces_to_scaled_laplacian(self):
        n, k = 64, 6
        grid = make_grid(1, n)
        w = Density(grid, np.full(n, 1.0 / n))
        s = np.sin(2 * np.pi * k * np.arange(n) / n)
        lam = circulant_eigenvalue(n, k)
        rhs = lam * (1.0 / n) * s
        np.testing.assert_allclose(weighted_elliptic_pinv_apply(w, rhs), s, atol=1e-8)

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_residual_and_mean(self, dim, n):
        grid = make_grid(dim, n)
        rng = np.random.default_rng(23)
        wv = rng.uniform(0.5, 2.0, grid.total)
        w = Density(grid, wv / wv.sum())
        rhs = rng.standard_normal(grid.total)
        x = weighted_elliptic_pinv_apply(w, rhs)
        assert abs(x.mean()) <= 1e-12
        # apply the operator directly to check the solve
        lx = np.zeros(grid.total)
        for axis in range(dim):
            lx += diff_adjoint_apply(grid, w.values * diff_apply(grid, x, axis), axis)
        b = rhs - rhs.mean()
        assert np.linalg.norm(lx - b) <= 1e-9 * np.linalg.norm(b)

    def test_symmetry_of_pinv(self):
        grid = make_grid(1, 64)
        rng = np.random.default_rng(24)
        wv = rng.uniform(0.5, 2.0, 64)
        w = Density(grid, wv / wv.sum())
        r1 = rng.standard_normal(64)
        r2 = rng.standard_normal(64)
        r1 -= r1.mean()
        r2 -= r2.mean()
        a = r1 @ weighted_elliptic_pinv_apply(w, r2)
        b = weighted_elliptic_pinv_apply(w, r1) @ r2
        assert abs(a - b) <= 1e-8 * (1.0 + abs(a))

    def test_nonpositive_weight_rejected(self):
        grid = make_grid(1, 16)
        wv = np.full(16, 1 / 16)
        wv[3] = 0.0
        with pytest.raises(ValueError):
            weighted_elliptic_pinv_apply(Density(grid, wv), np.ones(16))

    def test_nonconvergence_reports_residual(self):
        grid = make_grid(1, 64)
        rng = np.random.default_rng(25)
        wv = rng.uniform(0.5, 2.0, 64)
        w = Density(grid, wv / wv.sum())
        cfg = EllipticSolveConfig(rel_tolerance=1e-14, max_iterations=1)
        with pytest.raises(EllipticSolveError) as excinfo:
            weighted_elliptic_pinv_apply(w, rng.standard_normal(64), cfg)
        assert excinfo.value.achieved_residual > 0
        assert excinfo.value.iterations == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EllipticSolveConfig(rel_tolerance=0.0)
