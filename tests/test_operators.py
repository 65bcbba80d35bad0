import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stencil_reference as ref
from stencil_reference import axis_apply, diff_adjoint_apply, diff_apply, random_factor
from waveng import operators
from waveng.experiments import build_potential
from waveng.grid import Density, make_grid, reference_measure, uniform_density
from waveng.losses import LossSpec, combined_eval
from waveng.metrics import MetricKind, build_precomp, metric_apply_fn
from waveng.operators import (
    COARSE_WAVENUMBER,
    DENSE_PLAN_MAX_N,
    EllipticSolveConfig,
    EllipticSolveError,
    laplacian_apply,
    laplacian_pinv_apply,
    symmetric_inverse,
    weighted_elliptic_pinv_apply,
    weighted_flux_apply,
)
from waveng.optimizer import DescentConfig, run_descent
from waveng.wavelets import make_basis

ROOT = Path(__file__).resolve().parents[1]


def load_script(path: Path):
    """The module at path, loaded from its file and not added to sys.modules."""
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the BLAS/OpenMP thread variables, one list with the byte-check tool
THREAD_VARS = load_script(ROOT / "tools" / "preset_digests.py").THREAD_VARS


def test_thread_variables_are_the_ones_the_benchmark_pins():
    assert THREAD_VARS == load_script(ROOT / "perfbench" / "common.py").THREAD_VARS


# (dim, n) grids for the stencil checks, from the smallest grid to the preset sizes
STENCIL_CASES = [
    (1, 4), (1, 8), (1, 64), (1, 512), (2, 4), (2, 8), (2, 16), (2, 64), (2, 128),
]

# (dim, n, input) cases of the byte-exact stencil checks: a standard normal
# input at every size, then at every size zeros of both signs and a normal
# input scaled into the subnormal range, and a normal input on the wrap
# sites alone, whose entries the shifts redo by hand: site 0 or site n - 1
# of a 1D grid, row 0 or column 0 of a 2D one
WRAP_KINDS = {1: ("site-0", "site-last"), 2: ("row-0", "column-0")}
BYTE_CASES = [pytest.param(dim, n, "normal", id=f"{dim}-{n}") for dim, n in STENCIL_CASES] + [
    pytest.param(dim, n, kind, id=f"{dim}-{n}-{kind}")
    for kind in ("signed-zeros", "subnormal", "row-0", "column-0", "site-0", "site-last")
    for dim, n in STENCIL_CASES
    if kind in ("signed-zeros", "subnormal") + WRAP_KINDS[dim]
]


def stencil_input(grid, kind: str, seed: int) -> np.ndarray:
    """A site vector of one BYTE_CASES kind."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(grid.total)
    if kind == "signed-zeros":
        return np.where(x < 0.0, -0.0, 0.0)
    if kind == "subnormal":
        return np.ldexp(x, -1060)
    if kind == "row-0":
        x.reshape(grid.shape)[1:] = 0.0
    if kind == "column-0":
        x.reshape(grid.shape)[:, 1:] = 0.0
    if kind == "site-0":
        x[1:] = 0.0
    if kind == "site-last":
        x[:-1] = 0.0
    return x


def circulant_eigenvalue(n: int, k: int) -> float:
    return 4.0 * n**2 * np.sin(np.pi * k / n) ** 2


def dense_weighted_laplacian(grid, wv: np.ndarray) -> np.ndarray:
    """sum_a D_a^T diag(w) D_a as a dense matrix, built column by column from diff_apply."""
    eye = np.eye(grid.total)
    dense = np.zeros((grid.total, grid.total))
    for axis in range(grid.dim):
        d = np.array([diff_apply(grid, e, axis) for e in eye]).T
        dense += d.T @ np.diag(wv) @ d
    return dense


def jacobi_scale(grid, lw: np.ndarray) -> np.ndarray:
    """s with s_i^2 = L_w[i, i] / (2 dim n^2), from the dense L_w: the 2D solve's scale."""
    return np.sqrt(np.diag(lw) / (2 * grid.dim * grid.n**2))


def edge_mean_scale(w: Density) -> np.ndarray:
    """The root of the mean of the 2 dim edge weights at each site, w_i and
    w_{i - e_a} on each axis a, by np.roll: the 2D solve's scale, with no matrix."""
    wv = w.values.reshape(w.grid.shape)
    edges = sum(wv + np.roll(wv, 1, axis) for axis in range(w.grid.dim))
    return np.sqrt(edges / (2 * w.grid.dim)).ravel()


def rough_weight(grid, seed: int) -> Density:
    """w log-uniform over 3 decades per site, normalised."""
    wv = 10.0 ** np.random.default_rng(seed).uniform(0.0, 3.0, grid.total)
    return Density(grid, wv / wv.sum())


def random_weight(grid, seed: int) -> Density:
    wv = np.random.default_rng(seed).uniform(0.05, 1.0, grid.total)
    return Density(grid, wv / wv.sum())


def coarse_modes(n: int) -> np.ndarray:
    """The constant, then cos and sin of each wavenumber 1..COARSE_WAVENUMBER, as
    orthonormal columns on n > 2 COARSE_WAVENUMBER sites."""
    s = 2 * np.pi * np.arange(n) / n
    k = range(1, COARSE_WAVENUMBER + 1)
    waves = [np.sqrt(2.0) * f(j * s) for j in k for f in (np.cos, np.sin)]
    return np.column_stack([np.ones(n), *waves]) / np.sqrt(n)


def dense_two_level(w: Density):
    """E^T A E, A_c = E^T A E + beta c c^T and the preconditioner M^-1 of the 2D
    solve, from dense matrices: A = S^-1 L_w S^-1 with S = diag(jacobi_scale),
    E = q_c (x) q_c, c = E^T S 1 / ||E^T S 1||, beta = lambda_1, and M^-1 r the
    Laplacian pseudo-inverse of r's fine part plus E A_c^-1 E^T r."""
    grid = w.grid
    lw = dense_weighted_laplacian(grid, w.values)
    scale = jacobi_scale(grid, lw)
    a = lw / np.outer(scale, scale)
    e = np.kron(coarse_modes(grid.n), coarse_modes(grid.n))
    block = e.T @ a @ e
    c = e.T @ scale
    c /= np.linalg.norm(c)
    a_c = block + circulant_eigenvalue(grid.n, 1) * np.outer(c, c)

    def precondition(r):
        coarse = e.T @ r
        return laplacian_pinv_apply(grid, r - e @ coarse) + e @ np.linalg.solve(a_c, coarse)

    return block, a_c, precondition


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


class TestAxisOracle:
    """stencil_reference.axis_apply, the stencils' CSR oracle, against dense Kronecker products."""

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_1d_is_the_factor(self, n):
        a = random_factor(n, n)
        v = np.random.default_rng(1).standard_normal(n)
        assert np.abs(a.toarray() - a.toarray().T).max() > 0.1
        np.testing.assert_allclose(axis_apply(a, v, 0, 1), a.toarray() @ v, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_2d_matches_kron(self, n):
        a0, a1 = random_factor(n, 2 * n), random_factor(n, 2 * n + 1)
        d0, d1, eye = a0.toarray(), a1.toarray(), np.eye(n)
        assert min(np.abs(d - d.T).max() for d in (d0, d1)) > 0.1
        v = np.random.default_rng(2).standard_normal(n * n)
        cases = [
            (axis_apply(a0, v, 0, 2), np.kron(d0, eye) @ v),
            (axis_apply(a1, v, 1, 2), np.kron(eye, d1) @ v),
        ]
        for got, want in cases:
            assert got.shape == (n * n,)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("axis,dim", [(1, 1), (-1, 1), (2, 2), (-1, 2)])
    def test_invalid_axis(self, axis, dim):
        with pytest.raises(ValueError, match="axis"):
            axis_apply(random_factor(4, 0), np.zeros(4**dim), axis, dim)


class TestLaplacian:
    def test_constant(self):
        grid = make_grid(2, 8)
        assert np.all(laplacian_apply(grid, np.full(64, 1.23)) == 0.0)
        # every size and constant, the rows that wrap included
        for dim, n in STENCIL_CASES:
            grid = make_grid(dim, n)
            for c in np.random.default_rng(64).uniform(-10.0, 10.0, 20):
                assert not laplacian_apply(grid, np.full(grid.total, c)).any()

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


class TestStencilOracles:
    """The shifted stencils against the CSR products and np.roll stencils of stencil_reference."""

    @pytest.mark.parametrize("dim,n,kind", BYTE_CASES)
    def test_flux_bitwise(self, dim, n, kind):
        # the bytes of the CSR products D^T (w * D x) along each axis, the
        # sign of zero included; the np.roll stencil scales by n after w
        # multiplies in, so it rounds otherwise where w (x_+ - x) is subnormal
        grid = make_grid(dim, n)
        w = random_weight(grid, 61 + n)
        x = stencil_input(grid, kind, 60 + n + dim)
        got = weighted_flux_apply(w, x)
        assert got.tobytes() == ref.csr_flux_apply(grid, w.values, x).tobytes()
        if kind != "subnormal":
            want = ref.flux_apply(w.values.reshape(grid.shape), x.reshape(grid.shape)).ravel()
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [4, 8])
    def test_1d_wrap_entries_bitwise(self, n):
        # a 1D wrap entry is one sum per call, whose rounding order a few
        # normal inputs test only by chance (the 2D ones test n per call)
        grid = make_grid(1, n)
        w = random_weight(grid, 70 + n)
        for x in np.random.default_rng(71 + n).standard_normal((200, n)):
            assert laplacian_apply(grid, x).tobytes() == ref.csr_laplacian_apply(grid, x).tobytes()
            flux = weighted_flux_apply(w, x)
            assert flux.tobytes() == ref.csr_flux_apply(grid, w.values, x).tobytes()

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_flux_checks_arguments(self, dim, n):
        # a complex x used to give a complex result in 1D, a scalar weight
        # was taken in 1D and 2D, and a wrong length failed inside numpy
        grid = make_grid(dim, n)
        w = random_weight(grid, 68 + n)
        x = np.ones(grid.total)
        with pytest.raises(TypeError, match="^w must be a Density, got float$"):
            weighted_flux_apply(2.0, x)
        with pytest.raises(TypeError, match="^w must be a Density, got ndarray$"):
            weighted_flux_apply(w.values, x)
        with pytest.raises(TypeError, match="must be real numbers"):
            weighted_flux_apply(w, x + 1j)
        with pytest.raises(TypeError, match="pass its .values"):
            weighted_flux_apply(w, w)
        with pytest.raises(ValueError, match="does not match grid"):
            weighted_flux_apply(w, np.ones(grid.total + 1))

    @pytest.mark.parametrize("dim,n,kind", BYTE_CASES)
    def test_laplacian_bitwise(self, dim, n, kind):
        # the bytes of the tensor rule's sum of D^T D along each axis, the
        # sign of zero included
        grid = make_grid(dim, n)
        x = stencil_input(grid, kind, 65 + n + dim)
        got = laplacian_apply(grid, x)
        assert got.tobytes() == ref.csr_laplacian_apply(grid, x).tobytes()

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
    def test_closed_form_1d_bitwise(self, n):
        # the bare sums and dot products of the 1D solve compute what
        # np.mean and np.linalg.norm did: the same x and the same backward error
        grid = make_grid(1, n)
        w = random_weight(grid, 66 + n)
        for seed in range(3):
            rhs = np.random.default_rng(67 + n + seed).standard_normal(n)
            want, backward_error = ref.closed_form_1d(w.values, rhs)
            got = weighted_elliptic_pinv_apply(w, rhs)
            assert got.tobytes() == want.tobytes()
            with pytest.raises(EllipticSolveError) as excinfo:
                weighted_elliptic_pinv_apply(w, rhs, EllipticSolveConfig(rel_tolerance=1e-300))
            assert excinfo.value.achieved_residual == backward_error

    @pytest.mark.parametrize("dim,n", [(2, 4), (2, 16)])
    def test_weighted_matrix_entries_bitwise(self, dim, n):
        # column j of L_w is the stencil applied to the unit vector e_j, and
        # entry (i, j) of the assembled operator is L_ij (s_i s_j) with s the
        # inverse of the scale that L_w's own diagonal gives
        grid = make_grid(dim, n)
        w = random_weight(grid, 62 + n).values.reshape(grid.shape)
        dense = np.column_stack(
            [ref.flux_apply(w, e.reshape(grid.shape)).ravel() for e in np.eye(grid.total)]
        )
        s = 1.0 / jacobi_scale(grid, dense)
        got = operators._scaled_operator(Density(grid, w.ravel()))[0]
        assert got.has_sorted_indices  # a CG matvec sums each row in column order
        assert got.nnz == np.count_nonzero(dense)
        np.testing.assert_array_equal(got.toarray(), dense * np.outer(s, s))

    @pytest.mark.parametrize("dim,n", STENCIL_CASES)
    def test_laplacian_to_roundoff(self, dim, n):
        # summed term by term, not in the stencil's order: equal to roundoff,
        # two float64 epsilons of the largest entry
        grid = make_grid(dim, n)
        x = np.random.default_rng(63 + n + dim).standard_normal(grid.total)
        want = ref.laplacian_apply(x.reshape(grid.shape)).ravel()
        got = laplacian_apply(grid, x)
        assert np.max(np.abs(got - want)) <= 2 * np.finfo(float).eps * np.max(np.abs(want))


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

    @pytest.mark.parametrize("dim,n", [(1, 16), (1, 64), (1, 128), (1, 256), (2, 16)])
    def test_matches_dense_pinv(self, dim, n):
        # 1D always uses the FFT; 2D at n = 16 the dense eigenbasis plan
        grid = make_grid(dim, n)
        dense = np.array([laplacian_apply(grid, e) for e in np.eye(grid.total)]).T
        r = np.random.default_rng(28).standard_normal(grid.total)
        want = np.linalg.pinv(dense) @ r
        got = laplacian_pinv_apply(grid, r)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert abs(got.mean()) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [DENSE_PLAN_MAX_N, 2 * DENSE_PLAN_MAX_N])
    def test_2d_matches_dense_eigendecomposition(self, n):
        # the dense n^2 x n^2 pinv is too large here; the 2D Laplacian is
        # L1 (x) I + I (x) L1, so its pinv is diagonal in the Kronecker
        # square of the dense 1D Laplacian's eigenvectors from eigh
        grid = make_grid(2, n)
        lam, v = np.linalg.eigh(
            np.array([laplacian_apply(make_grid(1, n), e) for e in np.eye(n)]).T
        )
        total = lam[:, None] + lam[None, :]
        inv = np.where(total > 1e-6 * total.max(), 1.0 / np.maximum(total, 1e-300), 0.0)
        r = np.random.default_rng(29).standard_normal((n, n))
        want = v @ ((v.T @ r @ v) * inv) @ v.T
        got = laplacian_pinv_apply(grid, r.ravel()).reshape(n, n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim,n", [(1, 512), (2, 2 * DENSE_PLAN_MAX_N)])
    def test_fft_map_bitwise(self, dim, n):
        # the plan's 1D transforms, axis 0's in place, give the bytes of
        # numpy's n-dimensional pair with the inverse symbol 1 / lam, 0 for
        # the constant mode, recomputed here from the 1D eigenvalues
        grid = make_grid(dim, n)
        lam = 4.0 * n**2 * np.sin(np.pi * np.arange(n) / n) ** 2
        half = lam[: n // 2 + 1]
        symbol = half if dim == 1 else lam[:, None] + half[None, :]
        inv = np.zeros_like(symbol)
        np.divide(1.0, symbol, out=inv, where=symbol > 0.0)
        rng = np.random.default_rng(30 + dim)
        for v in (rng.standard_normal(grid.total), rng.uniform(0.0, 1e-3, grid.total)):
            spec = np.fft.rfftn(v.reshape(grid.shape)) * inv
            want = np.fft.irfftn(spec, s=grid.shape, axes=tuple(range(dim)))
            got = laplacian_pinv_apply(grid, v)
            assert got.tobytes() == want.ravel().tobytes()

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            laplacian_pinv_apply(make_grid(2, 8), np.zeros(8))


class TestWeightedLaplacianMatrix:
    """The cached scaled operator S^-1 L_w S^-1 of the 2D solve, S = diag(s) with
    s_i^2 = L_w[i, i] / (2 dim n^2)."""

    @pytest.mark.parametrize("dim,n", [(2, 4), (2, 8), (2, 16)])
    def test_matches_dense_and_stencil(self, dim, n):
        grid = make_grid(dim, n)
        w = random_weight(grid, 30)
        a, scale, inv_scale, _ = operators._scaled_operator(w)
        lw = dense_weighted_laplacian(grid, w.values)
        np.testing.assert_array_equal(scale, jacobi_scale(grid, lw))
        np.testing.assert_array_equal(inv_scale, 1.0 / jacobi_scale(grid, lw))
        assert a.format == "csr" and a.has_sorted_indices
        np.testing.assert_array_equal(np.diff(a.indptr), 2 * dim + 1)
        assert (a != a.T).nnz == 0  # symmetric to the last bit
        s_inv = np.diag(inv_scale)
        dense = s_inv @ lw @ s_inv
        np.testing.assert_allclose(a.toarray(), dense, rtol=1e-14, atol=0.0)
        x = np.random.default_rng(31).standard_normal(grid.total)
        stencil = inv_scale * weighted_flux_apply(w, inv_scale * x)
        assert np.max(np.abs(a @ x - stencil)) <= 1e-14 * np.max(np.abs(stencil))
        # the null direction is S 1, the image of the constants
        assert np.max(np.abs(a @ scale)) <= 1e-12 * np.max(np.abs(a.data))

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("weight", [random_weight, rough_weight])
    def test_scale_is_the_jacobi_scale(self, n, weight):
        # s^2 is L_w's diagonal over 2 dim n^2, the mean of the site's
        # 2 dim edge weights, and A = S^-1 L_w S^-1 annihilates s; A's
        # diagonal is then the constant 2 dim n^2 of -Delta's
        grid = make_grid(2, n)
        w = weight(grid, 45 + n)
        a, scale = operators._scaled_operator(w)[:2]
        want = np.diag(dense_weighted_laplacian(grid, w.values)) / (2 * grid.dim * n**2)
        assert np.max(np.abs(scale**2 - want) / want) <= 1e-15
        np.testing.assert_allclose(scale, edge_mean_scale(w), rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(a.diagonal(), 2 * grid.dim * n**2, rtol=1e-15)
        assert np.max(np.abs(a @ scale)) <= 1e-12 * np.max(np.abs(a.data))
        # a constant w is its own scale: then S = diag(sqrt w)
        flat = Density(grid, np.full(grid.total, 1.0 / grid.total))
        flat_scale = operators._scaled_operator(flat)[1]
        np.testing.assert_allclose(flat_scale, np.sqrt(flat.values), rtol=1e-15)

    def test_galerkin_block_matches_dense(self):
        # n = 16 has fine modes beside the 13^2 coarse ones; the set-up keeps
        # A_c^-1, so A_c is read back by inverting it
        grid = make_grid(2, 16)
        w = random_weight(grid, 39)
        block, a_c, _ = dense_two_level(w)
        coarse_inverse = operators._scaled_operator(w)[3]
        assert coarse_inverse.shape == ((2 * COARSE_WAVENUMBER + 1) ** 2,) * 2
        np.testing.assert_array_equal(coarse_inverse, coarse_inverse.T)
        got = np.linalg.inv(coarse_inverse)
        got_block = got - (a_c - block)  # less the beta c c^T term
        assert np.max(np.abs(got_block - block)) <= 1e-12 * np.max(np.abs(block))
        np.linalg.cholesky(got)  # A_c is SPD, and so is the inverse that CG applies
        np.linalg.cholesky(coarse_inverse)

    def test_coarse_inverse_bytes_do_not_depend_on_thread_count(self):
        # np.linalg.inv of the 169^2 block changed its bits between 1 and 2
        # BLAS threads, and with them every 2D K-solve's; only 1 and 2 are
        # checked (a 2-core machine), higher counts are untested
        code = (
            "import hashlib\n"
            "from waveng.experiments import build_potential\n"
            "from waveng.grid import make_grid, reference_measure\n"
            "from waveng import operators\n"
            "grid = make_grid(2, 16)\n"
            "mu = reference_measure(grid, build_potential(grid, 'sin4pi-product'))\n"
            "print(hashlib.sha256(operators._scaled_operator(mu)[3].tobytes()).hexdigest())\n"
        )
        digests = stdout_at_1_and_2_threads(code)
        assert digests[0] == digests[1]

    def test_set_up_is_read_only(self):
        # every later solve with this w shares the set-up: a write must raise
        a, scale, inv_scale, coarse_inverse = operators._scaled_operator(
            random_weight(make_grid(2, 8), 41)
        )
        for array in (a.data, a.indices, a.indptr, scale, inv_scale, coarse_inverse):
            with pytest.raises(ValueError):
                array.flat[0] += 1

    def test_set_up_is_lazy_and_reused(self):
        cache = operators._scaled_operator
        cache.cache_clear()
        grid = make_grid(2, 16)
        w = random_weight(grid, 32)
        weighted_elliptic_pinv_apply(w, np.zeros(grid.total))  # zero rhs: nothing built
        assert cache.cache_info().currsize == 0
        rhs = np.random.default_rng(33).standard_normal(grid.total)
        first = weighted_elliptic_pinv_apply(w, rhs)
        set_up = cache(w)
        np.testing.assert_array_equal(weighted_elliptic_pinv_apply(w, rhs), first)
        assert cache(w) is set_up and cache.cache_info().misses == 1
        # a density with equal values is another key, built afresh to the same bits
        twin = Density(grid, w.values.copy())
        np.testing.assert_array_equal(weighted_elliptic_pinv_apply(twin, rhs), first)
        assert cache.cache_info().misses == 2 and cache(twin) is not set_up

    def test_caller_writes_reach_neither_density_nor_set_up(self):
        # a Density keeps its own copy: scaling the caller's array after a
        # solve used to move d.values but not the set-up cached for d, so
        # the next solve at d was off by that factor against a fresh build
        grid = make_grid(2, 16)
        values = random_weight(grid, 34).values.copy()
        kept = values.copy()
        w = Density(grid, values)
        rhs = np.random.default_rng(35).standard_normal(grid.total)
        first = weighted_elliptic_pinv_apply(w, rhs)
        values *= 3.0
        fresh = weighted_elliptic_pinv_apply(Density(grid, w.values.copy()), rhs)
        np.testing.assert_allclose(weighted_elliptic_pinv_apply(w, rhs), fresh, rtol=1e-12)
        np.testing.assert_array_equal(weighted_elliptic_pinv_apply(w, rhs), first)
        values[0] = np.nan  # nor can a write make a checked density non-finite
        np.testing.assert_array_equal(w.values, kept)
        assert abs(w.mass - 1.0) <= 1e-12


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

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 64), (2, 128)])
    def test_uniform_weight_reduces_to_scaled_laplacian(self, dim, n):
        # in 2D, mode (6, 3) is coarse and (6, 20) fine, so the answer runs
        # through the two-level map's dense block overwrite at 64^2 and its
        # FFT coarse correction at 128^2
        k = 6
        grid = make_grid(dim, n)
        w = Density(grid, np.full(grid.total, 1.0 / grid.total))
        t = 2 * np.pi * np.arange(n) / n
        s = np.sin(k * t)
        if dim == 1:
            rhs = circulant_eigenvalue(n, k) * s
        else:
            modes = [np.outer(s, np.cos(j * t)) for j in (3, 20)]
            lams = [circulant_eigenvalue(n, k) + circulant_eigenvalue(n, j) for j in (3, 20)]
            s = sum(modes).ravel()
            rhs = sum(lam * mode for lam, mode in zip(lams, modes)).ravel()
        rhs /= grid.total
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

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (2, 128)])
    def test_rhs_scaled_by_a_power_of_two_solves_exactly(self, dim, n):
        # ||P rhs||^2 underflows to 0 at 2^-600 and overflows at 2^540, with
        # no warning (an error under the suite's filter); the solve commutes
        # with powers of two, so the scaled x is bit for bit the scaled answer
        grid = make_grid(dim, n)
        if dim == 1:
            w = random_weight(grid, 45)
        else:
            w = reference_measure(grid, build_potential(grid, "sin4pi-product"))
        rhs = np.random.default_rng(46).standard_normal(grid.total)
        x = weighted_elliptic_pinv_apply(w, rhs)
        for power in (-600, 540):
            got = weighted_elliptic_pinv_apply(w, np.ldexp(rhs, power))
            np.testing.assert_array_equal(got, np.ldexp(x, power))

    @pytest.mark.parametrize("n", [64, 512, 4096])
    @pytest.mark.parametrize("spikes", [((1, 3, 40.0),), ((1, 3, 700.0),),
                                        ((1, 5, 200.0), (1, 2, 150.0), (4, 5, 100.0))])
    def test_1d_weak_sites_solve(self, n, spikes):
        # mu of a zero potential raised to h at a few sites: those weights
        # are e^-h below the rest, and a weak site's step, the cancellation
        # in its flux divided by its weight, must not reach the x past it
        # (with the loop closed on the last link, h = 30 missed the gate)
        v = np.zeros(n)
        for num, den, h in spikes:
            v[num * n // den] = h
        w = reference_measure(make_grid(1, n), v)
        rhs = np.random.default_rng(n).standard_normal(n)
        cfg = EllipticSolveConfig()
        x = weighted_elliptic_pinv_apply(w, rhs, cfg)
        # the gate again, with the np.roll stencil and no library arithmetic
        residual = ref.flux_apply(w.values, x) - (rhs - rhs.mean())
        scale = np.linalg.norm(rhs) + 4.0 * n**2 * w.values.max() * np.linalg.norm(x)
        assert np.linalg.norm(residual - residual.mean()) <= cfg.rel_tolerance * scale

    def test_nonpositive_weight_rejected(self):
        grid = make_grid(1, 16)
        wv = np.full(16, 1 / 16)
        wv[3] = 0.0
        # refused as a Density, and the solve takes w as nothing else
        with pytest.raises(ValueError, match="strictly positive"):
            Density(grid, wv)
        with pytest.raises(TypeError, match="w must be a Density"):
            weighted_elliptic_pinv_apply(wv, np.ones(16))

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_weight_that_is_not_a_density_rejected(self, dim, n):
        # a bare array used to fail inside the check w.min <= 0 with an
        # unrelated TypeError from comparing a bound method to a float
        grid = make_grid(dim, n)
        w = uniform_density(grid).values
        with pytest.raises(TypeError, match="^w must be a Density, got ndarray$"):
            weighted_elliptic_pinv_apply(w, np.ones(grid.total))

    def test_nonpositive_weight_rejected_before_2d_set_up(self):
        operators._scaled_operator.cache_clear()
        grid = make_grid(2, 4)
        wv = np.full(16, 1 / 16)
        wv[3] = -1e-3
        with pytest.raises(ValueError, match="strictly positive"):
            Density(grid, wv)
        with pytest.raises(TypeError, match="w must be a Density"):
            weighted_elliptic_pinv_apply(wv, np.arange(16.0))
        assert operators._scaled_operator.cache_info().currsize == 0

    def test_nonconvergence_reports_residual(self):
        # 2D, where max_iterations caps the CG loop
        grid = make_grid(2, 16)
        rng = np.random.default_rng(25)
        wv = rng.uniform(0.5, 2.0, grid.total)
        w = Density(grid, wv / wv.sum())
        cfg = EllipticSolveConfig(rel_tolerance=1e-14, max_iterations=1)
        with pytest.raises(EllipticSolveError) as excinfo:
            weighted_elliptic_pinv_apply(w, rng.standard_normal(grid.total), cfg)
        assert excinfo.value.achieved_residual > 0
        assert excinfo.value.iterations == 1

    def test_1d_residual_gate(self):
        # the closed-form 1D solve has no iterations to cap; its residual is
        # still checked against the tolerance
        grid = make_grid(1, 64)
        rng = np.random.default_rng(26)
        wv = rng.uniform(0.5, 2.0, 64)
        w = Density(grid, wv / wv.sum())
        rhs = rng.standard_normal(64)
        weighted_elliptic_pinv_apply(w, rhs)  # the default tolerance passes
        with pytest.raises(EllipticSolveError) as excinfo:
            weighted_elliptic_pinv_apply(w, rhs, EllipticSolveConfig(rel_tolerance=1e-300))
        assert excinfo.value.achieved_residual > 1e-300
        assert excinfo.value.iterations == 0

    def test_config_validation(self):
        for kwargs in (
            {"rel_tolerance": 0.0},
            {"rel_tolerance": -1e-10},
            {"rel_tolerance": float("nan")},
            {"rel_tolerance": float("inf")},
            {"rel_tolerance": True},  # used to be accepted as 1.0
            {"max_iterations": 0},
            {"max_iterations": -3},
            {"max_iterations": 2.5},
            {"max_iterations": True},
        ):
            with pytest.raises(ValueError):
                EllipticSolveConfig(**kwargs)

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_rejected(self, dim, n, bad):
        # rejected before any arithmetic: no RuntimeWarning (an error under
        # the suite's filter) and no CG run to the iteration cap
        grid = make_grid(dim, n)
        rhs = np.random.default_rng(36).standard_normal(grid.total)
        rhs[5] = bad
        with pytest.raises(ValueError, match="finite"):
            weighted_elliptic_pinv_apply(random_weight(grid, 37), rhs)


class TestResidualGate:
    """The 2D stopping test is on the residual of L_w x = P b itself, not on the
    residual of the scaled system S^-1 L_w S^-1 y = S^-1 P b that CG iterates on."""

    @staticmethod
    def rough_problem():
        # a smooth w spanning 10^3.2, and a rhs on the sites where w is
        # smallest: there 1/s is largest, so the scaled system's relative
        # residual reads several times smaller than the unscaled one
        n = 16
        grid = make_grid(2, n)
        t = 2 * np.pi * np.arange(n) / n
        wv = 10.0 ** (0.8 * np.add.outer(np.sin(t), np.cos(t)).ravel())
        w = Density(grid, wv / wv.sum())
        assert w.values.max() >= 1e3 * w.values.min()
        rhs = np.random.default_rng(38).standard_normal(grid.total)
        rhs *= w.values <= np.quantile(w.values, 0.25)
        return w, rhs - rhs.mean(), dense_weighted_laplacian(grid, w.values)

    @staticmethod
    def relative_residuals(w, lw, x, b):
        """(unscaled, scaled) relative residuals of x."""
        residual = lw @ x - b
        s_inv = 1.0 / jacobi_scale(w.grid, lw)
        return (
            np.linalg.norm(residual) / np.linalg.norm(b),
            np.linalg.norm(s_inv * residual) / np.linalg.norm(s_inv * b),
        )

    def test_converged_solve_meets_unscaled_tolerance(self):
        # a factor 1.01 covers the drift between CG's recursive residual,
        # which the gate reads, and the true one (about 1e-4 of it here)
        w, b, lw = self.rough_problem()
        cfg = EllipticSolveConfig()
        x = weighted_elliptic_pinv_apply(w, b, cfg)
        unscaled, scaled = self.relative_residuals(w, lw, x, b)
        assert unscaled >= 3.0 * scaled  # a gate on the scaled residual would stop early
        assert unscaled <= 1.01 * cfg.rel_tolerance

    @pytest.mark.parametrize("cap", [3, 6, 10])
    def test_capped_solve_reports_unscaled_residual(self, cap):
        # textbook PCG on L_w x = b preconditioned by P S^-1 M^-1 S^-1, with
        # M^-1 the two-level map built from dense matrices, whose iterates the
        # scaled-variable CG reproduces up to constants; every cap is below
        # the 12 iterations this problem converges in
        w, b, lw = self.rough_problem()
        s_inv = 1.0 / jacobi_scale(w.grid, lw)
        two_level = dense_two_level(w)[2]

        def precondition(r):
            z = s_inv * two_level(s_inv * r)
            return z - z.mean()

        x, r = np.zeros(b.size), b.copy()
        z = precondition(r)
        p, rz = z, r @ z
        for _ in range(cap):
            ap = lw @ p
            alpha = rz / (p @ ap)
            x, r = x + alpha * p, r - alpha * ap
            z = precondition(r)
            p, rz = z + (r @ z / rz) * p, r @ z
        unscaled, scaled = self.relative_residuals(w, lw, x, b)
        assert unscaled >= 2.0 * scaled
        with pytest.raises(EllipticSolveError) as excinfo:
            weighted_elliptic_pinv_apply(w, b, EllipticSolveConfig(max_iterations=cap))
        assert excinfo.value.iterations == cap
        # at cap 10 the residual is near 1.6e-9, and the two iterations'
        # roundoff has grown to a drift of 4.2e-7 relative at one BLAS thread
        # and 6.1e-7 at two
        rel = 1e-6 if cap == 10 else 1e-8
        assert excinfo.value.achieved_residual == pytest.approx(unscaled, rel=rel, abs=0)


class TestSymmetricInverse:
    """The Gauss-Jordan sweeps that both coarse solves use, against np.linalg.inv."""

    @staticmethod
    def spd(n: int) -> np.ndarray:
        b = np.random.default_rng(n).standard_normal((n, n))
        return b @ b.T + n * np.eye(n)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_inverts_in_place_exactly_symmetric(self, n):
        a = self.spd(n)
        expected = np.linalg.inv(a)
        out = symmetric_inverse(a)
        assert out is a
        assert np.array_equal(out, out.T)
        assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_reads_only_the_lower_triangle(self, n):
        a = self.spd(n)
        noisy = a + np.triu(np.random.default_rng(n + 1).standard_normal((n, n)), k=1)
        assert np.array_equal(symmetric_inverse(noisy), symmetric_inverse(a))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@example(8, 0)
def test_1d_solve_matches_dense_pinv(log2n, seed):
    """The closed-form 1D solve against pinv of the dense D^T diag(w) D."""
    n = 2**log2n
    grid = make_grid(1, n)
    rng = np.random.default_rng(seed)
    wv = rng.uniform(0.05, 1.0, n)
    w = Density(grid, wv / wv.sum())
    rhs = rng.standard_normal(n)
    d = np.array([diff_apply(grid, e) for e in np.eye(n)]).T
    dense = d.T @ np.diag(w.values) @ d
    want = np.linalg.pinv(dense) @ rhs
    got = weighted_elliptic_pinv_apply(w, rhs)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
@example(4, 0)
def test_2d_solve_matches_dense_pinv(log2n, seed):
    """The preconditioned 2D CG against pinv of the dense sum_a D_a^T diag(w) D_a."""
    n = 2**log2n
    grid = make_grid(2, n)
    rng = np.random.default_rng(seed)
    wv = rng.uniform(0.05, 1.0, grid.total)
    w = Density(grid, wv / wv.sum())
    rhs = rng.standard_normal(grid.total)
    eye = np.eye(grid.total)
    dense = np.zeros((grid.total, grid.total))
    for axis in range(2):
        d = np.array([diff_apply(grid, e, axis) for e in eye]).T
        dense += d.T @ np.diag(w.values) @ d
    want = np.linalg.pinv(dense) @ rhs
    got = weighted_elliptic_pinv_apply(w, rhs, EllipticSolveConfig(rel_tolerance=1e-13))
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [32, 64, 128])
def test_2d_preconditioner_strength(n):
    """CG on the scaled operator S^-1 L_w S^-1 with the two-level
    preconditioner converges for the preset reference measure in exactly
    8/7/7 iterations at n = 32/64/128 (the dense plan at 32 and 64, the FFT
    at 128), so the cap pins the count: a change to the iteration that costs
    one more step fails here.  S = diag(sqrt w) took 10/8/7."""
    grid = make_grid(2, n)
    mu = reference_measure(grid, build_potential(grid, "sin4pi-product"))
    rhs = np.random.default_rng(27).standard_normal(grid.total)
    cap = {32: 8, 64: 7, 128: 7}[n]
    weighted_elliptic_pinv_apply(mu, rhs, EllipticSolveConfig(max_iterations=cap))


@pytest.mark.parametrize("cap", [2, 4])
def test_fft_two_level_capped_solve_matches_oracle(cap):
    """The two-level preconditioner's FFT branch (n > DENSE_PLAN_MAX_N), through
    a capped solve: textbook PCG on L_mu x = b, preconditioned by
    P S^-1 M^-1 S^-1 with the separable oracle
    M^-1 r = (-Delta)^+ (r - E E^T r) + E C E^T r, E = q_c (x) q_c applied as
    q_c^T R q_c and C the stored coarse inverse, leaves the residual the
    solve reports.  S is the edge-mean scale, computed here by np.roll.  The
    preset measure converges in 7 iterations at 128^2; at 6 the residual is
    3e-10 and the two iterations agree only to 3e-8."""
    n = 2 * DENSE_PLAN_MAX_N
    grid = make_grid(2, n)
    mu = reference_measure(grid, build_potential(grid, "sin4pi-product"))
    rhs = np.random.default_rng(44).standard_normal(grid.total)
    b = rhs - rhs.mean()
    q_c = coarse_modes(n)
    m = q_c.shape[1]
    c = operators._scaled_operator(mu)[3]
    s_inv = 1.0 / edge_mean_scale(mu)

    def two_level(r):
        coarse = q_c.T @ r.reshape(n, n) @ q_c
        fine = r - (q_c @ coarse @ q_c.T).ravel()
        lifted = q_c @ (c @ coarse.ravel()).reshape(m, m) @ q_c.T
        return laplacian_pinv_apply(grid, fine) + lifted.ravel()

    def precondition(r):
        z = s_inv * two_level(s_inv * r)
        return z - z.mean()

    x, r = np.zeros(b.size), b.copy()
    z = precondition(r)
    p, rz = z, r @ z
    for _ in range(cap):
        ap = weighted_flux_apply(mu, p)
        alpha = rz / (p @ ap)
        x, r = x + alpha * p, r - alpha * ap
        z = precondition(r)
        p, rz = z + (r @ z / rz) * p, r @ z
    residual = weighted_flux_apply(mu, x) - b
    with pytest.raises(EllipticSolveError) as excinfo:
        weighted_elliptic_pinv_apply(mu, rhs, EllipticSolveConfig(max_iterations=cap))
    assert excinfo.value.iterations == cap
    want = np.linalg.norm(residual) / np.linalg.norm(b)
    assert excinfo.value.achieved_residual == pytest.approx(want, rel=1e-8, abs=0)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_2d_rough_weight_converges(n):
    """A weight log-uniform over 3 decades per site still solves to the
    unscaled gate within the default cap (10 n dim): 50-64, 174-200 and
    406-414 iterations at 16^2/32^2/64^2, against caps of 320/640/1280.
    The scale that L_w's diagonal gives keeps A's diagonal that of -Delta
    however rough w is; S = diag(sqrt w) raised here at every size."""
    grid = make_grid(2, n)
    cfg = EllipticSolveConfig()
    for seed in range(2 if n == 64 else 5):
        w = rough_weight(grid, seed)
        rhs = np.random.default_rng(50 + seed).standard_normal(grid.total) / np.sqrt(w.values)
        x = weighted_elliptic_pinv_apply(w, rhs, cfg)
        assert abs(x.mean()) <= 1e-12 * np.max(np.abs(x))
        b = rhs - rhs.mean()
        residual = weighted_flux_apply(w, x) - b
        assert np.linalg.norm(residual) <= 1.01 * cfg.rel_tolerance * np.linalg.norm(b)


def test_2d_rough_weight_descent_converges():
    """The combined metric's descent on a rough reference measure (16^2,
    alphas (1, 3e-4, 1e-4)) reaches a 1e-6 relative gap: every K-solve of
    its line searches meets the default gate, so no EllipticSolveError."""
    grid = make_grid(2, 16)
    alphas = (1.0, 3e-4, 1e-4)
    spec = LossSpec(*alphas, mu=rough_weight(grid, 0))
    metric = metric_apply_fn(
        MetricKind.COMBINED, grid, precomp=build_precomp(make_basis(grid)), alphas=alphas
    )
    p0 = uniform_density(grid)
    gap0 = combined_eval(p0.values, spec).value
    history = run_descent(p0, spec, metric, DescentConfig(2000, 1e-6 * gap0))
    assert history.status == "converged"


@pytest.mark.parametrize("seed", range(3))
def test_2d_coarse_space_is_the_whole_grid_at_n8(seed):
    """At n = 8 the coarse modes are all 64 modes, so the preconditioner is
    (A + beta c c^T)^-1, which is A^+ on CG's residuals: one iteration."""
    grid = make_grid(2, 8)
    w = random_weight(grid, 41 + seed)
    rhs = np.random.default_rng(42 + seed).standard_normal(grid.total)
    cfg = EllipticSolveConfig(max_iterations=1)
    x = weighted_elliptic_pinv_apply(w, rhs, cfg)
    b = rhs - rhs.mean()
    residual = dense_weighted_laplacian(grid, w.values) @ x - b
    assert np.linalg.norm(residual) <= 1.01 * cfg.rel_tolerance * np.linalg.norm(b)


def stdout_at_1_and_2_threads(code: str) -> list[str]:
    """What `code` prints in a fresh interpreter at 1 and at 2 BLAS threads."""
    src = str(ROOT / "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, **dict.fromkeys(THREAD_VARS, threads))
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        out.append(proc.stdout)
    return out


def test_coarse_block_bytes_do_not_depend_on_thread_count():
    # the combined metric's H_c^-1 at mu, built from dgemm contractions by
    # symmetric sweeps, for a mix with alpha1 > 0 (2d-4, three sweeps) and
    # one with alpha1 = 0 (2d-3, two); 1 and 2 threads only
    code = (
        "import hashlib\n"
        "from waveng.experiments import build_potential, load_preset\n"
        "from waveng.grid import make_grid, reference_measure\n"
        "from waveng import metrics\n"
        "from waveng.wavelets import make_basis\n"
        "for preset_id, n in (('2d-4', 64), ('2d-3', 32)):\n"
        "    grid = make_grid(2, n)\n"
        "    mu = reference_measure(grid, build_potential(grid, 'sin4pi-product'))\n"
        "    pre = metrics.build_precomp(make_basis(grid))\n"
        "    alphas = tuple(map(float, load_preset(preset_id).alphas))\n"
        "    inverse = metrics._coarse_block(pre, mu, alphas, 16)[1]\n"
        "    print(hashlib.sha256(inverse.tobytes()).hexdigest())\n"
    )
    digests = stdout_at_1_and_2_threads(code)
    assert digests[0].count("\n") == 2
    assert digests[0] == digests[1]
