import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from cascade_reference import dense_matrix, loop_matrix
from filter_reference import daubechies_lowpass_mp
from waveng.grid import make_grid
from waveng.wavelets import (
    daubechies_lowpass,
    make_basis,
    transform_forward,
    transform_inverse,
)

SQRT2 = np.sqrt(2.0)


def finest_highpass(order: int) -> np.ndarray:
    """The highpass taps make_basis uses, read back from its first column.

    Column 0 is the first finest-level wavelet.  At n = 32 no filter of
    order <= 10 wraps, so tap r of column 0 is row r.
    """
    column = make_basis(make_grid(1, 32), order=order).matrix[:, 0].toarray().ravel()
    assert not column[2 * order :].any()
    return column[: 2 * order]


class TestFilters:
    def test_haar_closed_form(self):
        np.testing.assert_allclose(daubechies_lowpass(1), [1 / SQRT2, 1 / SQRT2], atol=1e-15)
        np.testing.assert_allclose(finest_highpass(1), [1 / SQRT2, -1 / SQRT2], atol=1e-15)

    def test_order2_closed_form(self):
        s3 = np.sqrt(3.0)
        expected = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * SQRT2)
        np.testing.assert_allclose(daubechies_lowpass(2), expected, atol=1e-14)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_invariants(self, order):
        h, g = daubechies_lowpass(order), finest_highpass(order)
        assert h.dtype == np.float64 and len(h) == 2 * order
        assert abs(h @ h - 1.0) <= 1e-12
        assert abs(g @ g - 1.0) <= 1e-12
        assert abs(h.sum() - SQRT2) <= 1e-12
        assert abs(g.sum()) <= 1e-12
        i = np.arange(2 * order)
        np.testing.assert_array_equal(g, (-1.0) ** i * h[::-1])

    @pytest.mark.parametrize("order", [0, 11, -1, 2.5, True, [3]])
    def test_unsupported_order(self, order):
        # [3] used to raise TypeError (unhashable) from the cache
        with pytest.raises(ValueError, match="order must be an integer"):
            daubechies_lowpass(order)

    def test_taps_are_read_only(self):
        # the taps are cached per order: a write would skew every later basis
        want = daubechies_lowpass(3).copy()
        with pytest.raises(ValueError):
            daubechies_lowpass(3)[0] += 0.1
        assert daubechies_lowpass(3).tobytes() == want.tobytes()

    def test_haar_table_entry_bits(self):
        want = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert daubechies_lowpass(1).tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", range(2, 11))
    def test_table_equals_mpmath_derivation(self, order):
        want = daubechies_lowpass_mp(order)
        assert daubechies_lowpass(order).tobytes() == want.tobytes()

    def test_basis_builds_without_mpmath(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from waveng.grid import make_grid\n"
            "from waveng.wavelets import make_basis\n"
            "for order in range(1, 11):\n"
            "    make_basis(make_grid(2, 32), order=order)\n"
            "if 'mpmath' in sys.modules:\n"
            "    sys.exit('mpmath was imported')\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


class TestMakeBasisArguments:
    # a partial-depth basis has no constant column, so the combined metric
    # moved the mass and runs still reported converged; every depth is
    # refused, the full one (5 at n = 32) too, since it is the only basis
    @pytest.mark.parametrize(
        "order,levels,name",
        [(3, 2.5, "levels"), (3, 3.0, "levels"), (3, True, "levels"), (3, 0, "levels"),
         (3, 6, "levels"), (True, None, "order"), (3.0, None, "order"), ([3], None, "order"),
         (3, 1, "levels"), (3, 5, "levels"), (3, np.int64(5), "levels")],
    )
    def test_rejects_bad_arguments(self, order, levels, name):
        message = "partial depth was removed" if name == "levels" else "order must be an integer"
        with pytest.raises(ValueError, match=message):
            make_basis(make_grid(1, 32), order=order, levels=levels)

    def test_numpy_integers_accepted(self):
        got = make_basis(make_grid(1, 32), order=np.int64(3)).matrix
        want = make_basis(make_grid(1, 32), order=3).matrix
        assert (got != want).nnz == 0


class TestForwardTransform:
    def test_haar_n4_full_depth(self):
        # finest details (1-2, 3-4)/sqrt 2, then the level-2 detail of the
        # pair sums 3/sqrt 2 and 7/sqrt 2, then their scaling sum 10/2
        basis = make_basis(make_grid(1, 4), order=1)
        c = transform_forward(basis, np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(c, [-1 / SQRT2, -1 / SQRT2, -2.0, 5.0], atol=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_constant_vector(self, order):
        n = 64
        basis = make_basis(make_grid(1, n), order=order)
        c = transform_forward(basis, np.full(n, 2.5))
        assert np.all(np.abs(c[:-1]) <= 1e-13)
        assert c[-1] == pytest.approx(2.5 * np.sqrt(n), abs=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_parseval(self, order):
        rng = np.random.default_rng(11)
        n = 512
        basis = make_basis(make_grid(1, n), order=order)
        v = rng.standard_normal(n)
        c = transform_forward(basis, v)
        assert np.linalg.norm(c) == pytest.approx(np.linalg.norm(v), rel=1e-10, abs=0)

    def test_length_mismatch(self):
        basis = make_basis(make_grid(1, 8))
        with pytest.raises(ValueError):
            transform_forward(basis, np.ones(9))


class TestInverseTransform:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_round_trip_n512(self, order):
        rng = np.random.default_rng(12)
        basis = make_basis(make_grid(1, 512), order=order)
        v = rng.standard_normal(512)
        np.testing.assert_allclose(transform_inverse(basis, transform_forward(basis, v)), v, atol=1e-10)

    def test_unit_coarsest_scaling_is_constant(self):
        n = 32
        basis = make_basis(make_grid(1, n), order=1)
        c = np.zeros(n)
        c[-1] = 1.0
        np.testing.assert_allclose(
            transform_inverse(basis, c), np.full(n, 1 / np.sqrt(n)), atol=1e-13
        )

    def test_zero_maps_to_zero(self):
        basis = make_basis(make_grid(1, 16), order=2)
        np.testing.assert_array_equal(transform_inverse(basis, np.zeros(16)), np.zeros(16))


class TestOrthonormality:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [64, 256])
    def test_dense_wtw(self, order, n):
        basis = make_basis(make_grid(1, n), order=order)
        w = dense_matrix(basis)
        assert np.max(np.abs(w.T @ w - np.eye(n))) <= 1e-10


class TestVanishingMoments:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_polynomials_killed_on_interior_windows(self, order):
        # wrapping windows see the 0-vs-1 boundary jump of a non-periodic
        # polynomial, so only the (n/2 - order + 1) non-wrapping finest
        # details must vanish
        n = 128
        basis = make_basis(make_grid(1, n), order=order)
        x = np.arange(n) / n
        rng = np.random.default_rng(13)
        coeffs = rng.uniform(-1, 1, order)
        poly = sum(c * x**k for k, c in enumerate(coeffs))
        details = transform_forward(basis, poly)[: n // 2]
        interior = details[: n // 2 - (order - 1)] if order > 1 else details
        assert np.max(np.abs(interior)) <= 1e-8


class Test2D:
    def test_round_trip(self):
        rng = np.random.default_rng(14)
        basis = make_basis(make_grid(2, 64), order=2)
        v = rng.standard_normal(64 * 64)
        np.testing.assert_allclose(transform_inverse(basis, transform_forward(basis, v)), v, atol=1e-10)

    def test_separability(self):
        rng = np.random.default_rng(15)
        n = 32
        basis2 = make_basis(make_grid(2, n), order=3)
        basis1 = make_basis(make_grid(1, n), order=3)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        got = transform_forward(basis2, np.outer(a, b).ravel()).reshape(n, n)
        want = np.outer(transform_forward(basis1, a), transform_forward(basis1, b))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_constant_image_single_coefficient(self):
        n = 16
        basis = make_basis(make_grid(2, n), order=2)
        c = transform_forward(basis, np.full(n * n, 0.75))
        assert np.sum(np.abs(c) > 1e-11) == 1
        assert c[-1] == pytest.approx(0.75 * n, abs=1e-11)

    def test_dim_guards(self):
        # a vector sized for the other dimension is rejected, not reshaped
        with pytest.raises(ValueError):
            transform_forward(make_basis(make_grid(1, 64)), np.ones(64 * 64))
        with pytest.raises(ValueError):
            transform_inverse(make_basis(make_grid(2, 16)), np.ones(16))


class TestBasisColumn:
    """Columns of the sparse basis matrix W."""

    def test_haar_finest_detail(self):
        basis = make_basis(make_grid(1, 8), order=1)
        rows, _, vals = sp.find(basis.matrix[:, 0])
        np.testing.assert_array_equal(rows, [0, 1])
        np.testing.assert_allclose(vals, [1 / SQRT2, -1 / SQRT2], atol=1e-15)

    @pytest.mark.parametrize("n,order", [(64, 1), (64, 2), (64, 3), (128, 4)])
    def test_matches_dense_inverse(self, n, order):
        basis = make_basis(make_grid(1, n), order=order)
        w = basis.matrix
        np.testing.assert_allclose(w.toarray(), loop_matrix(n, order), atol=1e-12)
        assert w.has_sorted_indices
        assert np.all(w.data != 0.0)

    def test_2d_outer_product(self):
        n = 16
        basis = make_basis(make_grid(2, n), order=2)
        w = make_basis(make_grid(1, n), order=2).matrix.toarray()
        for i in (0, 37, n * n - 1):
            i1, i2 = divmod(i, n)
            e = np.zeros(n * n)
            e[i] = 1.0
            np.testing.assert_allclose(
                transform_inverse(basis, e), np.outer(w[:, i1], w[:, i2]).ravel(), atol=1e-13
            )

    def test_total_nonzeros_bound_order2_n512(self):
        n = 512
        basis = make_basis(make_grid(1, n), order=2)
        bound = 4 * n * int(np.log2(n))
        assert basis.matrix.nnz <= bound, f"nnz {basis.matrix.nnz} exceeds {bound}"
