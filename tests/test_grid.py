import warnings

import numpy as np
import pytest

from stencil_reference import axis_apply, random_factor
from waveng.grid import (
    Density,
    Grid,
    check_vector,
    make_grid,
    reference_measure,
    site_coordinates,
    tensor_apply,
    tensor_factor,
    uniform_density,
)


class TestMakeGrid:
    def test_1d_paper_size(self):
        grid = make_grid(1, 512)
        assert grid.total == 512

    def test_2d_paper_size(self):
        grid = make_grid(2, 64)
        assert grid.total == 4096

    @pytest.mark.parametrize("n", [5, 6, 12, 100, 3])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            make_grid(1, n)

    def test_rejects_small_n_and_bad_dim(self):
        with pytest.raises(ValueError):
            make_grid(1, 2)
        with pytest.raises(ValueError):
            make_grid(3, 8)
        with pytest.raises(ValueError):
            make_grid(0, 8)

    @pytest.mark.parametrize(
        "dim,n",
        [(1, 6), (3, 4), (0, 8), (1, 2), (2, 12), (1, 8.0),
         (True, 8), (np.True_, 8), (2.0, 8), (np.float64(1.0), 8)],
    )
    def test_grid_built_directly_is_checked(self, dim, n):
        # Grid(1, 6) used to give a 6 x 5 basis, and on Grid(3, 4) the
        # Laplacian applied the last axis in place of axis 1; True and 2.0
        # used to pass as dims because they equal 1 and 2
        dim_ok = type(dim) is int and dim in (1, 2)
        with pytest.raises(ValueError, match="power of 2" if dim_ok else "dim"):
            Grid(dim, n)

    def test_grid_built_directly_equals_make_grid(self):
        grid = Grid(np.int64(2), np.int64(16))
        assert type(grid.dim) is int and type(grid.n) is int
        assert grid == make_grid(2, 16) and hash(grid) == hash(make_grid(2, 16))

    def test_site_coordinates(self):
        grid = make_grid(1, 8)
        np.testing.assert_allclose(site_coordinates(grid)[0], np.arange(8) / 8)
        grid2 = make_grid(2, 4)
        coords = site_coordinates(grid2)
        assert coords.shape == (2, 16)
        # row-major: site (s1, s2) -> s1*n + s2
        assert coords[0, 5] == 1 / 4 and coords[1, 5] == 1 / 4


class TestReferenceMeasure:
    def test_zero_potential_is_uniform(self):
        grid = make_grid(1, 8)
        mu = reference_measure(grid, np.zeros(8))
        np.testing.assert_array_equal(mu.values, np.full(8, 1 / 8))

    def test_two_level_normalization(self):
        # exp(-[0, ln 3, 0, ln 3]) = [1, 1/3, 1, 1/3] -> normalized [3/8, 1/8, 3/8, 1/8]
        mu = reference_measure(make_grid(1, 4), np.array([0.0, np.log(3.0)] * 2))
        np.testing.assert_allclose(mu.values, [0.375, 0.125] * 2, atol=1e-15)

    def test_paper_potential(self):
        grid = make_grid(1, 512)
        v = np.sin(4 * np.pi * np.arange(512) / 512)
        mu = reference_measure(grid, v)
        assert abs(mu.values.sum() - 1.0) <= 1e-12
        assert mu.min > 0
        # measure is smallest where the potential peaks
        assert np.argmin(mu.values) == np.argmax(v)

    def test_shift_invariance(self):
        grid = make_grid(1, 64)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(64)
        a = reference_measure(grid, v).values
        b = reference_measure(grid, v + 17.5).values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_overflow_safe(self):
        # exp(1000) overflows without the shift; a span of 700 still leaves
        # every weight a normal float, while a span of 2000 underflows
        grid = make_grid(1, 8)
        mu = reference_measure(grid, np.linspace(-1000.0, -300.0, 8))
        assert np.all(np.isfinite(mu.values)) and abs(mu.values.sum() - 1) <= 1e-12
        with pytest.raises(ValueError, match="spans 2000"):
            reference_measure(grid, np.linspace(-1000.0, 1000.0, 8))

    def test_underflowing_span_raises(self):
        # exp(-800) underflows to 0, so the measure could not be strictly
        # positive; exp(-700) does not
        grid = make_grid(1, 8)
        v = np.zeros(8)
        v[3] = 800.0
        with pytest.raises(ValueError, match="spans 800"):
            reference_measure(grid, v)
        v[3] = 700.0
        mu = reference_measure(grid, v)
        assert mu.min > 0.0 and abs(mu.mass - 1.0) <= 1e-12

    def test_overflowing_span_raises_without_warning(self):
        # v - v.min() would overflow to inf; the span is checked first, so
        # the caller gets the documented ValueError, not a RuntimeWarning
        # (an error under the suite's filter)
        grid = make_grid(1, 8)
        v = np.zeros(8)
        v[0], v[1] = -1e308, 1e308
        with pytest.raises(ValueError, match="spans inf"):
            reference_measure(grid, v)

    def test_grid_mismatch(self):
        # a potential sampled on another grid has another length
        with pytest.raises(ValueError):
            reference_measure(make_grid(1, 8), np.zeros(16))

    @pytest.mark.parametrize("dim,shape", [(1, (7,)), (1, (9,)), (2, (8, 8)), (2, (16,)), (1, ())])
    def test_rejects_potential_of_wrong_length(self, dim, shape):
        with pytest.raises(ValueError, match="does not match grid"):
            reference_measure(make_grid(dim, 8), np.zeros(shape))

    @pytest.mark.parametrize("dtype", [complex, bool, str, object])
    def test_rejects_non_real_potential(self, dtype):
        # a complex potential used to lose its imaginary part with only a
        # ComplexWarning, and "0.5" strings were parsed as numbers
        v = np.zeros(8).astype(dtype)
        with pytest.raises(TypeError, match="real numbers"):
            reference_measure(make_grid(1, 8), v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_potential(self, bad):
        v = np.zeros(8)
        v[3] = bad
        with pytest.raises(ValueError, match="finite"):
            reference_measure(make_grid(1, 8), v)


class TestUniformDensity:
    @pytest.mark.parametrize("dim,n", [(1, 4), (1, 512), (2, 64)])
    def test_values_and_mass(self, dim, n):
        grid = make_grid(dim, n)
        u = uniform_density(grid)
        np.testing.assert_array_equal(u.values, np.full(grid.total, 1.0 / grid.total))
        assert u.mass == pytest.approx(1.0, abs=1e-12)

    def test_equals_reference_of_zero_potential_exactly(self):
        grid = make_grid(2, 8)
        u = uniform_density(grid)
        mu = reference_measure(grid, np.zeros(grid.total))
        np.testing.assert_array_equal(u.values, mu.values)


class TestDensityValidation:
    def test_wrong_length(self):
        with pytest.raises(ValueError):
            Density(make_grid(1, 8), np.ones(7))

    @pytest.mark.parametrize("bad", [0.0, -1e-9, -np.inf, np.inf, np.nan])
    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 4)])
    def test_non_finite_rejected(self, dim, n, bad):
        # a site <= 0 used to pass, and each consumer decided what to do
        # with it: some refused it, the Fisher-Rao metric returned diag(p) g
        grid = make_grid(dim, n)
        values = np.full(grid.total, 1 / grid.total)
        values[grid.total // 2] = bad
        with pytest.raises(ValueError, match="finite and strictly positive"):
            Density(grid, values)

    @pytest.mark.parametrize("dim,n,site", [(1, 16, 1.5e307), (2, 8, 3e306)])
    def test_mass_that_overflows_rejected(self, dim, n, site):
        # every site finite and > 0, but the sum past the float range: such a
        # density used to be built with mass = inf after a RuntimeWarning
        grid = make_grid(dim, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sum must be finite"):
                Density(grid, np.full(grid.total, site))
            # half of each site is a density: the rule is on the sum, not the sites
            assert Density(grid, np.full(grid.total, site / 2)).mass < np.inf

    @pytest.mark.parametrize("dtype", [complex, bool, str, object])
    def test_non_real_rejected(self, dtype):
        values = np.full(8, 1 / 8).astype(dtype)
        with pytest.raises(TypeError, match="real numbers"):
            Density(make_grid(1, 8), values)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32])
    def test_real_dtypes_cast_to_float64(self, dtype):
        density = Density(make_grid(1, 8), np.ones(8, dtype=dtype))
        assert density.values.dtype == np.float64 and density.mass == 8.0

    def test_values_are_a_read_only_view(self):
        # a write through the density would leave its cached solve set-up stale
        values = np.full(8, 1 / 8)
        density = Density(make_grid(1, 8), values)
        with pytest.raises(ValueError, match="read-only"):
            density.values[0] = 0.5
        assert values.flags.writeable and not np.shares_memory(density.values, values)

    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 4)])
    def test_min_and_mass_are_the_values(self, dim, n):
        # kept from the construction check, not scanned again on each read
        values = np.random.default_rng(dim + n).uniform(0.1, 1.0, n**dim)
        density = Density(make_grid(dim, n), values)
        assert density.min == values.min() and density.mass == values.sum()
        assert type(density.min) is float and type(density.mass) is float

    @pytest.mark.parametrize(
        "frozen_input",
        [lambda a: a[:8], lambda a: a[::2], lambda a: a.reshape(2, 8)[0],
         lambda a: a[:8].astype(np.int64)],
        ids=["head", "strided", "row", "int64"],
    )
    def test_frozen_input_is_copied_unless_it_owns_float64_data(self, frozen_input):
        # a view's base may be made writable again by whoever holds it
        base = np.full(16, 2.0)
        values = frozen_input(base)
        base.flags.writeable = values.flags.writeable = False
        density = Density(make_grid(1, 8), values)
        assert not np.shares_memory(density.values, base)
        assert not np.shares_memory(density.values, values)
        assert density.values.flags.c_contiguous and not density.values.flags.writeable
        np.testing.assert_array_equal(density.values, values)

    def test_frozen_array_that_owns_its_data_is_held(self):
        # the descent's accepted trial point becomes the next density uncopied
        values = np.full(8, 1 / 8)
        values.flags.writeable = False
        assert Density(make_grid(1, 8), values).values is values

    def test_compared_and_hashed_by_identity(self):
        # caches key on a density (operators._scaled_operator), so
        # equal values must not make two densities one key
        grid = make_grid(2, 4)
        a, b = uniform_density(grid), uniform_density(grid)
        assert a != b and a == a
        assert len({a, b, a}) == 2


class TestTensorRule:
    """tensor_apply against dense Kronecker products and the axis-by-axis CSR oracle."""

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_1d_is_the_factor(self, n):
        a = random_factor(n, n)
        v = np.random.default_rng(1).standard_normal(n)
        assert np.abs(a.toarray() - a.toarray().T).max() > 0.1
        np.testing.assert_allclose(tensor_apply([a], v), a.toarray() @ v, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_2d_matches_kron(self, n):
        a0, a1 = random_factor(n, 2 * n), random_factor(n, 2 * n + 1)
        d0, d1 = a0.toarray(), a1.toarray()
        assert min(np.abs(d - d.T).max() for d in (d0, d1)) > 0.1
        v = np.random.default_rng(2).standard_normal(n * n)
        got = tensor_apply([a0, a1.T], v)
        assert got.shape == (n * n,)
        np.testing.assert_allclose(got, np.kron(d0, d1) @ v, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_2d_dense_factors_match_kron(self, n):
        # dense factors and transposed views; the right factor is the one
        # multiplied by, A1^T, as the 2D transforms pass W and W^T
        d0, d1 = random_factor(n, 3 * n).toarray(), random_factor(n, 3 * n + 1).toarray()
        v = np.random.default_rng(3).standard_normal(n * n)
        for a0, right in ((d0, d1), (d0.T, d1.T), (d0, d1.T)):
            got = tensor_apply([a0, right], v)
            assert got.shape == (n * n,)
            np.testing.assert_allclose(got, np.kron(a0, right.T) @ v, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_2d_csr_is_axis_by_axis_bitwise(self, n):
        a0, a1 = random_factor(n, 4 * n), random_factor(n, 4 * n + 1)
        v = np.random.default_rng(4).standard_normal(n * n)
        by_axis = axis_apply(a1, axis_apply(a0, v, 0, 2), 1, 2)
        np.testing.assert_array_equal(tensor_apply([a0, a1.T], v), by_axis)

    def test_tensor_factor_forms(self):
        # the CSR matrix itself in 1D, a read-only C-contiguous dense copy in 2D
        a = random_factor(8, 5)
        assert tensor_factor(a, 1) is a
        dense = tensor_factor(a, 2)
        assert isinstance(dense, np.ndarray)
        assert not dense.flags.writeable and dense.flags.c_contiguous
        np.testing.assert_array_equal(dense, a.toarray())


class TestSiteVectors:
    ENTRIES = (check_vector, Density, reference_measure)

    @pytest.mark.parametrize(
        "bad,error",
        [(np.zeros(15), ValueError), (np.zeros((4, 4)), ValueError),
         (np.zeros(16, dtype=complex), TypeError), (np.zeros(16, dtype=bool), TypeError)],
        ids=["short", "2d-shape", "complex", "bool"],
    )
    def test_one_rule_for_every_site_vector(self, bad, error):
        # a density's values and a potential are site vectors: a wrong dtype
        # or length gets check_vector's own error from all three entries
        grid = make_grid(2, 4)
        messages = set()
        for entry in self.ENTRIES:
            with pytest.raises(error) as excinfo:
                entry(grid, bad)
            messages.add(str(excinfo.value))
        assert len(messages) == 1

    def test_check_vector(self):
        grid = make_grid(2, 4)
        out = check_vector(grid, [1] * 16)
        assert out.dtype == np.float64 and out.shape == (16,)
        with pytest.raises(ValueError, match="grid"):
            check_vector(grid, np.zeros(15))
        with pytest.raises(ValueError, match="grid"):
            check_vector(grid, np.zeros((4, 4)))
        with pytest.raises(TypeError, match=r"Density.*pass its \.values"):
            check_vector(grid, uniform_density(grid))
