import inspect

import numpy as np
import pytest

import waveng
from waveng import operators
from waveng.experiments import build_potential, load_preset
from waveng.grid import Density, make_grid, reference_measure, uniform_density
from waveng.losses import (
    KLForm,
    LossSpec,
    along_line,
    combined_eval,
    e1_eval,
    e2_eval,
    e3_eval,
)
from waveng.metrics import MetricKind, build_precomp, metric_apply_fn
from waveng.optimizer import DescentConfig, run_descent
from waveng.wavelets import make_basis, transform_forward


def sin_measure(n: int) -> Density:
    grid = make_grid(1, n)
    return reference_measure(grid, np.sin(4 * np.pi * np.arange(n) / n))


def random_positive_density(grid, rng) -> np.ndarray:
    values = rng.uniform(0.5, 1.5, grid.total)
    return values / values.sum()


def directional_fd(fn, p, direction, step=1e-5):
    """Fourth-order central difference of fn at p along direction.

    The second-order one, (f(p + h d) - f(p - h d)) / 2h, leaves a truncation
    error that exceeded the 1e-5 bounds below on about 4 % of random draws.
    """
    def at(t):
        return fn(p + t * step * direction)

    return (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * step)


class TestE1:
    def test_zero_at_mu(self):
        mu = sin_measure(64)
        ev = e1_eval(mu.values, mu)
        assert ev.value == 0.0
        np.testing.assert_array_equal(ev.gradient, np.zeros(64))

    def test_uniform_weight_eigenmode(self):
        n, k, eps = 64, 5, 1e-3
        grid = make_grid(1, n)
        mu = uniform_density(grid)
        s = np.sin(2 * np.pi * k * np.arange(n) / n)
        lam = 4 * n**2 * np.sin(np.pi * k / n) ** 2
        p = mu.values + eps * s
        ev = e1_eval(p, mu)
        want_value = eps**2 * n * (s @ s) / (2 * lam)
        assert ev.value == pytest.approx(want_value, rel=1e-6, abs=0)
        np.testing.assert_allclose(ev.gradient, (eps * n / lam) * s, rtol=1e-6, atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(31)
        mu = sin_measure(32)
        p = random_positive_density(mu.grid, rng)
        ev = e1_eval(p, mu)
        for _ in range(5):
            d = rng.standard_normal(32)
            fd = directional_fd(lambda q: e1_eval(q, mu).value, p, d)
            assert ev.gradient @ d == pytest.approx(fd, rel=1e-5, abs=0)

    def test_constant_shift_contributes_nothing(self):
        mu = sin_measure(32)
        p = mu.values + 0.25 / 32
        ev = e1_eval(p, mu)
        assert abs(ev.value) <= 1e-18
        np.testing.assert_allclose(ev.gradient, 0.0, atol=1e-12)


class TestE2:
    def test_zero_at_mu(self):
        mu = sin_measure(16)
        ev = e2_eval(mu.values, mu)
        assert ev.value == 0.0
        np.testing.assert_array_equal(ev.gradient, np.zeros(16))

    def test_hand_example_two_sites(self):
        # embedded in a 4-site grid split as [0.5, 0.5] vs [0.75, 0.25] on
        # two halves; the masses are equal, so the mass correction adds 0
        grid = make_grid(1, 4)
        p = Density(grid, np.array([0.25, 0.25, 0.25, 0.25]))
        mu = Density(grid, np.array([0.375, 0.375, 0.125, 0.125]))
        want = 0.5 * np.log(0.5 / 0.75) + 0.5 * np.log(0.5 / 0.25)
        assert e2_eval(p.values, mu).value == pytest.approx(want, abs=1e-14)

    def test_takes_p_and_mu_only(self):
        assert list(inspect.signature(e2_eval).parameters) == ["p", "mu"]

    def test_infeasible_gives_inf(self):
        mu = sin_measure(16)
        p = mu.values.copy()
        for bad in (0.0, -1e-9):
            p[3] = bad
            with pytest.raises(ValueError, match="positive"):
                e2_eval(p, mu)

    def test_corrected_nonnegative_off_simplex(self):
        rng = np.random.default_rng(32)
        mu = sin_measure(32)
        for _ in range(20):
            p = rng.uniform(0.1, 3.0, 32) / 32
            assert e2_eval(p, mu).value >= 0.0

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(33)
        mu = sin_measure(32)
        p = random_positive_density(mu.grid, rng)
        ev = e2_eval(p, mu)
        for _ in range(5):
            d = rng.standard_normal(32)
            fd = directional_fd(lambda q: e2_eval(q, mu).value, p, d)
            assert ev.gradient @ d == pytest.approx(fd, rel=1e-5, abs=0)


class TestE3:
    def test_zero_at_mu(self):
        mu = sin_measure(16)
        ev = e3_eval(mu.values, mu)
        assert ev.value == 0.0
        np.testing.assert_array_equal(ev.gradient, np.zeros(16))

    def test_eigenmode_value(self):
        n, k, eps = 64, 9, 1e-3
        grid = make_grid(1, n)
        mu = uniform_density(grid)
        s = np.sin(2 * np.pi * k * np.arange(n) / n)
        lam = 4 * n**2 * np.sin(np.pi * k / n) ** 2
        ev = e3_eval(mu.values + eps * s, mu)
        assert ev.value == pytest.approx(0.5 * eps**2 * lam * (s @ s), rel=1e-8, abs=0)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(34)
        mu = sin_measure(32)
        p = random_positive_density(mu.grid, rng)
        ev = e3_eval(p, mu)
        for _ in range(5):
            d = rng.standard_normal(32)
            fd = directional_fd(lambda q: e3_eval(q, mu).value, p, d)
            assert ev.gradient @ d == pytest.approx(fd, rel=1e-6, abs=0)

    def test_nonnegative(self):
        rng = np.random.default_rng(35)
        mu = sin_measure(32)
        for _ in range(20):
            assert e3_eval(rng.uniform(0.1, 2.0, 32) / 32, mu).value >= 0.0


class TestCombined:
    def test_paper_alphas_zero_at_mu(self):
        mu = sin_measure(64)
        spec = LossSpec(1.0, 1e-3, 1e-4, mu=mu)
        assert combined_eval(mu.values, spec).value == 0.0

    @pytest.mark.parametrize("alphas", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 1e-4),
                                        (0.0, 1e-3, 1e-4), (1.0, 1e-3, 1e-4)])
    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_gradient_at_mu_is_positive_zero(self, alphas, dim, n):
        # Q 0 takes no case of its own: the K-solve of a zero right-hand
        # side and the Laplacian of zeros both return +0 at every site
        mu = TestSiteArrays.measure(dim, n)
        ev = combined_eval(mu.values, LossSpec(*alphas, mu=mu))
        assert ev.value == 0.0 and ev.quadratic[0] == 0.0
        for v in (ev.gradient, ev.quadratic[1]):
            assert not v.any() and not np.signbit(v).any() and not v.flags.writeable

    def test_single_term_reduces_to_e2(self):
        rng = np.random.default_rng(36)
        mu = sin_measure(32)
        spec = LossSpec(0.0, 1.0, 0.0, mu=mu)
        p = random_positive_density(mu.grid, rng)
        full = combined_eval(p, spec)
        only = e2_eval(p, mu)
        assert full.value == only.value
        np.testing.assert_array_equal(full.gradient, only.gradient)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(37)
        mu = sin_measure(32)
        spec = LossSpec(1.0, 1e-3, 1e-4, mu=mu)
        p = random_positive_density(mu.grid, rng)
        ev = combined_eval(p, spec)
        for _ in range(5):
            d = rng.standard_normal(32)
            fd = directional_fd(lambda q: combined_eval(q, spec).value, p, d)
            assert ev.gradient @ d == pytest.approx(fd, rel=1e-5, abs=0)

    def test_affine_in_alphas(self):
        rng = np.random.default_rng(38)
        mu = sin_measure(32)
        p = random_positive_density(mu.grid, rng)
        parts = np.array(
            [e1_eval(p, mu).value, e2_eval(p, mu).value, e3_eval(p, mu).value]
        )
        for _ in range(3):
            alphas = rng.uniform(0.1, 2.0, 3)
            spec = LossSpec(*alphas, mu=mu)
            assert combined_eval(p, spec).value == pytest.approx(alphas @ parts, rel=1e-12, abs=0)

    def test_infeasible_propagates(self):
        mu = sin_measure(16)
        spec = LossSpec(1.0, 1e-3, 1e-4, mu=mu)
        p = mu.values.copy()
        p[0] = -1e-6
        with pytest.raises(ValueError, match="positive"):
            combined_eval(p, spec)

    def test_alpha_validation(self):
        mu = sin_measure(16)
        with pytest.raises(ValueError):
            LossSpec(0.0, 0.0, 0.0, mu=mu)
        with pytest.raises(ValueError):
            LossSpec(-1.0, 0.0, 1.0, mu=mu)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, True, False, np.True_, np.False_])
    def test_non_finite_alpha_rejected(self, slot, bad):
        # a nan alpha used to drop its term silently (nan > 0 is False) and
        # an inf alpha to make every density infeasible; a bool used to be
        # stored as the alpha
        alphas = [1.0, 1e-3, 1e-4]
        alphas[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            LossSpec(*alphas, mu=sin_measure(16))

    @pytest.mark.parametrize("alpha2", [1e-3, 0.0])
    def test_kl_form_checked_and_stored_as_enum(self, alpha2):
        # checked at construction, so also when alpha2 = 0 and the KL term
        # never runs
        mu = sin_measure(16)
        for bad in ("bogus", "plain"):
            with pytest.raises(ValueError, match=bad):
                LossSpec(1.0, alpha2, 0.0, mu=mu, kl_form=bad)
        spec = LossSpec(1.0, alpha2, 0.0, mu=mu, kl_form="mass_corrected")
        assert spec.kl_form is KLForm.MASS_CORRECTED

    def test_one_kl_form_not_exported(self):
        assert list(KLForm) == [KLForm.MASS_CORRECTED]
        assert not hasattr(waveng, "KLForm")

    def test_mu_must_be_a_density(self):
        with pytest.raises(TypeError, match="Density"):
            LossSpec(1.0, 1e-3, 0.0, mu=sin_measure(16).values)


class TestSiteArrays:
    """Every loss entry takes one value per site of mu's grid and refuses any other length.

    With alpha2 = 0 an array of one value used to broadcast against mu and
    return a number: 0.0019 for the combined loss on 1D n = 16.
    """

    LOSSES = {
        "e1": e1_eval,
        "e2": e2_eval,
        "e3": e3_eval,
        "combined": lambda p, mu: combined_eval(p, LossSpec(1.0, 0.0, 1e-4, mu=mu)),
    }

    @staticmethod
    def measure(dim: int, n: int) -> Density:
        grid = make_grid(dim, n)
        return reference_measure(grid, np.random.default_rng(dim * n).standard_normal(grid.total))

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_loss_rejects_wrong_length(self, loss, dim, n):
        mu = self.measure(dim, n)
        total = mu.grid.total
        for p in (np.array([1.0 / total]), np.full(total - 1, 0.1), np.full((n,) * 2, 0.1)):
            with pytest.raises(ValueError, match="does not match grid"):
                self.LOSSES[loss](p, mu)
        assert np.isfinite(self.LOSSES[loss](mu.values, mu).value)

    @pytest.mark.parametrize("loss", LOSSES)
    def test_loss_refuses_mu_not_strictly_positive(self, loss):
        # e2 used to divide by the zero site (a RuntimeWarning) and e3 to
        # return a number; such a mu is now refused as a Density, and a loss
        # takes its mu as nothing else
        grid = make_grid(1, 16)
        mu = np.full(16, 1 / 16)
        mu[3] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            Density(grid, mu)
        with pytest.raises(TypeError, match="mu must be a Density"):
            self.LOSSES[loss](np.full(16, 1 / 16), mu)

    @pytest.mark.parametrize("loss", [*LOSSES, "combined a2>0"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_loss_rejects_non_finite(self, loss, bad, dim, n):
        # e2, e3 and the combined loss with alpha2 = 0 used to return nan,
        # and with alpha2 > 0 to price such a p as infeasible (+inf)
        entries = {
            **self.LOSSES,
            "combined a2>0": lambda p, mu: combined_eval(p, LossSpec(1.0, 1e-3, 1e-4, mu=mu)),
        }
        mu = self.measure(dim, n)
        p = mu.values.copy()
        p[3] = bad
        with pytest.raises(ValueError, match="finite"):
            entries[loss](p, mu)

    @pytest.mark.parametrize("entry", [*LOSSES, "fisher_rao", "transform_forward"])
    def test_complex_refused(self, entry):
        # used to keep only the real part, with a ComplexWarning
        entries = {
            **self.LOSSES,
            "fisher_rao": lambda g, mu: metric_apply_fn(MetricKind.FISHER_RAO, mu.grid)(mu, g, mu),
            "transform_forward": lambda p, mu: transform_forward(make_basis(mu.grid), p),
        }
        mu = self.measure(1, 16)
        with pytest.raises(TypeError, match="real numbers"):
            entries[entry](mu.values + 0.5j, mu)

    @pytest.mark.parametrize("alphas", [(1.0, 0.0, 1e-4), (0.0, 1e-3, 0.0)])
    def test_along_line_rejects_wrong_length(self, alphas):
        mu = self.measure(1, 16)
        spec = LossSpec(*alphas, mu=mu)
        p = uniform_density(mu.grid).values
        ev = combined_eval(p, spec)
        s = np.random.default_rng(5).standard_normal(16) * 1e-3
        for bad in (np.array([1 / 16]), np.full(17, 1 / 16)):
            with pytest.raises(ValueError, match="does not match grid"):
                along_line(spec, bad, ev, s)
            with pytest.raises(ValueError, match="does not match grid"):
                along_line(spec, p, ev, np.zeros_like(bad))
        assert along_line(spec, p, ev, s)(1.0).point is not None

    @pytest.mark.parametrize("entry", [*LOSSES, "transform_forward"])
    def test_density_refused_with_a_hint(self, entry):
        # used to fail inside NumPy: float() argument must be ... not 'Density'
        entries = {
            **self.LOSSES,
            "transform_forward": lambda p, mu: transform_forward(make_basis(mu.grid), p),
        }
        mu = self.measure(1, 16)
        with pytest.raises(TypeError, match=r"Density.*pass its \.values"):
            entries[entry](uniform_density(mu.grid), mu)


class TestDomain:
    """One domain rule: every loss entry refuses a site <= 0 before any solve.

    Only a line's trial prices such a point, as +inf, for the Armijo rule
    to reject.  combined_eval used to return +inf with alpha2 > 0, after the
    K-solve and, in 2D, the solve's set-up, and a finite value with
    alpha2 = 0: 0.00174 on the 1d-2 mix at n = 512 with one site at 0.
    """

    MIXES = {
        "e1": (1.0, 0.0, 0.0),
        "e2": (0.0, 1.0, 0.0),
        "e3": (0.0, 0.0, 1.0),
        "a2=0": (1.0, 0.0, 1e-4),
        "a2>0": (1.0, 1e-3, 1e-4),
    }
    ENTRIES = {
        "e1": e1_eval,
        "e2": e2_eval,
        "e3": e3_eval,
        "a2=0": lambda p, mu: combined_eval(p, LossSpec(1.0, 0.0, 1e-4, mu=mu)),
        "a2>0": lambda p, mu: combined_eval(p, LossSpec(1.0, 1e-3, 1e-4, mu=mu)),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("bad", [0.0, -1e-9])
    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_entry_refuses_before_any_solve(self, entry, bad, dim, n):
        mu = TestSiteArrays.measure(dim, n)
        p = uniform_density(mu.grid).values.copy()
        p[3] = bad
        caches = (operators.scaled_operator, operators._closed_form_set_up)
        for cache in caches:
            cache.cache_clear()
        with pytest.raises(ValueError, match="positive"):
            self.ENTRIES[entry](p, mu)
        # no K-solve set-up (2D or 1D, alpha1 > 0) was built
        assert [cache.cache_info().currsize for cache in caches] == [0, 0]

    @pytest.mark.parametrize("mix", MIXES)
    @pytest.mark.parametrize("bad", [0.0, -1e-9])
    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 8)])
    def test_line_trial_prices_inf(self, mix, bad, dim, n):
        mu = TestSiteArrays.measure(dim, n)
        spec = LossSpec(*self.MIXES[mix], mu=mu)
        p = mu.values
        t = p.copy()
        t[3] = bad
        trial = along_line(spec, p, combined_eval(p, spec), p - t)(1.0)
        assert trial.value == np.inf and trial.point is None


class TestSolveSetUp:
    """The mu-weighted operator behind E1 is assembled once per mu, on first use."""

    @pytest.fixture
    def builds(self):
        """The scaled-operator cache, emptied: its misses count the assemblies."""
        cache = operators.scaled_operator
        cache.cache_clear()
        return cache

    @staticmethod
    def descend(preset_id, kinds, spec=None):
        preset = load_preset(preset_id)
        grid = make_grid(preset.dim, preset.n)
        if spec is None:
            mu = reference_measure(grid, build_potential(grid, preset.potential_id))
            spec = LossSpec(*preset.alphas, mu=mu)
        precomp = build_precomp(make_basis(grid))
        for kind in kinds:
            metric = metric_apply_fn(kind, grid, precomp=precomp, alphas=preset.alphas)
            run_descent(uniform_density(grid), spec, metric, DescentConfig(max_iterations=3))
        return spec

    def test_once_over_2d_descents(self, builds):
        spec = self.descend("2d-4", [MetricKind.COMBINED, MetricKind.WASSERSTEIN])
        assert builds.cache_info().misses == 1
        set_up = builds(spec.mu)  # a hit: the operator built for this mu
        assert builds.cache_info().misses == 1
        self.descend("2d-4", [MetricKind.COMBINED], spec=spec)
        assert builds.cache_info().misses == 1 and builds(spec.mu) is set_up

    def test_once_over_2d_e1_evaluations(self, builds):
        preset = load_preset("2d-4")
        grid = make_grid(preset.dim, preset.n)
        mu = reference_measure(grid, build_potential(grid, preset.potential_id))
        p = uniform_density(grid).values
        first = e1_eval(p, mu)
        np.testing.assert_array_equal(e1_eval(p, mu).gradient, first.gradient)
        assert builds.cache_info().misses == 1

    def test_never_for_zero_rhs_alpha1_zero_or_1d(self, builds):
        preset = load_preset("2d-4")
        grid = make_grid(preset.dim, preset.n)
        mu = reference_measure(grid, build_potential(grid, preset.potential_id))
        assert combined_eval(mu.values, LossSpec(*preset.alphas, mu=mu)).value == 0.0
        self.descend("2d-3", [MetricKind.COMBINED])  # alpha1 = 0
        self.descend("1d-4", [MetricKind.COMBINED])  # closed-form 1D solve
        assert builds.cache_info().misses == 0

    def test_once_over_1d_descents(self):
        # 1 / mu, its sum, argmin and max, built by the first K-solve and
        # shared by the line searches of all four metrics; E(mu) builds none
        cache = operators._closed_form_set_up
        cache.cache_clear()
        preset = load_preset("1d-4")
        grid = make_grid(preset.dim, preset.n)
        mu = reference_measure(grid, build_potential(grid, preset.potential_id))
        spec = LossSpec(*preset.alphas, mu=mu)
        assert combined_eval(mu.values, spec).value == 0.0
        assert cache.cache_info().currsize == 0
        self.descend("1d-4", preset.metrics, spec=spec)
        info = cache.cache_info()
        assert info.misses == 1 and info.hits > 0
