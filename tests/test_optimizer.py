import numpy as np
import pytest

from waveng.grid import Density, make_grid, reference_measure, uniform_density, Potential
from waveng.losses import LossEval, LossSpec
from waveng.metrics import MetricKind, build_precomp, metric_apply_fn
from waveng.optimizer import DescentConfig, armijo_step, run_descent
from waveng.wavelets import make_basis


def quadratic_loss(values: np.ndarray) -> LossEval:
    return LossEval(value=0.5 * float(values @ values), gradient=values.copy())


def identity_metric(p, g):
    return g


def sin_setup(n=64, alphas=(1.0, 1e-3, 1e-4)):
    grid = make_grid(1, n)
    mu = reference_measure(grid, Potential(grid, np.sin(4 * np.pi * np.arange(n) / n)))
    spec = LossSpec(*alphas, mu=mu)
    pre = build_precomp(make_basis(grid))
    metric = metric_apply_fn(MetricKind.COMBINED, grid, precomp=pre, alphas=alphas)
    return grid, mu, spec, metric


class TestArmijoStep:
    def test_quadratic_accepts_full_step(self):
        # s = g = p, and E(p - s) - E(p) = -||p||^2/2 meets the Armijo bound
        # with equality, so eta = 1 is accepted with no halving
        grid = make_grid(1, 16)
        p = Density(grid, np.full(16, 1.0 / 16))
        p_next, ev, diag = armijo_step(p, quadratic_loss, identity_metric)
        assert diag.accepted and diag.eta == 1.0 and diag.halvings == 0
        np.testing.assert_array_equal(p_next.values, np.zeros(16))
        assert ev.value == 0.0

    def test_non_descent_direction_stalls(self):
        grid = make_grid(1, 16)
        p = Density(grid, np.full(16, 1.0 / 16))
        ascent = lambda dens, g: -g
        p_next, _, diag = armijo_step(p, quadratic_loss, ascent)
        assert not diag.accepted and diag.reason == "non-descent direction"
        np.testing.assert_array_equal(p_next.values, p.values)

    def test_infeasible_trial_forces_halving(self):
        # a direction large enough to leave the positive orthant at eta = 1
        # is rejected through the +inf convention and a smaller step lands
        grid, mu, spec, _ = sin_setup(16, alphas=(0.0, 1.0, 0.0))
        p = uniform_density(grid)
        big = lambda dens, g: np.full(16, 2.0 / 16) * np.sign(g.sum() or 1.0)
        p_next, _, diag = armijo_step(p, spec, big)
        assert diag.halvings >= 1
        if diag.accepted:
            assert p_next.min > 0

    def test_exhausts_max_halvings(self):
        # a flat loss with a lying gradient can never satisfy sufficient
        # decrease, so every halving is spent
        grid = make_grid(1, 16)
        p = Density(grid, np.full(16, 1.0 / 16))
        flat_loss = lambda values: LossEval(value=0.0, gradient=np.ones(16))
        p_next, _, diag = armijo_step(p, flat_loss, identity_metric, DescentConfig(max_halvings=5))
        assert not diag.accepted and diag.halvings == 5
        assert "max_halvings" in diag.reason

    def test_fixed_point_at_mu(self):
        grid, mu, spec, metric = sin_setup()
        p_next, _, diag = armijo_step(mu, spec, metric)
        assert not diag.accepted  # zero gradient -> zero direction -> stall
        assert np.max(np.abs(p_next.values - mu.values)) <= 1e-10


class TestRunDescent:
    def test_converges_on_quadratic(self):
        grid = make_grid(1, 16)
        p0 = Density(grid, np.full(16, 1.0 / 16))
        hist = run_descent(p0, quadratic_loss, identity_metric, DescentConfig(gap_tolerance=1e-12))
        assert hist.status == "converged"
        assert hist.final_gap <= 1e-12
        # a callable loss has reference value 0 and no reference density
        assert hist.reference_value == 0.0
        np.testing.assert_array_equal(hist.column("gap"), hist.column("loss"))
        assert np.all(np.isnan(hist.column("distance_to_reference")))

    def test_fixed_point_terminates_at_iteration_zero(self):
        grid, mu, spec, metric = sin_setup()
        hist = run_descent(mu, spec, metric)
        assert hist.status == "converged"
        assert hist.iterations == 0
        assert abs(hist.final_gap) <= 1e-12

    def test_monotone_descent_and_feasibility(self):
        grid, mu, spec, metric = sin_setup()
        hist = run_descent(uniform_density(grid), spec, metric, DescentConfig(max_iterations=50))
        losses = hist.column("loss")
        assert np.all(np.diff(losses) < 0.0)
        assert np.all(hist.column("min_value") > 0.0)

    def test_mass_frozen_with_alpha1(self):
        grid, mu, spec, metric = sin_setup()
        hist = run_descent(uniform_density(grid), spec, metric, DescentConfig(max_iterations=100))
        mass = hist.column("mass")
        assert np.max(np.abs(mass - mass[0])) <= 1e-8

    def test_reaches_target_fast_on_1d_preset(self):
        grid, mu, spec, metric = sin_setup(512)
        p0 = uniform_density(grid)
        from waveng.losses import combined_eval

        gap0 = combined_eval(p0, spec).value
        cfg = DescentConfig(max_iterations=100, gap_tolerance=1e-6 * gap0)
        hist = run_descent(p0, spec, metric, cfg)
        assert hist.status == "converged"
        assert hist.iterations <= 100

    def test_combined_beats_fisher_rao_on_same_target(self):
        grid, mu, spec, metric = sin_setup(512)
        p0 = uniform_density(grid)
        from waveng.losses import combined_eval

        gap0 = combined_eval(p0, spec).value
        target = 1e-6 * gap0
        combined_hist = run_descent(p0, spec, metric, DescentConfig(2000, target))
        fisher = metric_apply_fn(MetricKind.FISHER_RAO, grid)
        capped = DescentConfig(combined_hist.iterations, target)
        fisher_hist = run_descent(p0, spec, fisher, capped)
        assert combined_hist.status == "converged"
        assert fisher_hist.status != "converged"

    def test_rejects_nonpositive_start(self):
        grid = make_grid(1, 16)
        values = np.full(16, 1.0 / 16)
        values[0] = 0.0
        _, mu, spec, metric = sin_setup(16)
        with pytest.raises(ValueError):
            run_descent(Density(grid, values), spec, metric)

    def test_history_columns(self):
        grid, mu, spec, metric = sin_setup(16)
        hist = run_descent(uniform_density(grid), spec, metric, DescentConfig(max_iterations=3))
        assert len(hist.records) == hist.iterations + 1
        assert hist.records[0].iteration == 0
        assert hist.records[0].eta == 0.0
        assert np.all(np.isfinite(hist.column("distance_to_reference")))


class TestDescentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DescentConfig(gap_tolerance=0.0)
        with pytest.raises(ValueError):
            DescentConfig(max_halvings=0)
