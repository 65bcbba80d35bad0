"""The three loss terms over densities and their alpha-weighted combination.

Terms: a weighted semi-H^{-1} transport surrogate (quadratic in p - mu with
the weighted elliptic pseudo-inverse as kernel), the Kullback-Leibler
divergence to mu in its mass-corrected form, and the Dirichlet energy of
p - mu.  Every term is nonnegative and vanishes at mu, so E(mu) = 0 is the
minimum; E2 vanishes only there.  Each evaluation takes p as a plain array
of site values and builds from it the Density on mu's grid that the
LossEval holds (`point`), so it raises ValueError, at every alpha and
before any solve, unless p holds one value per site, with min > 0 and a
finite mass.  Only a trial of a Line prices a point that is no Density,
as +inf, so that the backtracking line search rejects it like any other
failed trial.

With r = p - mu the transport and Dirichlet terms together are the
quadratic q(r) = r^T Q r / 2 with Q = alpha1 K + alpha3 A, where K is fixed
by mu for the whole run.  Along a line p - eta s it is a parabola in eta,
so `along_line` forms Q s once (one K-solve) and returns a Line, on which
a trial step costs two new arrays, t = p - eta s (at eta = 1 the subtract
alone, since 1 * s is exact; otherwise a multiply, then the subtract in
place) and log(t/mu) (a divide, then the log in place), the Density
check of t (its min and sum) and one dot product.  t is frozen
first, so its Density holds it with no copy.  The Line returns a
LineTrial holding the value, that Density and log(t/mu), and builds no
gradient; the KL reads mass(t) and mass(mu) from their Densities.  The
accepted trial alone forms its gradient and LossEval, by
`Line.loss_eval(trial)`, which holds the trial's Density as the next
iterate and whose Q r - eta Q s skips the multiply at eta = 1 too.
`Line.lower_bounds(eta, slope)` bounds a trial's value from below by
scalar arithmetic, with no trial array.  `e1_eval`, `e2_eval` and `e3_eval` are
`combined_eval` at a one-hot alpha, and the KL formula is written once, in
a private kernel that `combined_eval` and the line share.  A LossSpec holds no
state: every K-solve passes mu itself, and `operators` caches the
solve's set-up per weight density (by identity): in 2D the scaled
operator S^-1 L_mu S^-1, S the Jacobi scale of L_mu, and the inverse of
its Galerkin block on the low Fourier modes, the coarse half of the
solve's two-level preconditioner; in 1D 1/mu, its sum, argmin mu and
max mu, the closed form's fixed part (`_closed_form_set_up`).  Each is
built on the first nonzero right-hand side and reused for the rest of
the run, and never for alpha1 = 0.  Q 0 = 0 needs no case of its own:
the K-solve returns +0 for a zero right-hand side before any set-up, and
the Laplacian ends in + 0.0, so evaluating E(mu) builds nothing.  Every
LossEval is read-only when built (its point, gradient and Q r refuse a
write), so one evaluation can be shared, as the descent shares its start's.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .grid import Density, Grid, check_vector, frozen
from .operators import EllipticSolveConfig, laplacian_apply, weighted_elliptic_pinv_apply

__all__ = [
    "KLForm",
    "LossSpec",
    "check_alphas",
    "LossEval",
    "e1_eval",
    "e2_eval",
    "e3_eval",
    "combined_eval",
    "LineTrial",
    "Line",
    "along_line",
]

_EPS = float(np.finfo(float).eps)


class KLForm(str, Enum):
    """The one KL divergence, kept only as the type of `LossSpec.kl_form`."""
    MASS_CORRECTED = "mass_corrected"


@dataclass(frozen=True)
class LossSpec:
    """Coefficients and reference measure of the combined loss."""

    alpha1: float
    alpha2: float
    alpha3: float
    mu: Density
    kl_form: KLForm = KLForm.MASS_CORRECTED
    solve_config: EllipticSolveConfig = EllipticSolveConfig()

    def __post_init__(self) -> None:
        check_alphas(self.alphas)
        object.__setattr__(self, "kl_form", KLForm(self.kl_form))
        if not isinstance(self.mu, Density):
            raise TypeError(f"mu must be a Density, got {type(self.mu).__name__}")

    @property
    def alphas(self) -> tuple[float, float, float]:
        return (self.alpha1, self.alpha2, self.alpha3)

    @property
    def grid(self) -> Grid:
        return self.mu.grid


def check_alphas(alphas: tuple[float, float, float]) -> None:
    """Raise ValueError unless there are three alphas, each finite and >= 0, one positive."""
    if len(alphas) != 3:
        raise ValueError(f"three alphas are needed (alpha1, alpha2, alpha3), got {alphas}")
    # a bool is a number, but True is no weight
    if any(isinstance(a, (bool, np.bool_)) or not (math.isfinite(a) and a >= 0) for a in alphas):
        raise ValueError(f"alphas must be finite and nonnegative, got {alphas}")
    if max(alphas) == 0:
        raise ValueError("at least one alpha must be positive")


@dataclass(frozen=True, eq=False)
class LossEval:
    """The loss at one point: the point, the value, its gradient and its quadratic part.

    `point` is the Density evaluated, so one LossEval is a descent's
    iterate.  `quadratic` is (r^T Q r / 2, Q r), the value and gradient of
    the quadratic terms, already included in both; along_line takes it
    from combined_eval or Line.loss_eval.  The point, gradient and Q r are
    read-only, so a shared evaluation, such as the start evaluation every
    descent from one start reuses, cannot be changed by a metric.  Q 0 = 0,
    so E(mu) has a zero gradient and builds no K-solve set-up: the K-solve
    returns zeros for a zero right-hand side.  Compared by identity.
    """

    point: Density
    value: float
    gradient: np.ndarray
    quadratic: tuple[float, np.ndarray]

    def __post_init__(self) -> None:
        frozen(self.gradient, self.quadratic[1])


def e1_eval(p: np.ndarray, mu: Density) -> LossEval:
    """Transport surrogate: half the weighted semi-H^{-1} norm of p - mu.

    value = (p-mu)^T K (p-mu) / 2 and gradient = K (p-mu), where K is the
    pseudo-inverse of the mu-weighted elliptic operator.  The constant
    component of p - mu is annihilated by K and contributes nothing.
    """
    return combined_eval(p, LossSpec(1.0, 0.0, 0.0, mu))


def e2_eval(p: np.ndarray, mu: Density) -> LossEval:
    """Mass-corrected KL divergence of p from mu: sum p log(p/mu) - p + mu.

    Each term is nonnegative and zero only at p = mu, so mu is the exact
    unconstrained minimizer even when a metric moves mass; gradient
    log(p/mu).  A site with p <= 0 raises ValueError.
    """
    return combined_eval(p, LossSpec(0.0, 1.0, 0.0, mu))


def e3_eval(p: np.ndarray, mu: Density) -> LossEval:
    """Dirichlet energy of p - mu: value (p-mu)^T A (p-mu) / 2 with A = -Delta."""
    return combined_eval(p, LossSpec(0.0, 0.0, 1.0, mu))


def _kl(p: Density, mu: Density) -> tuple[float, np.ndarray]:
    """(E2, log(p/mu)), with the masses each Density computed when it was built."""
    log_ratio = np.divide(p.values, mu.values)
    np.log(log_ratio, out=log_ratio)
    return float(p.values @ log_ratio) - p.mass + mu.mass, log_ratio


def _quadratic_apply(spec: LossSpec, v: np.ndarray) -> np.ndarray:
    """Q v = alpha1 K v + alpha3 A v, the Hessian of the quadratic terms applied to v.

    Q 0 is +0 at every site with no operator set up: the K-solve returns
    zeros for a zero right-hand side before its set-up, and A 0 is +0.
    """
    if spec.alpha1 == spec.alpha3 == 0:
        return np.zeros(spec.grid.total)
    if spec.alpha1 == 0:
        out = laplacian_apply(spec.grid, v)
        out *= spec.alpha3
        return out
    out = weighted_elliptic_pinv_apply(spec.mu, v, spec.solve_config)
    out *= spec.alpha1
    if spec.alpha3 > 0:
        a = laplacian_apply(spec.grid, v)
        a *= spec.alpha3
        out += a
    return out


def combined_eval(p: np.ndarray, spec: LossSpec) -> LossEval:
    """Alpha-weighted sum of the three terms; zero-alpha terms never run.

    The sum is alpha2 E2 + q with q = alpha1 E1 + alpha3 E3 formed as
    r^T Q r / 2, and q with its gradient Q r is also returned as
    `quadratic`.  p is checked first, as the Density it holds (`point`).
    """
    point = Density(spec.grid, p)
    r = point.values - spec.mu.values
    qr = _quadratic_apply(spec, r)
    quadratic = (0.5 * float(r @ qr), qr)
    if spec.alpha2 == 0:
        return LossEval(point, *quadratic, quadratic=quadratic)
    kl, log_ratio = _kl(point, spec.mu)
    value = spec.alpha2 * kl + quadratic[0]
    return LossEval(point, value, spec.alpha2 * log_ratio + qr, quadratic)


@dataclass(eq=False, slots=True)
class LineTrial:
    """The combined loss at one trial point t = p - eta s of a `Line`.

    `value` is alpha2 E2(t) + q(t), +inf when t is no Density.  A feasible
    trial keeps t's Density (`point`) and log(t/mu) (`log_ratio`, None when
    alpha2 = 0), from which `Line.loss_eval` forms the gradient at t with
    no second KL pass.  Compared by identity; not frozen, since a
    frozen record takes 1.4 us to build against 0.4 us, a tenth of a
    trial's KL pass at n = 512.
    """

    value: float
    eta: float
    point: Density | None = None
    log_ratio: np.ndarray | None = None


@dataclass(eq=False, slots=True)
class Line:
    """The combined loss along p - eta s as a function of eta, built by along_line.

    It holds the loss and the evaluation at p (p included), not copies of their fields.
    Calling it with eta prices that trial: one KL pass (none when alpha2 =
    0) and the quadratic part in closed form.  Compared by identity.
    """

    spec: LossSpec
    start: LossEval  # the evaluation at p: p, E(p), g and (q(r), Q r)
    s: np.ndarray
    qs: np.ndarray  # Q s
    s_qr: float
    s_qs: float
    # the convexity bound's rounding terms, formed at most once
    _rounding: tuple[float, float, float] | None = field(default=None, init=False, repr=False)

    def q_at(self, eta: float) -> float:
        return self.start.quadratic[0] - eta * self.s_qr + 0.5 * eta * eta * self.s_qs

    # each vector below is one new array, written in place in the order of
    # the plain expressions (qr - eta qs, alpha2 log_ratio + grad_q, p - eta s);
    # at eta = 1 the multiply is exact and skipped (qr - qs, p - s)
    def loss_eval(self, trial: LineTrial) -> LossEval:
        """The LossEval at trial t: gradient alpha2 log(t/mu) + Q r - eta Q s, quadratic q(t)."""
        if trial.point is None:
            raise ValueError("an infeasible trial has no gradient")
        if trial.eta == 1.0:
            grad_q = np.subtract(self.start.quadratic[1], self.qs)
        else:
            grad_q = self.qs * trial.eta
            np.subtract(self.start.quadratic[1], grad_q, out=grad_q)
        if trial.log_ratio is None:
            gradient = grad_q
        else:  # trial.log_ratio is left as it is, so a second call sees the same trial
            gradient = np.multiply(trial.log_ratio, self.spec.alpha2)
            gradient += grad_q
        return LossEval(trial.point, trial.value, gradient, (self.q_at(trial.eta), grad_q))

    def __call__(self, eta: float) -> LineTrial:
        p = self.start.point.values
        if eta == 1.0:
            t = np.subtract(p, self.s)
        else:
            t = np.multiply(self.s, eta)
            np.subtract(p, t, out=t)
        try:  # t frozen, so that the Density holds it with no copy
            point = Density(self.spec.grid, frozen(t)[0])
        except ValueError:  # a site not > 0, or a mass not finite
            return LineTrial(np.inf, eta)
        if self.spec.alpha2 == 0:
            return LineTrial(self.q_at(eta), eta, point)
        kl, log_ratio = _kl(point, self.spec.mu)
        return LineTrial(self.spec.alpha2 * kl + self.q_at(eta), eta, point, log_ratio)

    def lower_bounds(self, eta: float, slope: float) -> Iterator[float]:
        """Floats that self(eta).value provably cannot undercut, cheapest first.

        For eta a power of two and the caller's slope <s, g>.  (i) q(eta) -
        alpha2 kappa, kappa = (N + 16) eps M, since the computed KL of a t > 0
        is at least -kappa; with alpha2 = 0 it is the trial's value itself.
        (ii) Only for eta < 1, so the first trial, which most steps accept,
        pays for no dot product, and only when eta <s, Q s> > slope: the
        convexity bound E(p) - eta slope + eta^2/2 <s, Q s> - E(eta), whose
        four norms are formed once per line.  An infeasible trial is +inf,
        above both.  The optimizer docstring derives both bounds.
        """
        alpha2 = self.spec.alpha2
        kappa = (self.s.size + 16) * _EPS * self.spec.mu.mass
        yield self.q_at(eta) - alpha2 * kappa
        if eta >= 1.0 or alpha2 == 0 or not eta * self.s_qs > slope:
            return
        if self._rounding is None:
            self._rounding = self._convexity_rounding(slope)
        e0, e1, e2 = self._rounding
        yield (
            self.start.value - eta * slope + 0.5 * eta * eta * self.s_qs
            - (e0 + eta * (e1 + eta * e2))
        )

    def _convexity_rounding(self, slope: float) -> tuple[float, float, float]:
        """(e0, e1, e2) of the rounding allowance E(eta) = e0 + eta e1 + eta^2 e2."""
        def norm(x: np.ndarray) -> float:
            return math.sqrt(x @ x)

        alpha2, (qv, qr) = self.spec.alpha2, self.start.quadratic
        n = self.s.size
        c = 2 * (n + 16) * _EPS
        gq = norm(self.start.gradient) + norm(qr) + alpha2 * math.sqrt(n)
        p_norm = norm(self.start.point.values)
        e0 = c * (p_norm * gq + 5 * alpha2 * self.spec.mu.mass)
        e0 += 8 * _EPS * (abs(self.start.value) + abs(qv))
        e1 = c * norm(self.s) * gq + 8 * _EPS * (abs(self.s_qr) + abs(slope))
        return e0, e1, 8 * _EPS * abs(self.s_qs)


def along_line(spec: LossSpec, ev: LossEval, s: np.ndarray) -> Line:
    """The combined loss along p - eta s as a function of eta, p = ev.point.

    The quadratic part is priced in closed form,

        q(r - eta s) = q(r) - eta <s, Q r> + eta^2 / 2 <s, Q s>,
        grad q(r - eta s) = Q r - eta Q s,

    so Q s is formed once here and each call of the Line costs one KL
    pass (none when alpha2 = 0) and returns a LineTrial; its gradient is
    formed only by Line.loss_eval.  The quadratic part (q(r), Q r) is
    taken from ev, which must come from combined_eval or an accepted trial.
    A trial point that is no Density evaluates to +inf whatever the alphas,
    and an ev on another grid than the loss's raises ValueError.
    """
    if ev.point.grid != spec.grid:
        raise ValueError(f"evaluation grid {ev.point.grid} does not match grid {spec.grid}")
    s = check_vector(spec.grid, s)
    qs = _quadratic_apply(spec, s)
    return Line(
        spec=spec, start=ev, s=s, qs=qs, s_qr=float(s @ ev.quadratic[1]), s_qs=float(s @ qs)
    )
