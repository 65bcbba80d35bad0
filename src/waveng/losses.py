"""The three loss terms over densities and their alpha-weighted combination.

Terms: a weighted semi-H^{-1} transport surrogate (quadratic in p - mu with
the weighted elliptic pseudo-inverse as kernel), the Kullback-Leibler
divergence to mu in its mass-corrected form, and the Dirichlet energy of
p - mu.  Every term is nonnegative and vanishes at mu, so E(mu) = 0 is the
minimum; E2 vanishes only there.  Each evaluation takes p as a plain array
of site values and raises ValueError unless it holds one finite value per
site of mu's grid (one isfinite pass at entry).  Infeasible points (any
site <= 0) evaluate to +inf so that a backtracking line search can reject
them uniformly instead of catching exceptions.

With r = p - mu the transport and Dirichlet terms together are the
quadratic q(r) = r^T Q r / 2 with Q = alpha1 K + alpha3 A, where K is fixed
by mu for the whole run.  Along a line p - eta s it is a parabola in eta,
so `along_line` forms Q s once (one K-solve) and a trial step costs one
KL pass: two new arrays, t = p - eta s (a multiply, then the subtract in
place) and log(t/mu) (a divide, then the log in place), one dot product
and one sum.  It returns a LineTrial holding the value, t and log(t/mu),
and builds no gradient.  The accepted trial alone forms its
gradient and LossEval, and its point becomes the next density.  The KL
formula is written once, in a private kernel that `e2_eval` and the line
share.  A LossSpec holds no state: every K-solve passes
mu itself, and `operators` caches the 2D solve's set-up per weight density
(by identity): the ground-state operator S^-1 L_mu S^-1 with
S = diag(sqrt mu) and the inverse of its Galerkin block on the low Fourier
modes, the coarse half of the solve's two-level preconditioner.  It is
built on the first nonzero right-hand side and reused for the rest of the
run, and never for alpha1 = 0 or in 1D.
The 1D difference matrices (cached per n in `operators`) are likewise
built on the first nonzero Q v.  Q 0 = 0 touches no operator, so
evaluating E(mu) builds nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .grid import Density, Grid, check_vector
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
    "along_line",
]


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
        if self.mu.min <= 0:
            raise ValueError("reference measure must be strictly positive")

    @property
    def alphas(self) -> tuple[float, float, float]:
        return (self.alpha1, self.alpha2, self.alpha3)

    @property
    def grid(self) -> Grid:
        return self.mu.grid


def check_alphas(alphas: tuple[float, float, float]) -> None:
    """Raise ValueError unless every alpha is finite and >= 0 and one is positive."""
    # a bool is a number, but True is no weight
    if any(isinstance(a, (bool, np.bool_)) or not (math.isfinite(a) and a >= 0) for a in alphas):
        raise ValueError(f"alphas must be finite and nonnegative, got {alphas}")
    if max(alphas) == 0:
        raise ValueError("at least one alpha must be positive")


@dataclass(frozen=True, eq=False)
class LossEval:
    """Loss value and its Euclidean gradient (None when value is +inf).

    `quadratic` is the (value, gradient) pair (r^T Q r / 2, Q r) of the
    quadratic terms of a combined loss, already included in value and
    gradient; combined_eval and LineTrial.loss_eval set it, and
    along_line needs it.  The single-term evaluations leave it None.
    Compared by identity.
    """

    value: float
    gradient: np.ndarray | None
    quadratic: tuple[float, np.ndarray] | None = None

    @property
    def feasible(self) -> bool:
        return np.isfinite(self.value)


def e1_eval(p: np.ndarray, mu: Density, cfg: EllipticSolveConfig | None = None) -> LossEval:
    """Transport surrogate: half the weighted semi-H^{-1} norm of p - mu.

    value = (p-mu)^T K (p-mu) / 2 and gradient = K (p-mu), where K is the
    pseudo-inverse of the mu-weighted elliptic operator.  The constant
    component of p - mu is annihilated by K and contributes nothing.
    """
    r = _finite_sites(mu.grid, p) - mu.values
    x = weighted_elliptic_pinv_apply(mu, r, cfg)
    return LossEval(value=0.5 * float(r @ x), gradient=x)


def e2_eval(p: np.ndarray, mu: Density) -> LossEval:
    """Mass-corrected KL divergence of p from mu: sum p log(p/mu) - p + mu.

    Each term is nonnegative and zero only at p = mu, so mu is the exact
    unconstrained minimizer even when a metric moves mass; gradient
    log(p/mu).  Any site with p <= 0 yields value +inf.
    """
    return _e2(_finite_sites(mu.grid, p), mu)


def _finite_sites(grid: Grid, p: np.ndarray) -> np.ndarray:
    """check_vector(grid, p), with ValueError for a NaN or infinite site."""
    pv = check_vector(grid, p)
    if not np.isfinite(pv).all():
        raise ValueError("density values must be finite")
    return pv


def _e2(pv: np.ndarray, mu: Density) -> LossEval:
    """e2_eval on site values that are already checked."""
    if pv.min() <= 0.0:
        return LossEval(value=np.inf, gradient=None)
    value, log_ratio = _kl(pv, mu.values, mu.mass)
    return LossEval(value=value, gradient=log_ratio)


def _kl(p: np.ndarray, mu: np.ndarray, mu_mass: float) -> tuple[float, np.ndarray]:
    """(E2, log(p/mu)) for a p > 0 of one value per site; mu_mass is mu's sum."""
    log_ratio = np.divide(p, mu)
    np.log(log_ratio, out=log_ratio)
    return float(p @ log_ratio) - float(p.sum()) + mu_mass, log_ratio


def e3_eval(p: np.ndarray, mu: Density) -> LossEval:
    """Dirichlet energy of p - mu: value (p-mu)^T A (p-mu) / 2 with A = -Delta."""
    r = _finite_sites(mu.grid, p) - mu.values
    a = laplacian_apply(mu.grid, r)
    return LossEval(value=0.5 * float(r @ a), gradient=a)


def _quadratic_apply(spec: LossSpec, v: np.ndarray) -> np.ndarray:
    """Q v = alpha1 K v + alpha3 A v, the Hessian of the quadratic terms applied to v."""
    if not v.any() or spec.alpha1 == spec.alpha3 == 0:  # Q 0 = 0 with no operator built,
        return np.zeros(spec.grid.total)  # so E(mu) builds nothing
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
    `quadratic`.
    """
    pv = _finite_sites(spec.grid, p)
    r = pv - spec.mu.values
    qr = _quadratic_apply(spec, r)
    quadratic = (0.5 * float(r @ qr), qr)
    if spec.alpha2 == 0:
        return LossEval(*quadratic, quadratic=quadratic)
    kl = _e2(pv, spec.mu)
    if not kl.feasible:
        return LossEval(value=np.inf, gradient=None)
    value = spec.alpha2 * kl.value + quadratic[0]
    return LossEval(value, spec.alpha2 * kl.gradient + qr, quadratic)


@dataclass(eq=False, slots=True)
class LineTrial:
    """The combined loss at one trial point t = p - eta s of `along_line`.

    `value` is alpha2 E2(t) + q(t), +inf when a site of t is <= 0.  A
    feasible trial keeps t (`point`) and log(t/mu) (`log_ratio`, None when
    alpha2 = 0), from which `loss_eval`, through the line's closure `line`,
    forms the gradient at t with no second KL pass.  Compared by identity;
    not frozen, since a frozen record takes 1.4 us to build against 0.4 us,
    a tenth of a trial's KL pass at n = 512.
    """

    value: float
    eta: float
    point: np.ndarray | None = None
    log_ratio: np.ndarray | None = None
    line: Callable[[LineTrial], LossEval] | None = field(default=None, repr=False)

    @property
    def feasible(self) -> bool:
        return np.isfinite(self.value)

    def loss_eval(self) -> LossEval:
        """The LossEval at t: gradient alpha2 log(t/mu) + Q r - eta Q s, quadratic part q(t)."""
        if self.line is None:
            raise ValueError("an infeasible trial has no gradient")
        return self.line(self)


def along_line(
    spec: LossSpec, p: np.ndarray, ev: LossEval, s: np.ndarray
) -> Callable[[float], LineTrial]:
    """The combined loss along p - eta s as a function of eta.

    ev is the evaluation at p.  The quadratic part is priced in closed form,

        q(r - eta s) = q(r) - eta <s, Q r> + eta^2 / 2 <s, Q s>,
        grad q(r - eta s) = Q r - eta Q s,

    so Q s is formed once here and each call costs one KL pass (none when
    alpha2 = 0) and returns a LineTrial; its gradient is formed only by
    LineTrial.loss_eval.  The quadratic part (q(r), Q r) is taken from ev,
    which must come from combined_eval or an accepted trial.  A trial point
    with a site <= 0 evaluates to +inf whatever the alphas.
    """
    if ev.quadratic is None:
        raise ValueError("ev carries no quadratic part: evaluate p with combined_eval")
    pv = check_vector(spec.grid, p)
    s = check_vector(spec.grid, s)
    qv, qr = ev.quadratic
    qs = _quadratic_apply(spec, s)
    s_qr = float(s @ qr)
    s_qs = float(s @ qs)
    alpha2, mu, mu_mass = spec.alpha2, spec.mu.values, spec.mu.mass

    def q_at(eta: float) -> float:
        return qv - eta * s_qr + 0.5 * eta * eta * s_qs

    # each vector below is one new array, written in place in the order of
    # the plain expressions (qr - eta qs, alpha2 log_ratio + grad_q, pv - eta s)
    def loss_eval(trial: LineTrial) -> LossEval:
        grad_q = qs * trial.eta
        np.subtract(qr, grad_q, out=grad_q)
        if trial.log_ratio is None:
            gradient = grad_q
        else:  # trial.log_ratio is left as it is, so a second call sees the same trial
            gradient = np.multiply(trial.log_ratio, alpha2)
            gradient += grad_q
        return LossEval(trial.value, gradient, (q_at(trial.eta), grad_q))

    def at(eta: float) -> LineTrial:
        t = np.multiply(s, eta)
        np.subtract(pv, t, out=t)
        if t.min() <= 0.0:
            return LineTrial(np.inf, eta)
        if alpha2 == 0:
            return LineTrial(q_at(eta), eta, t, None, loss_eval)
        kl, log_ratio = _kl(t, mu, mu_mass)
        return LineTrial(alpha2 * kl + q_at(eta), eta, t, log_ratio, loss_eval)

    return at
