"""The three loss terms over densities and their alpha-weighted combination.

Terms: a weighted semi-H^{-1} transport surrogate (quadratic in p - mu with
the weighted elliptic pseudo-inverse as kernel), the Kullback-Leibler
divergence to mu in its mass-corrected form, and the Dirichlet energy of
p - mu.  Every term is nonnegative and vanishes at mu, so E(mu) = 0 is the
minimum; E2 vanishes only there.  Each evaluation takes p as a plain array
of site values and raises ValueError unless it holds one value per site
of mu's grid.  Infeasible points (any site <= 0) evaluate to +inf so that
a backtracking line search can reject them uniformly instead of catching
exceptions.

With r = p - mu the transport and Dirichlet terms together are the
quadratic q(r) = r^T Q r / 2 with Q = alpha1 K + alpha3 A, where K is fixed
by mu for the whole run.  Along a line p - eta s it is a parabola in eta,
so `along_line` forms Q s once (one K-solve) and prices every trial step
with the KL term alone.  A LossSpec holds no state: every K-solve passes
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
from dataclasses import dataclass
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
    if not all(math.isfinite(a) and a >= 0 for a in alphas):
        raise ValueError(f"alphas must be finite and nonnegative, got {alphas}")
    if max(alphas) == 0:
        raise ValueError("at least one alpha must be positive")


@dataclass(frozen=True, eq=False)
class LossEval:
    """Loss value and its Euclidean gradient (None when value is +inf).

    `quadratic` is the (value, gradient) pair (r^T Q r / 2, Q r) of the
    quadratic terms of a combined loss, already included in value and
    gradient; combined_eval and along_line set it, and along_line needs
    it.  The single-term evaluations leave it None.  Compared by identity.
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
    r = check_vector(mu.grid, p) - mu.values
    x = weighted_elliptic_pinv_apply(mu, r, cfg)
    return LossEval(value=0.5 * float(r @ x), gradient=x)


def e2_eval(p: np.ndarray, mu: Density) -> LossEval:
    """Mass-corrected KL divergence of p from mu: sum p log(p/mu) - p + mu.

    Each term is nonnegative and zero only at p = mu, so mu is the exact
    unconstrained minimizer even when a metric moves mass; gradient
    log(p/mu).  Any site with p <= 0 yields value +inf.
    """
    pv = check_vector(mu.grid, p)
    if pv.min() <= 0.0:
        return LossEval(value=np.inf, gradient=None)
    log_ratio = np.log(pv / mu.values)
    value = float(pv @ log_ratio) - float(pv.sum()) + float(mu.values.sum())
    return LossEval(value=value, gradient=log_ratio)


def e3_eval(p: np.ndarray, mu: Density) -> LossEval:
    """Dirichlet energy of p - mu: value (p-mu)^T A (p-mu) / 2 with A = -Delta."""
    r = check_vector(mu.grid, p) - mu.values
    a = laplacian_apply(mu.grid, r)
    return LossEval(value=0.5 * float(r @ a), gradient=a)


def _quadratic_apply(spec: LossSpec, v: np.ndarray) -> np.ndarray:
    """Q v = alpha1 K v + alpha3 A v, the Hessian of the quadratic terms applied to v."""
    out = np.zeros(spec.grid.total)
    if not v.any():  # Q 0 = 0 with no operator built, so E(mu) builds nothing
        return out
    if spec.alpha1 > 0:
        out += spec.alpha1 * weighted_elliptic_pinv_apply(spec.mu, v, spec.solve_config)
    if spec.alpha3 > 0:
        out += spec.alpha3 * laplacian_apply(spec.grid, v)
    return out


def _add_kl(p: np.ndarray, spec: LossSpec, quadratic: tuple[float, np.ndarray]) -> LossEval:
    """The combined loss at p from its quadratic part plus the KL term."""
    value, gradient = quadratic
    if spec.alpha2 > 0:
        ev = e2_eval(p, spec.mu)
        if not ev.feasible:
            return LossEval(value=np.inf, gradient=None)
        value = spec.alpha2 * ev.value + value
        gradient = spec.alpha2 * ev.gradient + gradient
    return LossEval(value=value, gradient=gradient, quadratic=quadratic)


def combined_eval(p: np.ndarray, spec: LossSpec) -> LossEval:
    """Alpha-weighted sum of the three terms; zero-alpha terms never run.

    The sum is alpha2 E2 + q with q = alpha1 E1 + alpha3 E3 formed as
    r^T Q r / 2, and q with its gradient Q r is also returned as
    `quadratic`.
    """
    pv = check_vector(spec.grid, p)
    r = pv - spec.mu.values
    qr = _quadratic_apply(spec, r)
    return _add_kl(pv, spec, (0.5 * float(r @ qr), qr))


def along_line(
    spec: LossSpec, p: np.ndarray, ev: LossEval, s: np.ndarray
) -> Callable[[float], LossEval]:
    """The combined loss along p - eta s as a function of eta.

    ev is the evaluation at p.  The quadratic part is priced in closed form,

        q(r - eta s) = q(r) - eta <s, Q r> + eta^2 / 2 <s, Q s>,
        grad q(r - eta s) = Q r - eta Q s,

    so Q s is formed once here and each call costs one KL evaluation.  The
    quadratic part (q(r), Q r) is taken from ev, which must come from
    combined_eval or an earlier along_line.  A trial point with a site <= 0
    evaluates to +inf whatever the alphas.
    """
    if ev.quadratic is None:
        raise ValueError("ev carries no quadratic part: evaluate p with combined_eval")
    pv = check_vector(spec.grid, p)
    s = check_vector(spec.grid, s)
    qv, qr = ev.quadratic
    qs = _quadratic_apply(spec, s)
    s_qr = float(s @ qr)
    s_qs = float(s @ qs)

    def at(eta: float) -> LossEval:
        trial = pv - eta * s
        if trial.min() <= 0.0:
            return LossEval(value=np.inf, gradient=None)
        quadratic = (qv - eta * s_qr + 0.5 * eta * eta * s_qs, qr - eta * qs)
        return _add_kl(trial, spec, quadratic)

    return at
