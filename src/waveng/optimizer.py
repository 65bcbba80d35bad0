"""Backtracking natural-gradient descent with the Armijo condition.

Each step preconditions the Euclidean gradient g with a metric to get the
direction s, then halves the step size eta (starting from 1, at most
MAX_HALVINGS times) until

    E(p - eta s) - E(p) <= -eta/2 * <s, g>,

up to a rounding slack (ROUNDING_SLACK), and never for a trial that
raises the loss.  The loss E is the combined loss of a LossSpec.
Infeasible trial points evaluate to +inf and are rejected like any other
failed trial.  A step with nonpositive directional slope <s, g> stalls the
run rather than ascending.

The trials go through `losses.along_line`, which prices the quadratic
terms in closed form: a step costs one K-solve (for Q s) however many
halvings it takes, and a trial one KL pass, with no gradient.  Only the
accepted trial forms its evaluation, whose gradient and quadratic part
the next step uses with no solve, and its trial point becomes the next
density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable

import numpy as np

from .grid import Density
from .losses import LossEval, LossSpec, along_line, combined_eval
from .metrics import MetricInfeasibleError

__all__ = [
    "DescentConfig",
    "IterationRecord",
    "StepDiagnostics",
    "DescentHistory",
    "armijo_step",
    "run_descent",
]

MetricFn = Callable[[Density, np.ndarray], np.ndarray]

ARMIJO_COEFFICIENT = 0.5  # the 1/2 of eta/2 in the condition of the module docstring
MAX_HALVINGS = 60  # trials after the first; a step that exhausts them stalls the run
# An exact Newton step meets the condition with equality and lands on mu,
# where E rounds to about 1e-15 E(p), not 0; the slack, relative to |E(p)|
# and eta <s, g>, keeps that rounding from rejecting it
ROUNDING_SLACK = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class DescentConfig:
    max_iterations: int = 2000
    gap_tolerance: float = 1e-10  # on E(p) - E(mu)

    def __post_init__(self) -> None:
        tol = self.gap_tolerance  # a bool is a number, but True is no tolerance
        if isinstance(tol, (bool, np.bool_)) or not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"gap_tolerance must be finite and positive, got {tol}")
        cap = self.max_iterations  # a bool is an Integral, but True is no iteration cap
        if isinstance(cap, bool) or not isinstance(cap, Integral) or cap < 0:
            raise ValueError(f"max_iterations must be an integer >= 0, got {cap}")


@dataclass(frozen=True)
class StepDiagnostics:
    accepted: bool
    eta: float
    halvings: int
    slope: float
    value_before: float
    value_after: float
    reason: str = ""


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    loss: float
    eta: float
    halvings: int
    mass: float
    min_value: float
    distance_to_reference: float

    @property
    def gap(self) -> float:
        """E(p^k) - E(mu), which is the loss itself (see run_descent)."""
        return self.loss


@dataclass
class DescentHistory:
    """Per-iteration records plus terminal status of one descent run."""

    records: list[IterationRecord] = field(default_factory=list)
    status: str = "max_iter"  # converged | max_iter | stalled
    stall_reason: str = ""

    @property
    def iterations(self) -> int:
        return len(self.records) - 1

    @property
    def final_gap(self) -> float:
        return self.records[-1].gap

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def armijo_step(
    p: Density,
    spec: LossSpec,
    metric: MetricFn,
    evaluated: LossEval | None = None,
) -> tuple[Density, LossEval, StepDiagnostics]:
    """One backtracking step from p.

    Returns (next density, its evaluation, diagnostics).  On a stall the
    density is returned unchanged and the evaluation is the one at p.
    `evaluated` lets the caller pass combined_eval's result at p, whose
    quadratic part saves a K-solve.  A density on another grid than the
    loss's raises ValueError.
    """
    if p.grid != spec.grid:
        raise ValueError(f"start grid {p.grid} is not the loss grid {spec.grid}")
    ev = combined_eval(p.values, spec) if evaluated is None else evaluated

    def stall(
        reason: str, slope: float, eta: float = 0.0, halvings: int = 0
    ) -> tuple[Density, LossEval, StepDiagnostics]:
        diag = StepDiagnostics(
            accepted=False, eta=eta, halvings=halvings, slope=slope,
            value_before=ev.value, value_after=ev.value, reason=reason,
        )
        return p, ev, diag

    if not ev.feasible or ev.gradient is None:
        return stall("loss not differentiable at current point", np.nan)
    g = ev.gradient
    try:
        s = metric(p, g)
    except MetricInfeasibleError as err:
        return stall(f"metric infeasible: {err}", np.nan)
    slope = float(s @ g)
    if not np.isfinite(slope) or slope <= 0.0:
        return stall("non-descent direction", slope)
    # nonpositive trials evaluate to +inf, keeping the descent in the
    # metrics' domain (the positive orthant)
    line = along_line(spec, p.values, ev, s)
    eta = 1.0
    for halvings in range(MAX_HALVINGS + 1):
        trial = line(eta)
        decrease = trial.value - ev.value
        slack = ROUNDING_SLACK * (abs(ev.value) + eta * slope)
        # the slack never admits a trial that raises the loss
        if decrease <= 0.0 and decrease <= -ARMIJO_COEFFICIENT * eta * slope + slack:
            diag = StepDiagnostics(
                accepted=True, eta=eta, halvings=halvings, slope=slope,
                value_before=ev.value, value_after=trial.value,
            )
            return Density(p.grid, trial.point), trial.loss_eval(), diag
        eta *= 0.5
    return stall("line search exhausted max_halvings", slope, eta, MAX_HALVINGS)


def run_descent(
    p0: Density,
    spec: LossSpec,
    metric: MetricFn,
    cfg: DescentConfig | None = None,
) -> DescentHistory:
    """Iterate armijo_step from p0 until the loss gap closes.

    The gap is E(p^k) - E(mu), which is E(p^k) itself: every term of the
    loss vanishes at mu.  Terminates on gap <= cfg.gap_tolerance
    (converged), cfg.max_iterations, or a stalled line search.  p0 must lie
    on the grid of mu.
    """
    if cfg is None:
        cfg = DescentConfig()
    if p0.min <= 0.0:
        raise ValueError("initial density must be strictly positive")
    if p0.grid != spec.grid:
        raise ValueError(f"start grid {p0.grid} is not the loss grid {spec.grid}")
    history = DescentHistory()

    def record(k: int, ev: LossEval, p: Density, eta: float, halvings: int) -> None:
        r = p.values - spec.mu.values
        history.records.append(
            IterationRecord(
                iteration=k,
                loss=ev.value,
                eta=eta,
                halvings=halvings,
                mass=p.mass,
                min_value=p.min,
                distance_to_reference=math.sqrt(r @ r),  # np.linalg.norm's arithmetic
            )
        )

    p = p0
    ev = combined_eval(p.values, spec)
    if not ev.feasible:
        raise ValueError("loss is infeasible at the initial density")
    record(0, ev, p, 0.0, 0)
    if ev.value <= cfg.gap_tolerance:
        history.status = "converged"
        return history

    for k in range(1, cfg.max_iterations + 1):
        p_next, ev_next, diag = armijo_step(p, spec, metric, evaluated=ev)
        if not diag.accepted:
            history.status = "stalled"
            history.stall_reason = diag.reason
            return history
        p, ev = p_next, ev_next
        record(k, ev, p, diag.eta, diag.halvings)
        if ev.value <= cfg.gap_tolerance:
            history.status = "converged"
            return history
    history.status = "max_iter"
    return history
