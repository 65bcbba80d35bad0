"""Backtracking natural-gradient descent with the Armijo condition.

Each step preconditions the Euclidean gradient g with a metric to get the
direction s, then halves the step size eta (starting from 1) until

    E(p - eta s) - E(p) <= -eta/2 * <s, g>.

Infeasible trial points evaluate to +inf and are rejected like any other
failed trial.  A step with nonpositive directional slope <s, g> stalls the
run rather than ascending.  Loss arguments may be a LossSpec or any
callable mapping a value vector to a LossEval, which lets tests drive the
loop with synthetic objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import Density
from .losses import LossEval, LossSpec, combined_eval
from .metrics import MetricInfeasibleError

__all__ = [
    "DescentConfig",
    "IterationRecord",
    "StepDiagnostics",
    "DescentHistory",
    "armijo_step",
    "run_descent",
]

LossLike = LossSpec | Callable[[np.ndarray], LossEval]
MetricFn = Callable[[Density, np.ndarray], np.ndarray]

ARMIJO_COEFFICIENT = 0.5  # the 1/2 of eta/2 in the condition of the module docstring


@dataclass(frozen=True)
class DescentConfig:
    max_iterations: int = 2000
    gap_tolerance: float = 1e-10  # on E(p) - E(mu)
    max_halvings: int = 60

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gap_tolerance) and self.gap_tolerance > 0):
            raise ValueError(f"gap_tolerance must be finite and positive, got {self.gap_tolerance}")
        if self.max_iterations < 0 or self.max_halvings < 1:
            raise ValueError(
                f"max_iterations must be >= 0 and max_halvings >= 1, "
                f"got {self.max_iterations} and {self.max_halvings}"
            )


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
    gap: float
    eta: float
    halvings: int
    mass: float
    min_value: float
    distance_to_reference: float


@dataclass
class DescentHistory:
    """Per-iteration records plus terminal status of one descent run."""

    records: list[IterationRecord] = field(default_factory=list)
    status: str = "max_iter"  # converged | max_iter | stalled
    stall_reason: str = ""
    reference_value: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.records) - 1

    @property
    def final_gap(self) -> float:
        return self.records[-1].gap

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def _as_loss_fn(loss: LossLike) -> Callable[[np.ndarray], LossEval]:
    if isinstance(loss, LossSpec):
        return lambda values: combined_eval(values, loss)
    return loss


def armijo_step(
    p: Density,
    loss: LossLike,
    metric: MetricFn,
    cfg: DescentConfig | None = None,
    evaluated: LossEval | None = None,
) -> tuple[Density, LossEval | None, StepDiagnostics]:
    """One backtracking step from p.

    Returns (next density, its evaluation, diagnostics).  On a stall the
    density is returned unchanged and the evaluation is the one at p.
    `evaluated` lets the caller pass a precomputed LossEval at p.
    """
    if cfg is None:
        cfg = DescentConfig()
    loss_fn = _as_loss_fn(loss)
    ev = loss_fn(p.values) if evaluated is None else evaluated
    if not ev.feasible or ev.gradient is None:
        return p, ev, StepDiagnostics(
            accepted=False, eta=0.0, halvings=0, slope=np.nan,
            value_before=ev.value, value_after=ev.value,
            reason="loss not differentiable at current point",
        )
    g = ev.gradient
    try:
        s = metric(p, g)
    except MetricInfeasibleError as err:
        return p, ev, StepDiagnostics(
            accepted=False, eta=0.0, halvings=0, slope=np.nan,
            value_before=ev.value, value_after=ev.value,
            reason=f"metric infeasible: {err}",
        )
    slope = float(s @ g)
    if not np.isfinite(slope) or slope <= 0.0:
        return p, ev, StepDiagnostics(
            accepted=False, eta=0.0, halvings=0, slope=slope,
            value_before=ev.value, value_after=ev.value,
            reason="non-descent direction",
        )
    # density descent must stay in the metrics' domain (positive orthant);
    # nonpositive trials are rejected exactly like +inf losses.  Callable
    # losses own their feasibility through the values they return.
    guard_positive = isinstance(loss, LossSpec)
    eta = 1.0
    for halvings in range(cfg.max_halvings + 1):
        trial = p.values - eta * s
        if guard_positive and trial.min() <= 0.0:
            eta *= 0.5
            continue
        trial_ev = loss_fn(trial)
        if trial_ev.value - ev.value <= -ARMIJO_COEFFICIENT * eta * slope:
            next_p = Density(p.grid, trial)
            diag = StepDiagnostics(
                accepted=True, eta=eta, halvings=halvings, slope=slope,
                value_before=ev.value, value_after=trial_ev.value,
            )
            return next_p, trial_ev, diag
        eta *= 0.5
    return p, ev, StepDiagnostics(
        accepted=False, eta=eta, halvings=cfg.max_halvings, slope=slope,
        value_before=ev.value, value_after=ev.value,
        reason="line search exhausted max_halvings",
    )


def run_descent(
    p0: Density,
    loss: LossLike,
    metric: MetricFn,
    cfg: DescentConfig | None = None,
) -> DescentHistory:
    """Iterate armijo_step from p0 until the loss gap closes.

    The gap is E(p^k) - E(mu); for a LossSpec the reference value E(mu) is
    computed once up front (zero for the mass-corrected combined loss), and
    for a callable loss it is zero with no reference density to measure
    distance to.  Terminates on gap <= cfg.gap_tolerance (converged),
    cfg.max_iterations, or a stalled line search.
    """
    if cfg is None:
        cfg = DescentConfig()
    if p0.min <= 0.0:
        raise ValueError("initial density must be strictly positive")
    loss_fn = _as_loss_fn(loss)
    reference = loss.mu if isinstance(loss, LossSpec) else None
    ref_value = 0.0 if reference is None else float(loss_fn(reference.values).value)

    history = DescentHistory(reference_value=ref_value)

    def record(k: int, ev: LossEval, p: Density, eta: float, halvings: int) -> None:
        dist = float(np.linalg.norm(p.values - reference.values)) if reference is not None else np.nan
        history.records.append(
            IterationRecord(
                iteration=k,
                loss=ev.value,
                gap=ev.value - ref_value,
                eta=eta,
                halvings=halvings,
                mass=p.mass,
                min_value=p.min,
                distance_to_reference=dist,
            )
        )

    p = p0
    ev = loss_fn(p.values)
    if not ev.feasible:
        raise ValueError("loss is infeasible at the initial density")
    record(0, ev, p, 0.0, 0)
    if ev.value - ref_value <= cfg.gap_tolerance:
        history.status = "converged"
        return history

    for k in range(1, cfg.max_iterations + 1):
        p_next, ev_next, diag = armijo_step(p, loss, metric, cfg, evaluated=ev)
        if not diag.accepted:
            history.status = "stalled"
            history.stall_reason = diag.reason
            return history
        p, ev = p_next, ev_next
        record(k, ev, p, diag.eta, diag.halvings)
        if ev.value - ref_value <= cfg.gap_tolerance:
            history.status = "converged"
            return history
    history.status = "max_iter"
    return history
