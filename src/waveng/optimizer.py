"""Backtracking natural-gradient descent with the Armijo condition.

Each step preconditions the Euclidean gradient g with a metric to get the
direction s = metric(p, g, mu), mu the loss's reference measure (the
two-level combined metric builds its coarse block there), then halves the
step size eta (starting from 1, at most MAX_HALVINGS times) until

    E(p - eta s) - E(p) <= -eta/2 * <s, g>,

up to a rounding slack (ROUNDING_SLACK), and never for a trial that
raises the loss (`armijo_accepts`).  The loss E is the combined loss of a
LossSpec.
Every Density is strictly positive, the start included; a trial point
with a site <= 0 evaluates to +inf and is rejected like any other failed
trial, so every accepted point is a Density too.  A step stalls the run
for one of two reasons: "non-descent direction", a slope <s, g> that is
not a finite positive number (the run does not ascend), or "line search
exhausted max_halvings".

The trials go through `losses.along_line`, which prices the quadratic
terms in closed form: a step costs one K-solve (for Q s) however many
halvings it takes, and a trial one KL pass, with no gradient.  Only the
accepted trial forms its evaluation, whose gradient and quadratic part
the next step uses with no solve, and its trial point becomes the next
density.

One evaluation per start.  The paper compares its metrics from a common
start, and so does every `waveng run` preset and benchmark panel, so
`run_descent` takes E(p0) from `_start_evaluation`, an lru_cache of one
entry keyed as the K-solve's set-up caches are: the Density p0 by
identity, the LossSpec by value (its mu by identity).  A descent from the
start and loss of the previous descent reuses that very LossEval, with no
K-solve, and its history is bit for bit the one a fresh evaluation gives.
Every LossEval is read-only, so no metric can change a shared one: a
metric that writes into its gradient argument raises ValueError.

Trials ruled out unpriced.  The rule is monotone in the computed trial
value, so a float L that the value provably cannot undercut, and that
already fails the rule, rejects the trial with no trial array and no KL
pass.  The halving still counts; `StepDiagnostics.trials` counts the
priced trials only.  `Line.lower_bounds(eta, slope)`, given the step's
slope <s, g>, yields two such floats.  Every trial tries (i); after a
rejected first trial, (ii) is tried too.  An infeasible trial is +inf,
above any L, so neither needs a feasibility test.  A NaN bound rules a
trial out, as pricing would: it comes from a NaN q(eta), which the
trial's value carries too.

Notation: u = eps/2 is the unit roundoff, gamma_k = k u / (1 - k u), N
the number of sites, M = mass(mu) as computed, and fl() a rounded result.
The trial value is fl(fl(a2 K_c(t)) + q_c(eta)), where q_c(eta) is the
very float the line prices as q(eta), t = fl(p - eta s) (eta s is exact,
eta being a power of two), and K_c(t) = fl(fl(<t, l> - sum t) + M) with
l = fl(log fl(t/mu)).  Assumed: NumPy's float64 log is within 4 ulps (its
own tests hold it to 1), t/mu does not underflow, nothing overflows.

(i) KL >= 0.  With z_i = log(t_i/mu_i), the errors of the divide, the
log, the dot product, the sum, the subtraction and of M add up to at most
beta sum_i mu_i (e^z_i (|z_i| + 1) + 1), beta = gamma_{N+10}.  The exact
KL is sum_i mu_i phi(z_i), phi(z) = e^z (z - 1) + 1 >= 0 (the log-sum
inequality, site by site).  So

    K_c(t) >= -(1 + u) sum_i mu_i max_z [beta (e^z (|z| + 1) + 1) - phi(z)].

On z <= 0 the bracket is at most 2 beta (at z = 0), since e^z (1 - z)
<= 1 and phi >= 0; on z > 0 its one critical point z = 2 beta / (1 - beta)
gives (1 - beta)(e^z - 1) <= 2 beta (1 + 3 beta).  So K_c(t) >= -(N + 10) eps M (1 + O(N u)), and
kappa = (N + 16) eps M covers that, the error of M and of kappa itself.
By monotone rounding the value is at least fl(q_c(eta) - fl(a2 kappa)),
bound (i); with a2 = 0 it is the value itself.

(ii) Convexity of KL at p.  With lambda = log(p/mu) exact, K(t) >= K(p) +
<lambda, t - p> and t - p = -eta s + e, |e_i| <= u t_i.  The evaluation at
p computed E(p) = fl(fl(a2 K_c(p)) + q(r)) and g = fl(fl(a2 l_p) + Q r),
so a2 <lambda, s> is <g - Q r, s> up to u-sized terms, <s, g> and <s, Q r>
are within gamma_N ||s|| ||g|| and gamma_N ||s|| ||Q r||, and a2 ||lambda||
<= (||g|| + ||Q r||)(1 + O(u)) + 5 eps a2 sqrt N.  Since
e^z (|z| + 1) + 1 <= 2 phi(z) + 7 (check z <= 0, 0 < z < 2 and z >= 2),
the errors of (i) give K_c(t) >= (1 - 2 beta) K(t) - 7 beta M, and
K_c(p) <= K(p) + beta (||p|| ||lambda|| + sqrt N ||p|| + M).  Collected,
with the roundings of q_c(eta), E(p), the trial value and L itself:

    value >= E(p) - eta <s, g> + eta^2/2 <s, Q s> - E(eta),
    E(eta) = c ((||p|| + eta ||s||)(||g|| + ||Q r|| + a2 sqrt N) + 5 a2 M)
             + 8 eps (|E(p)| + |q(r)| + eta |<s, Q r>| + eta |<s, g>|
                      + eta^2 |<s, Q s>|),   c = 2 (N + 16) eps.

To first order in u the proof needs 1.5 (N + 11) eps on ||p|| (||g|| +
||Q r||), (1.5 N + 16) eps on eta ||s|| (||g|| + ||Q r||), (N + 10) eps / 2
on a2 sqrt N ||p||, 4 eps on a2 sqrt N eta ||s||, 5 (N + 10) eps on a2 M
and 4 eps on the last sum: E(eta) holds a margin of a quarter or more on
each, which covers the second-order terms and the rounding of the norms.
In exact arithmetic L = E(p) - eta <s, g> + eta^2/2 <s, Q s> - E(eta)
fails the rule only when eta <s, Q s> > <s, g>, so (ii) is formed only
then, and its four norms at most once per step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable

import numpy as np

from .grid import Density
from .losses import LossEval, LossSpec, along_line, combined_eval

__all__ = [
    "DescentConfig",
    "IterationRecord",
    "StepDiagnostics",
    "DescentHistory",
    "armijo_step",
    "run_descent",
]

MetricFn = Callable[[Density, np.ndarray, Density], np.ndarray]  # (p, g, mu) -> s

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
    trials: int  # trials priced; the other halvings - trials + 1 were ruled out unpriced
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


def armijo_accepts(value: float, value_before: float, eta: float, slope: float) -> bool:
    """The Armijo rule on a computed trial value: True when the trial is accepted.

    It is monotone in `value`: a value that fails it fails for every
    larger value too, and +inf and NaN fail it.
    """
    decrease = value - value_before
    slack = ROUNDING_SLACK * (abs(value_before) + eta * slope)
    # the slack never admits a trial that raises the loss
    return decrease <= 0.0 and decrease <= -ARMIJO_COEFFICIENT * eta * slope + slack


def armijo_step(
    p: Density,
    spec: LossSpec,
    metric: MetricFn,
    evaluated: LossEval,
) -> tuple[Density, LossEval, StepDiagnostics]:
    """One backtracking step from p.

    Returns (next density, its evaluation, diagnostics).  On a stall (see
    the module docstring for its two reasons) the density is returned
    unchanged and the evaluation is the one at p.
    `evaluated` is the evaluation at p (combined_eval's or the previous
    step's), whose quadratic part saves a K-solve.  The metric is called
    as metric(p, g, spec.mu), so a metric built at mu (the two-level
    combined one) gets the loss's own.  A p that is not a Density or a
    spec that is not a LossSpec raises TypeError, and a p on another grid
    than the loss's ValueError.  The slope <s, g> is formed once, here,
    for the rule and the lower bounds.
    """
    if not isinstance(p, Density):
        raise TypeError(f"p must be a Density, got {type(p).__name__}")
    if not isinstance(spec, LossSpec):
        raise TypeError(f"spec must be a LossSpec, got {type(spec).__name__}")
    if p.grid != spec.grid:
        raise ValueError(f"start grid {p.grid} is not the loss grid {spec.grid}")

    def stall(
        reason: str, slope: float, eta: float = 0.0, halvings: int = 0, trials: int = 0
    ) -> tuple[Density, LossEval, StepDiagnostics]:
        diag = StepDiagnostics(
            accepted=False, eta=eta, halvings=halvings, trials=trials, slope=slope,
            value_before=evaluated.value, value_after=evaluated.value, reason=reason,
        )
        return p, evaluated, diag

    g = evaluated.gradient
    s = metric(p, g, spec.mu)
    slope = float(s @ g)
    if not np.isfinite(slope) or slope <= 0.0:
        return stall("non-descent direction", slope)
    line = along_line(spec, p.values, evaluated, s)
    eta, trials = 1.0, 0
    for halvings in range(MAX_HALVINGS + 1):
        # a trial whose value a lower bound already shows to fail the rule
        # is rejected unpriced (the rule is monotone in the value)
        bounds = line.lower_bounds(eta, slope)
        if all(armijo_accepts(bound, evaluated.value, eta, slope) for bound in bounds):
            trials += 1
            trial = line(eta)
            if armijo_accepts(trial.value, evaluated.value, eta, slope):
                diag = StepDiagnostics(
                    accepted=True, eta=eta, halvings=halvings, trials=trials, slope=slope,
                    value_before=evaluated.value, value_after=trial.value,
                )
                return Density(p.grid, trial.point), line.loss_eval(trial), diag
        eta *= 0.5
    return stall("line search exhausted max_halvings", slope, eta, MAX_HALVINGS, trials)


@functools.lru_cache(maxsize=1)  # the descents of a panel or a preset share one start
def _start_evaluation(p0: Density, spec: LossSpec) -> LossEval:
    """E(p0) under spec, cached for the last (p0, spec): p0 by identity, spec by value."""
    return combined_eval(p0.values, spec)


def run_descent(
    p0: Density,
    spec: LossSpec,
    metric: MetricFn,
    cfg: DescentConfig = DescentConfig(),
) -> DescentHistory:
    """Iterate armijo_step from p0 until the loss gap closes.

    The gap is E(p^k) - E(mu), which is E(p^k) itself: every term of the
    loss vanishes at mu.  Terminates on gap <= cfg.gap_tolerance
    (converged), cfg.max_iterations, or a stalled step, with its reason
    ("non-descent direction" or "line search exhausted max_halvings") in
    `stall_reason`.  p0 must be a Density and spec a LossSpec (TypeError
    otherwise), p0 strictly positive as every Density is, on the grid of mu
    (ValueError otherwise).

    E(p0) comes from `_start_evaluation`, which holds one entry: the
    evaluation for the last (p0, spec) it was asked for, p0 matched by
    identity and spec by value.  Descents from one start under one loss,
    such as the metrics of a preset, share it; it is read-only, as every
    LossEval is, and the history is the one a fresh evaluation gives.
    """
    if not isinstance(p0, Density):
        raise TypeError(f"p0 must be a Density, got {type(p0).__name__}")
    if not isinstance(spec, LossSpec):
        raise TypeError(f"spec must be a LossSpec, got {type(spec).__name__}")
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
    ev = _start_evaluation(p0, spec)
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
