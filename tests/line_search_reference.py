"""Test oracle: the Armijo backtracking step that prices every trial.

`optimizer.armijo_step` rejects a trial unpriced when a lower bound of its
value already fails the Armijo rule.  This loop prices each trial and
writes the rule out in full, so the two must take the same step bit for
bit: the same eta, halvings and value, and the same next density and
gradient.
"""

import numpy as np

from waveng.grid import Density
from waveng.losses import along_line
from waveng.optimizer import ARMIJO_COEFFICIENT, MAX_HALVINGS, ROUNDING_SLACK


def armijo_step(p, spec, metric, evaluated):
    """(next density, its LossEval, accepted, eta, halvings, value_after), pricing every trial.

    On a stall the density and evaluation at p come back unchanged, as in
    `optimizer.armijo_step`.
    """
    ev = evaluated
    g = ev.gradient
    s = metric(p, g, spec.mu)
    slope = float(s @ g)
    if not np.isfinite(slope) or slope <= 0.0:
        return p, ev, False, 0.0, 0, ev.value
    line = along_line(spec, p.values, ev, s)
    eta = 1.0
    for halvings in range(MAX_HALVINGS + 1):
        trial = line(eta)
        decrease = trial.value - ev.value
        slack = ROUNDING_SLACK * (abs(ev.value) + eta * slope)
        if decrease <= 0.0 and decrease <= -ARMIJO_COEFFICIENT * eta * slope + slack:
            next_p = Density(p.grid, trial.point)
            return next_p, line.loss_eval(trial), True, eta, halvings, trial.value
        eta *= 0.5
    return p, ev, False, eta, MAX_HALVINGS, ev.value
