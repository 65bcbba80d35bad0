"""Test oracle: the Armijo backtracking step that prices every trial.

`optimizer.armijo_step` rejects a trial unpriced when a lower bound of its
value already fails the Armijo rule.  This loop prices each trial and
writes the rule out in full, so the two must take the same step bit for
bit: the same eta, halvings and value, and the same next density and
gradient.
"""

import numpy as np

from waveng.losses import along_line
from waveng.optimizer import ARMIJO_COEFFICIENT, MAX_HALVINGS, ROUNDING_SLACK


def armijo_step(evaluated, spec, metric):
    """(the LossEval after the step, accepted, eta, halvings, value_after), pricing every trial.

    On a stall the evaluation at p comes back unchanged, as in
    `optimizer.armijo_step`.
    """
    ev = evaluated
    g = ev.gradient
    s = metric(ev.point, g, spec.mu)
    slope = float(s @ g)
    if not np.isfinite(slope) or slope <= 0.0:
        return ev, False, 0.0, 0, ev.value
    line = along_line(spec, ev, s)
    eta = 1.0
    for halvings in range(MAX_HALVINGS + 1):
        trial = line(eta)
        decrease = trial.value - ev.value
        slack = ROUNDING_SLACK * (abs(ev.value) + eta * slope)
        if decrease <= 0.0 and decrease <= -ARMIJO_COEFFICIENT * eta * slope + slack:
            return line.loss_eval(trial), True, eta, halvings, trial.value
        eta *= 0.5
    return ev, False, eta, MAX_HALVINGS, ev.value
