"""A fixed reference computation that measures how fast the machine runs now.

The benchmark shares its machine with other tenants, and the speed of one
core drifts by up to 2x over seconds to minutes, so wall times of the same
work taken minutes apart differ by more than any bound worth setting.  The
reference kernel does the same kind of work as the descents (periodic
stencils, FFTs and norms on arrays of the workload's grid shape) but runs
none of the library's code, so a change to `src/` never changes it.  Timed
next to the work it calibrates, it gives the machine's current speed:

    reference-speed seconds = wall seconds * NOMINAL_S / reference_s(shape)

which cancels the drift and keeps every change in the library's own speed.
"""

from __future__ import annotations

import math
import time

import numpy as np

SIZE_WORK = 7500  # kernel iterations times sqrt(grid sites): ~20 ms a call at each size

# Median reference_s at all three grid sizes (0.0219-0.0231 s) on the
# machine the benchmark was defined on, a 2 vCPU Intel Xeon VM with numpy
# 2.4.6.  It only sets the unit: runs are compared with each other.
NOMINAL_S = 0.0225


def reference_s(shape: tuple[int, ...]) -> float:
    """Wall time of one call of the reference kernel on arrays of `shape`."""
    sites = math.prod(shape)
    x = np.cos(np.arange(sites, dtype=np.float64)).reshape(shape)
    freqs = np.fft.rfftn(x).shape
    weight = 1.0 / (1.0 + np.arange(math.prod(freqs), dtype=np.float64).reshape(freqs))
    axes = tuple(range(len(shape)))
    started = time.perf_counter()
    for _ in range(max(1, round(SIZE_WORK / math.sqrt(sites)))):
        y = -2.0 * len(shape) * x
        for axis in axes:
            y += np.roll(x, 1, axis=axis) + np.roll(x, -1, axis=axis)
        x = np.fft.irfftn(np.fft.rfftn(y) * weight, s=shape, axes=axes)
        x /= np.linalg.norm(x)
    return time.perf_counter() - started


def speed_scale(reference: float) -> float:
    """Factor from wall seconds to reference-speed seconds."""
    return NOMINAL_S / reference
