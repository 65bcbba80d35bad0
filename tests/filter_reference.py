"""Slow reference for the Daubechies filters: the high-precision derivation.

`waveng.wavelets` ships the lowpass taps as a float64 table; this module
re-derives them by spectral factorization of the binomial half-band
polynomial in 50-digit `mpmath` arithmetic, rounded once to float64, so a
test can check the table bit for bit.
"""

import mpmath as mp
import numpy as np


def daubechies_lowpass_mp(k: int) -> np.ndarray:
    """Spectral factorization of P(y) = sum_m C(k-1+m, m) y^m at high precision."""
    with mp.workdps(50):
        # roots of P in y, then the |z| < 1 root of z + 1/z = 2 - 4y per y-root
        coeffs = [mp.binomial(k - 1 + m, m) for m in range(k)]  # ascending in y
        y_roots = mp.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=120)
        z_roots = []
        for y in y_roots:
            b = 2 - 4 * y
            disc = mp.sqrt(b * b - 4)
            z1 = (b + disc) / 2
            z2 = (b - disc) / 2
            z_roots.append(z1 if abs(z1) < 1 else z2)
        # h(z) = c * (1+z)^k * prod (z - z_i), expanded in ascending powers
        poly = [mp.mpc(1)]
        for _ in range(k):
            poly = poly_mul(poly, [mp.mpc(1), mp.mpc(1)])
        for z0 in z_roots:
            poly = poly_mul(poly, [-z0, mp.mpc(1)])
        vals = [mp.re(c) for c in poly]
        total = sum(vals)
        scale = mp.sqrt(2) / total
        # descending-power ordering puts the largest tap first for k = 2
        h = [float(v * scale) for v in reversed(vals)]
    return np.array(h, dtype=np.float64)


def poly_mul(a: list, b: list) -> list:
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out
