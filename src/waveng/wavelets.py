"""Periodized orthogonal Daubechies wavelet bases on power-of-two grids.

A 1D basis is stored once as the sparse n x n matrix W whose columns are the
basis functions.  W is the product of per-level sparse synthesis matrices
with circular (periodic) wrap, so it is exactly orthogonal for any
decomposition depth and holds O(n log n) nonzeros; this is the matrix form
of the fast wavelet transform (Beylkin, Coifman & Rokhlin 1991).  Column
layout is [detail level 1 (finest, n/2) | detail level 2 (n/4) | ... |
detail level L | scaling level L], which makes the last column the coarsest
scaling function.

Synthesis convention: tap r of the coefficient at position j of a level of
length m lands on site (2j+r) mod m, so analysis reads
a_j = sum_r h[r] v[(2j+r) mod m].  Highpass is the alternating flip
g[i] = (-1)^i h[2k-1-i].  Filters are derived by spectral factorization at
50-digit precision so orthogonality holds to double-precision roundoff.

In 2D the basis is the tensor product of the 1D basis with itself.  It is
never materialized: on the n x n site array X the analysis is W^T X W and
the synthesis W C W^T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .grid import Grid
from .operators import _check_length

__all__ = [
    "FilterPair",
    "WaveletBasis",
    "daubechies_filters",
    "make_basis",
    "transform_forward",
    "transform_inverse",
    "tensor_apply",
    "dense_matrix",
]

MAX_ORDER = 10


@dataclass(frozen=True)
class FilterPair:
    """Orthogonal lowpass/highpass pair of length 2*order."""

    order: int
    lowpass: np.ndarray
    highpass: np.ndarray

    def __len__(self) -> int:
        return 2 * self.order


@lru_cache(maxsize=None)
def daubechies_filters(order: int) -> FilterPair:
    """Daubechies filter pair with `order` vanishing moments, 1 <= order <= 10.

    Computed by spectral factorization of the binomial half-band polynomial
    in 50-digit arithmetic, then rounded once to float64; published tables
    carry too few digits for the 1e-12 orthogonality checks used here.
    Ordering matches the convention with h[0] = (1+sqrt 3)/(4 sqrt 2) for
    order 2.
    """
    if not isinstance(order, (int, np.integer)) or not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be an integer in [1, {MAX_ORDER}], got {order}")
    order = int(order)
    if order == 1:
        lowpass = np.array([1.0, 1.0]) / np.sqrt(2.0)
    else:
        lowpass = _daubechies_lowpass_mp(order)
    i = np.arange(2 * order)
    highpass = (-1.0) ** i * lowpass[::-1]
    return FilterPair(order=order, lowpass=lowpass, highpass=highpass)


def _daubechies_lowpass_mp(k: int) -> np.ndarray:
    """Spectral factorization of P(y) = sum_m C(k-1+m, m) y^m at high precision."""
    import mpmath as mp

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
            poly = _poly_mul(poly, [mp.mpc(1), mp.mpc(1)])
        for z0 in z_roots:
            poly = _poly_mul(poly, [-z0, mp.mpc(1)])
        vals = [mp.re(c) for c in poly]
        total = sum(vals)
        scale = mp.sqrt(2) / total
        # descending-power ordering puts the largest tap first for k = 2
        h = [float(v * scale) for v in reversed(vals)]
    return np.array(h, dtype=np.float64)


def _poly_mul(a: list, b: list) -> list:
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


@dataclass(frozen=True)
class WaveletBasis:
    """Filter pair, decomposition depth and the 1D basis matrix for one grid.

    `matrix` is the n x n CSR matrix W of the 1D basis and `matrix_t` its
    transpose, stored as CSR once so that an analysis does not build the
    transposed view on every call.  In 2D the basis is the full tensor
    product of the 1D basis with itself and the coefficient array has
    length n^2, indexed (i1, i2) -> i1*n + i2 like the sites.
    """

    grid: Grid
    filters: FilterPair
    levels: int
    matrix: sp.csr_matrix = field(repr=False, compare=False)
    matrix_t: sp.csr_matrix = field(repr=False, compare=False)


def make_basis(grid: Grid, order: int = 3, levels: int | None = None) -> WaveletBasis:
    """Build a periodized wavelet basis on the grid.

    Default depth is the full cascade (levels = log2 n), which ends in a
    single scaling column that is stored as exactly 1/sqrt(n); the metric
    construction relies on its discrete derivative vanishing exactly to
    freeze total mass.  Coarse levels shorter than the filter wrap it modulo
    the level length, which preserves exact orthogonality.  The default
    order (3 vanishing moments) is the smallest at which the combined-metric
    descent behaves well on the 2D benchmarks.
    """
    filters = daubechies_filters(order)
    n = grid.n
    max_levels = int(np.log2(n))
    if levels is None:
        levels = max_levels
    if not 1 <= levels <= max_levels:
        raise ValueError(f"levels must be in [1, {max_levels}] for n={n}")
    approx = sp.identity(n, format="csr")  # scaling functions of the current level
    columns = []
    m = n
    for _ in range(levels):
        columns.append(approx @ _synthesis_matrix(filters.highpass, m))
        approx = approx @ _synthesis_matrix(filters.lowpass, m)
        m //= 2
    if m == 1:  # full depth: replace the roundoff-level constant by the exact one
        approx = sp.csr_matrix(np.full((n, 1), 1.0 / np.sqrt(n)))
    w = sp.hstack(columns + [approx], format="csr")
    w.eliminate_zeros()
    w.sort_indices()
    return WaveletBasis(grid=grid, filters=filters, levels=levels, matrix=w, matrix_t=w.T.tocsr())


def _synthesis_matrix(f: np.ndarray, m: int) -> sp.csr_matrix:
    """m x m/2 matrix with tap r of column j at row (2j+r) mod m.

    Taps of a filter longer than m land on the same row more than once;
    COO duplicate summation folds them, wrapping the filter modulo m.
    """
    j = np.arange(m // 2)
    rows = (2 * j[None, :] + np.arange(len(f))[:, None]) % m
    cols = np.broadcast_to(j, rows.shape)
    vals = np.broadcast_to(f[:, None], rows.shape)
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(m, m // 2)).tocsr()


def tensor_apply(factors: list[sp.csr_matrix], v: np.ndarray) -> np.ndarray:
    """Apply one 1D sparse factor along each axis of the flattened site array.

    One factor A gives A v; two give A0 X A1^T on the array X of v, which is
    the Kronecker product A0 (x) A1 applied without forming it.
    """
    if len(factors) == 1:
        return factors[0] @ v
    a0, a1 = factors
    return (a1 @ (a0 @ v.reshape(a0.shape[1], a1.shape[1])).T).T.reshape(-1)


def transform_forward(basis: WaveletBasis, v: np.ndarray) -> np.ndarray:
    """Wavelet analysis: W^T v in 1D, W^T X W on the n x n site array in 2D."""
    v = _check_length(basis.grid, v)
    return tensor_apply([basis.matrix_t] * basis.grid.dim, v)


def transform_inverse(basis: WaveletBasis, c: np.ndarray) -> np.ndarray:
    """Wavelet synthesis: W c in 1D, W C W^T on the n x n coefficient array in 2D."""
    c = _check_length(basis.grid, c)
    return tensor_apply([basis.matrix] * basis.grid.dim, c)


def dense_matrix(basis: WaveletBasis) -> np.ndarray:
    """The basis matrix as a dense array (W, or W x W in 2D); small n only."""
    w = basis.matrix.toarray()
    if basis.grid.dim == 1:
        return w
    return np.kron(w, w)
