"""Slow reference for the wavelet basis: the per-tap filter-bank cascade.

Synthesizes every unit coefficient level by level with circular convolution,
one filter tap at a time, so it shares no code with the sparse-matrix
construction in `waveng.wavelets` beyond the filters themselves.
`dense_matrix` is the exception: it densifies the library's own W, for
tests that need the basis as a dense array.
"""

import numpy as np

from waveng.wavelets import WaveletBasis, daubechies_filters


def wrap_filter(f: np.ndarray, m: int) -> np.ndarray:
    """Fold a filter modulo m (no-op when it already fits)."""
    if len(f) <= m:
        return f
    w = np.zeros(m)
    for i, v in enumerate(f):
        w[i % m] += v
    return w


def synthesis_level(a: np.ndarray, d: np.ndarray, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """One inverse cascade level on the last axis; output length 2*len(a)."""
    m = 2 * a.shape[-1]
    hw = wrap_filter(h, m)
    gw = wrap_filter(g, m)
    v = np.zeros(a.shape[:-1] + (m,))
    base = np.arange(0, m, 2)
    for r in range(len(hw)):
        idx = (base + r) % m  # distinct for fixed r, so fancy += is safe
        v[..., idx] += hw[r] * a + gw[r] * d
    return v


def loop_matrix(n: int, order: int, levels: int | None = None) -> np.ndarray:
    """Dense 1D basis matrix W from the cascade, in the library's column layout."""
    filters = daubechies_filters(order)
    h, g = filters.lowpass, filters.highpass
    if levels is None:
        levels = int(np.log2(n))
    segments = []
    offset, m = 0, n
    for _ in range(levels):
        m //= 2
        segments.append((offset, m))
        offset += m
    c = np.eye(n)  # row i holds the coefficients of column i
    a = c[:, offset : offset + m]
    for off, length in reversed(segments):
        a = synthesis_level(a, c[:, off : off + length], h, g)
    return a.T


def dense_matrix(basis: WaveletBasis) -> np.ndarray:
    """The basis matrix as a dense array (W, or W x W in 2D); small n only."""
    w = basis.matrix.toarray()
    if basis.grid.dim == 1:
        return w
    return np.kron(w, w)
