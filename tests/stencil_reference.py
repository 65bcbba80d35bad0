"""Slow references for the difference stencils: np.roll and sparse row shifts.

Each function writes the periodic forward difference out by hand (array
shifts, or a permutation of the rows of W), so it shares no code with the
difference matrices of `waveng.operators`.  The 2D Hessian diagonals are the
two-sided products written out term by term instead of through
`grid.tensor_apply`.
"""

import numpy as np


def flux_apply(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_a D_a^T diag(w) D_a x on arrays of the grid's shape (n along every axis)."""
    out = np.zeros_like(x)
    for axis in range(x.ndim):
        flux = w * (np.roll(x, -1, axis=axis) - x)
        out += np.roll(flux, 1, axis=axis) - flux
    return x.shape[0] ** 2 * out


def laplacian_apply(x: np.ndarray) -> np.ndarray:
    """-Delta x = sum_a D_a^T D_a x on an array of the grid's shape."""
    out = np.zeros_like(x)
    for axis in range(x.ndim):
        out += 2.0 * x - np.roll(x, 1, axis=axis) - np.roll(x, -1, axis=axis)
    return x.shape[0] ** 2 * out


def h1_h3(w):
    """(H1, h3) from the sparse 1D basis matrix W, with DW = n (next row of W - W)."""
    n = w.shape[0]
    dw = n * (w[(np.arange(n) + 1) % n] - w)
    dw.eliminate_zeros()
    dw2 = dw.multiply(dw)
    return dw2.T.tocsr(), np.asarray(dw2.sum(axis=0)).ravel()


def diagonals_2d(h1, h2, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H1 P H2^T + H2 P H1^T, H2 P H2^T) on the n x n array of p, flattened."""
    n = h1.shape[0]
    x = p.reshape(n, n)
    h2x = h2 @ x
    h1p = ((h2 @ (h1 @ x).T).T + (h1 @ h2x.T).T).reshape(-1)
    h2p = (h2 @ h2x.T).T.reshape(-1)
    return h1p, h2p
