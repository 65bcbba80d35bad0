"""Slow references for the difference stencils: np.roll, sparse row shifts and CSR products.

Each function writes the periodic forward difference out by hand (array
shifts, a permutation of the rows of W, or D's entries from its
definition), so it shares no code with `waveng.operators`.  The 2D Hessian diagonals are the
two-sided products written out term by term instead of through
`grid.tensor_apply`.

`axis_apply` applies a 1D matrix along one axis of the site array, by
CSR products on (in 2D) transposed copies.  With D built here from its
entries, and D^T and D^T D formed from it (`csr_difference_matrices`), it gives
the CSR forms of the stencils (`csr_laplacian_apply`, `csr_flux_apply`),
whose bits the library's shifts must reproduce in every dimension;
`diff_apply` and `diff_adjoint_apply` apply D and D^T along one axis, so
that a test can build them column by column into dense matrices or check
them against the stencil.  `random_factor` is a non-symmetric sparse 1D
matrix for the tensor-rule checks.

`closed_form_1d` is the 1D weighted solve written with np.mean and
np.linalg.norm, as the library's was before it took the bare sum and dot
product that those wrappers compute, so a test can require the same bits.
"""

import numpy as np
import scipy.sparse as sp

from waveng.grid import Grid, check_vector


def difference_matrix(n: int) -> sp.csr_matrix:
    """D as n x n CSR from its definition: -n at (s, s) and +n at (s, s + 1), wrapping."""
    rows = np.repeat(np.arange(n), 2)
    cols = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=-1).ravel()
    data = np.tile([-float(n), float(n)], n)
    d = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    d.sort_indices()
    return d


def csr_difference_matrices(n: int) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """(D, D^T, D^T D) as n x n CSR: D from its definition, its transpose and their product."""
    d = difference_matrix(n)
    dt = d.T.tocsr()
    return d, dt, dt @ d


def axis_apply(a: sp.csr_matrix, v: np.ndarray, axis: int, dim: int) -> np.ndarray:
    """Apply the 1D matrix A along `axis` of the site array of a dim-D grid.

    In 2D: (A (x) I) v = A X on axis 0, (I (x) A) v = X A^T on axis 1, X the array of v.
    """
    if not 0 <= axis < dim:
        raise ValueError(f"axis {axis} invalid for a {dim}D grid")
    if dim == 1:
        return a @ v
    if axis == 0:
        return (a @ v.reshape(a.shape[1], -1)).reshape(-1)
    return (a @ v.reshape(-1, a.shape[1]).T).T.reshape(-1)


def random_factor(n: int, seed: int) -> sp.csr_matrix:
    """A sparse n x n matrix with a nonzero diagonal; almost surely not symmetric."""
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=0.4, random_state=rng) + sp.diags(rng.uniform(1, 2, n))
    return sp.csr_matrix(a)


def csr_laplacian_apply(grid: Grid, x: np.ndarray) -> np.ndarray:
    """-Delta x as the sum over the axes of D^T D applied by `axis_apply`."""
    dtd = csr_difference_matrices(grid.n)[2]
    out = axis_apply(dtd, x, 0, grid.dim)
    for axis in range(1, grid.dim):
        out += axis_apply(dtd, x, axis, grid.dim)
    return out


def csr_flux_apply(grid: Grid, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_a D_a^T (w * D_a x), each D_a and D_a^T applied by `axis_apply`."""
    d, dt, _ = csr_difference_matrices(grid.n)
    out = axis_apply(dt, w * axis_apply(d, x, 0, grid.dim), 0, grid.dim)
    for axis in range(1, grid.dim):
        out += axis_apply(dt, w * axis_apply(d, x, axis, grid.dim), axis, grid.dim)
    return out


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


def diagonals_2d(h1: np.ndarray, h2: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H1 P H2^T + H2 P H1^T, H2 P H2^T) on the n x n array of p, flattened; H1, H2 dense."""
    n = h1.shape[0]
    x = p.reshape(n, n)
    return (h1 @ x @ h2.T + h2 @ x @ h1.T).reshape(-1), (h2 @ x @ h2.T).reshape(-1)


def diff_apply(grid: Grid, v: np.ndarray, axis: int = 0) -> np.ndarray:
    """Apply D along `axis` with periodic wrap: (Dv)_s = n (v_{s+1} - v_s)."""
    return axis_apply(difference_matrix(grid.n), check_vector(grid, v), axis, grid.dim)


def diff_adjoint_apply(grid: Grid, u: np.ndarray, axis: int = 0) -> np.ndarray:
    """Apply D^T along `axis`: (D^T u)_s = n (u_{s-1} - u_s)."""
    return axis_apply(csr_difference_matrices(grid.n)[1], check_vector(grid, u), axis, grid.dim)


def closed_form_1d(wv: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """(x, backward error) of the 1D solve of D^T diag(w) D x = rhs - mean(rhs).

    The library's closed form and residual gate, step for step, with the
    residual from the np.roll stencil; see operators._closed_form_1d.
    """
    n = rhs.size
    b = rhs - rhs.mean()
    inv_w = 1.0 / wv
    f = -np.cumsum(b) / n
    f -= (f @ inv_w) / inv_w.sum()
    step = f * inv_w / n
    k = wv.argmin()
    step[k] = 0.0
    step[k] = -step.sum()
    x = np.concatenate(([0.0], np.cumsum(step[:-1])))
    x -= x.mean()
    residual = flux_apply(wv, x) - b
    rnorm = float(np.linalg.norm(residual - residual.mean()))
    scale = float(np.linalg.norm(rhs)) + 4.0 * n**2 * float(wv.max()) * float(np.linalg.norm(x))
    return x, rnorm / scale
