"""Periodic difference operators and elliptic pseudo-inverse solves.

D is the 1D forward difference scaled by n.  -Delta = sum_a D_a^T D_a,
the weighted flux sum_a D_a^T (w * D_a x) and the metric precompute's
differences are applied by one rule in every dimension, with no matrix:
shifted slices of the flat site vector, by 1 along the last axis and, in
2D, by n along axis 0, with the wrap entries of each axis redone by hand.
As n is a power of two the shifts give the CSR products' bits (see
`laplacian_apply`), without the transposed copies that a CSR product
along axis 1 takes or scipy's dispatch on every call.  Per call (one
thread, 2-vCPU VM) the 2D Laplacian took 24-25 against 26-27 us at 64^2
and 58-66 against 95-98 us at 128^2, the 2D flux 26-31 against 52 us at
64^2, and the 1D flux 7.5 against 11.4 us at n = 512, where the 1D
Laplacian took 6.5 against 6.2 us, about its one CSR matvec's time.
The Laplacian makes two site arrays, its output and 2 v, in which the 2D
form then sums its axis-0 term once the last axis has read it.  D
itself is built as a matrix only by the 2D solve's set-up
(`_scaled_operator`), which assembles L_w = sum_a D_a^T diag(w) D_a by
lifting D_a with Kronecker products.  L_w is inverted on the mean-zero
subspace: in 1D in closed form with two cumulative sums, in 2D by
conjugate gradients in the scaled variable y = S x, on A = S^-1 L_w S^-1
with the Jacobi scale S = diag(s), s_i^2 = L_w[i, i] / (2 dim n^2), the
mean of the 2 dim edge weights at site i.  A then has the diagonal
2 dim n^2 of -Delta for every w, so CG is preconditioned by two levels:
the exact inverse of A's Galerkin block on the low Fourier modes
(wavenumber <= COARSE_WAVENUMBER per axis), where the variation of w
changes A as much as -Delta's own eigenvalues there, and the Laplacian
pseudo-inverse on the other modes, where A and -Delta differ only at
second order in the grid spacing for a smooth w.  The part of each solve
fixed by w is one private cache per dimension, kept for the last weight
density it was built for (a Density is keyed by identity) and returning
a tuple of read-only arrays, so a caller with a fixed w (the loss's mu)
pays once per run: in 2D A as CSR, s, 1/s and the coarse block's inverse
(`_scaled_operator`), in 1D 1/w, its sum, argmin w and max w
(`_closed_form_set_up`).

The constant-coefficient pseudo-inverse (-Delta)^+ is diagonalized by the
periodic Fourier modes.  Each grid gets one cached map, v -> (-Delta)^+ v:
for 2D grids with n <= 64 dense products in the real periodic eigenbasis
(the fast diagonalization method), otherwise the FFT with its inverse
symbol computed once.  The FFT map calls numpy's 1D transforms: rfft and
irfft in 1D, and in 2D rfft on the last axis, then fft and ifft on axis 0
in place (`out=`, numpy >= 2.0), the steps and so the bytes of rfftn and
irfftn with one complex array fewer per transform.  Given a weight
density's coarse inverse, the same map is the 2D solve's two-level
preconditioner, exact on the low modes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .grid import Density, Grid, check_vector, frozen, tensor_apply

__all__ = [
    "EllipticSolveConfig",
    "EllipticSolveError",
    "laplacian_apply",
    "laplacian_pinv_apply",
    "weighted_flux_apply",
    "symmetric_inverse",
    "weighted_elliptic_pinv_apply",
]

# Largest n whose 2D (-Delta)^+ plan uses dense eigenbasis products instead
# of the FFT.  Dense vs FFT per 2D application (one BLAS thread, 2-vCPU Xeon
# VM): 64-69 vs 106-136 us at 64^2, 430-520 vs 290-380 us at 128^2,
# 4.0 vs 1.5 ms at 256^2.
DENSE_PLAN_MAX_N = 64

# The coarse space of the 2D solve's two-level preconditioner: the periodic
# modes of wavenumber <= COARSE_WAVENUMBER on each axis, which are the first
# min(2 COARSE_WAVENUMBER + 1, n) columns of the real eigenbasis per axis
# (169 modes for n >= 16).  CG iterations for the preset measure and a
# white-noise rhs at 32^2/64^2/128^2, coarse |k| <= 4/5/6/7/8: 9/9/9,
# 8/8/7, 8/7/7, 8/7/6, 8/7/6 (17/17/17 with (-Delta)^+ alone); set-up
# (one BLAS thread, 2-vCPU VM) 7/8/11/16/20 ms at 64^2 and
# 20/21/31/38/55 ms at 128^2.
COARSE_WAVENUMBER = 6


class EllipticSolveError(RuntimeError):
    """Raised when a weighted elliptic solve misses its residual tolerance.

    `iterations` is the CG iteration count in 2D and 0 for the closed-form
    1D solve.
    """

    def __init__(self, message: str, achieved_residual: float, iterations: int):
        super().__init__(message)
        self.achieved_residual = achieved_residual
        self.iterations = iterations


@dataclass(frozen=True)
class EllipticSolveConfig:
    rel_tolerance: float = 1e-10
    max_iterations: int | None = None  # caps the 2D CG (10 * n * dim by default); 1D ignores it

    def __post_init__(self) -> None:
        tol = self.rel_tolerance  # a bool is a number, but True is no tolerance
        if isinstance(tol, (bool, np.bool_)) or not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"rel_tolerance must be finite and positive, got {tol}")
        cap = self.max_iterations
        # a bool is an Integral, but True is no iteration cap
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, Integral) or cap < 1):
            raise ValueError(f"max_iterations must be None or an integer >= 1, got {cap}")


def _last_axis_index(grid: Grid, j: int) -> int | slice:
    """The flat sites at index j of the last axis: site j in 1D, column j in 2D.

    A stencil redoes its wrap entries there by plain item assignment; in
    1D the int index makes them numpy scalars, which is about 3 us cheaper
    per 1D Laplacian at n = 512 than ufuncs on one-element slices.
    """
    return j if grid.dim == 1 else slice(j, None, grid.n)


def laplacian_apply(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Apply -Delta = sum_axes D_a^T D_a; annihilates constants exactly.

    Summed axis by axis, not as one 5-point matrix: a 3-point row sums a
    constant to exactly zero, a 5-point one need not where it wraps.  Each
    axis term is n^2 fl(fl(2 v - v_+) - v_-), the order in which a row of
    D^T D's CSR sums (v_+, v, v_-), and at index 0 of the axis, D^T D's
    wrap row (v_{n-1}, v_1, v_0), n^2 fl(2 v_0 - fl(v_{n-1} + v_1)), the
    bits of fl(fl(-v_{n-1} - v_1) + 2 v_0) as negation is exact; the axis
    terms are summed, then scaled by n^2 once.  That is D^T D's CSR product
    along each axis bit for bit, because n = 2^k: the entries -n^2 and
    2 n^2 are powers of two times -1 or 2, so the CSR products are exact,
    and for a power of two c, fl(c a + c b) = c fl(a + b), subnormal sums
    included.  Only the sign of a zero could differ, and the final + 0.0
    gives the +0 of the CSR sum, which starts at +0 and so never returns
    -0.  The bits match while no product or partial sum of the CSR form
    overflows, so wherever 8 n^2 max|v| is finite; past that the CSR form
    returns inf or NaN where the shifts need not.
    """
    v = check_vector(grid, v)
    n = grid.n
    two = v + v
    last, first = _last_axis_index(grid, n - 1), _last_axis_index(grid, 0)
    out = np.empty(grid.total)  # the last axis: v shifted by 1, then indices n - 1 and 0 redone
    np.subtract(two[:-1], v[1:], out=out[:-1])
    out[last] = two[last] - v[first]
    out[1:] -= v[:-1]
    out[first] = two[first] - (v[last] + v[_last_axis_index(grid, 1)])
    if grid.dim == 2:
        # axis 0 in 2v, which the last axis has spent: v shifted by n, the
        # last row wrapping to row 0, then row 0 redone from its own 2 v_0
        axis0 = two
        axis0[n:-n] -= v[2 * n :]
        axis0[-n:] -= v[:n]
        axis0[n:] -= v[:-n]
        axis0[:n] -= v[-n:] + v[n : 2 * n]
        out += axis0
    out *= float(n * n)
    out += 0.0
    return out


def weighted_flux_apply(w: Density, x: np.ndarray) -> np.ndarray:
    """sum_a D_a^T (w * D_a x) on w's grid, one axis at a time.

    A w that is not a Density raises TypeError; x goes through
    `check_vector`.  Along each axis, g = w fl(n x_+ - n x) is w times
    D_a x as D's CSR row sums it, and D_a^T g is n fl(g_- - g); the axis
    terms are summed, then scaled by n once.  That is the CSR products bit
    for bit, by the argument of `laplacian_apply` (n is a power of two; the
    final + 0.0 gives the CSR sum's +0).  n x is formed before w multiplies
    in, as in D's products: w fl(x_+ - x) scaled by n afterwards rounds
    otherwise where w (x_+ - x) is subnormal.  The bits match while no
    product or partial sum of the CSR form overflows, so wherever
    8 n^2 max|w| max|x| is finite.
    """
    if not isinstance(w, Density):
        raise TypeError(f"w must be a Density, got {type(w).__name__}")
    grid, weights = w.grid, w.values
    x = check_vector(grid, x)
    n = grid.n
    nx = x * float(n)
    last, first = _last_axis_index(grid, n - 1), _last_axis_index(grid, 0)
    g = np.empty(grid.total)  # the last axis: shift by 1, indices n - 1 and 0 redone
    np.subtract(nx[1:], nx[:-1], out=g[:-1])
    g[last] = nx[first] - nx[last]
    g *= weights
    out = np.empty(grid.total)
    np.subtract(g[:-1], g[1:], out=out[1:])
    out[first] = g[last] - g[first]
    if grid.dim == 2:
        np.subtract(nx[n:], nx[:-n], out=g[:-n])  # axis 0: shift by n, row 0 after the last row
        np.subtract(nx[:n], nx[-n:], out=g[-n:])
        g *= weights
        axis0 = nx  # n x is spent
        np.subtract(g[:-n], g[n:], out=axis0[n:])
        np.subtract(g[-n:], g[:n], out=axis0[:n])
        out += axis0
    out *= float(n)
    out += 0.0
    return out


@functools.lru_cache(maxsize=1)  # a run has one reference measure
def _scaled_operator(w: Density) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
    """The 2D solve's set-up: A = S^-1 L_w S^-1 as CSR, its scale s, 1 / s, the coarse inverse.

    L_w = sum_a D_a^T diag(w) D_a is assembled as CSR (5 entries per row,
    sorted indices), with D (row s holds -n at s and +n at s + 1, wrapping,
    so D annihilates exactly the constants) and D_a = D (x) I or I (x) D
    held only while it is assembled.  The scale is its Jacobi one:
    s_i^2 = L_w[i, i] / (2 dim n^2), the mean of the 2 dim edge weights at
    site i (w_i for a constant w), read off the diagonal before entry
    (i, j) is multiplied in place by the one factor 1/s_j * 1/s_i, the
    same for (j, i), so the result is exactly symmetric and the scaling
    holds one extra array of nnz floats.  The coarse inverse,
    (E^T A E + beta c c^T)^-1 on the coarse modes E, is built from A (see
    _coarse_inverse).  Cached for the last w it was called with, as
    `_closed_form_set_up` is for the 1D solve, so every 2D solve with one
    weight density shares one set-up, whose arrays are read-only.
    """
    grid = w.grid
    n = grid.n
    sites = np.arange(n)
    cols = np.stack([sites, np.roll(sites, -1)], axis=-1).ravel()
    data = np.tile([-float(n), float(n)], n)
    d = sp.csr_matrix((data, cols, np.arange(0, 2 * n + 1, 2)), shape=(n, n))
    d.sort_indices()
    eye = sp.identity(n, format="csr")
    lifted = [sp.kron(d, eye, "csr"), sp.kron(eye, d, "csr")]
    weights = sp.diags(w.values, format="csr")
    matrix = sum(da.T.tocsr() @ (weights @ da) for da in lifted)
    matrix.sort_indices()  # the column order a CG matvec sums in
    scale = np.sqrt(matrix.diagonal() / (2 * grid.dim * n**2))
    inv_scale = 1.0 / scale
    # every row holds the same count of entries, so row i of this view is row i of L_w
    factor = inv_scale[matrix.indices].reshape(grid.total, -1)
    factor *= inv_scale[:, None]
    matrix.data *= factor.ravel()
    coarse_inverse = _coarse_inverse(matrix, scale, n)
    return frozen(matrix, scale, inv_scale, coarse_inverse)


def _coarse_modes(q: np.ndarray) -> np.ndarray:
    """q_c: the columns of the real eigenbasis q of wavenumber <= COARSE_WAVENUMBER, n x m."""
    return q[:, : min(2 * COARSE_WAVENUMBER + 1, q.shape[0])]


def _coarse_inverse(a: sp.csr_matrix, scale: np.ndarray, n: int) -> np.ndarray:
    """(E^T a E + beta c c^T)^-1, exactly symmetric, for the coarse modes E = q_c (x) q_c.

    The Galerkin block E^T a E is formed one column of E at a time: a
    times the column q_c[:, i] (x) q_c[:, j], then q_c^T along both site
    axes.  Neither E (n^2 x m^2) nor an n^2 x m chunk of it is held, which
    keeps the build's peak memory about 0.8 MB (64^2) to 4 MB (128^2) below
    a chunked build's, at about the same speed.

    a's null direction is the scale, the image S 1 of the constants.  For a
    smooth w it lies almost entirely in the coarse space, so the block is
    nearly singular along c = E^T scale / ||E^T scale||; the term beta c c^T
    with beta = lambda_1 of the 1D -Delta makes it safely SPD (for a rough
    w it only adds a positive rank-one term).  The part along the scale
    that it lets into CG's iterate y only adds a constant to x = y / scale,
    which the solve's final mean removal drops.

    The block is inverted by `symmetric_inverse`, whose bytes do not
    depend on the thread count.
    """
    q_c = _coarse_modes(_real_periodic_eigenbasis(n)[0])
    m = q_c.shape[1]
    block = np.empty((m * m, m * m))
    for i in range(m):
        for j in range(m):
            image = a @ np.outer(q_c[:, i], q_c[:, j]).ravel()
            block[:, i * m + j] = tensor_apply([q_c.T, q_c], image)
    c = tensor_apply([q_c.T, q_c], scale)
    c /= np.linalg.norm(c)
    block += _laplacian_eigenvalues(n)[1] * np.outer(c, c)
    return symmetric_inverse(block)


def symmetric_inverse(a: np.ndarray) -> np.ndarray:
    """Overwrite the SPD float64 matrix a with its inverse, exactly symmetric, and return a.

    Gauss-Jordan sweeps in elementwise NumPy, without pivoting or BLAS, so
    unlike np.linalg.inv's the bytes do not depend on the thread count.
    Sweep k subtracts c_i c_j / c_k at (i, j) and (j, i) alike: only the
    lower triangle of a is read, and the inverse is symmetric to the last
    bit.  In place, with one scratch array of a's size, to keep the peak
    memory of the combined metric's three 255^2 inversions low.
    """
    update = np.empty_like(a)
    for k in range(a.shape[0]):  # the sweeps leave -a^-1 in place
        col = a[:, k].copy()
        np.multiply.outer(col, col, out=update)
        update /= col[k]
        a -= update
        a[:, k] = a[k, :] = col / col[k]
        a[k, k] = -1.0 / col[k]
    return np.negative(a, out=a)


def _laplacian_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalue 4 n^2 sin^2(pi k / n) of the 1D -Delta for each wavenumber k < n."""
    return 4.0 * n**2 * np.sin(np.pi * np.arange(n) / n) ** 2


def _pinv_symbol(lam: np.ndarray) -> np.ndarray:
    """1 / lam, with 0 for the zero (constant) mode."""
    with np.errstate(divide="ignore"):
        return np.where(lam > 0.0, 1.0 / lam, 0.0)


def _real_periodic_eigenbasis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal real eigenvectors of the 1D periodic -Delta (as columns) and their eigenvalues.

    Columns: the constant, then cos and sin of each wavenumber 0 < k < n/2,
    then the alternating mode k = n/2.
    """
    s = np.arange(n)
    k = np.arange(1, n // 2)
    angles = 2.0 * np.pi * np.outer(s, k) / n
    pairs = np.sqrt(2.0 / n) * np.stack([np.cos(angles), np.sin(angles)], axis=2)
    q = np.column_stack(
        [np.full(n, 1.0 / math.sqrt(n)), pairs.reshape(n, -1), (-1.0) ** s / math.sqrt(n)]
    )
    lam = _laplacian_eigenvalues(n)
    return q, np.concatenate(([0.0], np.repeat(lam[k], 2), [lam[n // 2]]))


@functools.cache
def _laplacian_pinv_plan(grid: Grid) -> Callable[..., np.ndarray]:
    """The grid's map v -> (-Delta)^+ v, or with a coarse inverse C, the 2D solve's M^-1 v.

    One map on flat vectors, apply(v, coarse_inverse=None).  On a 2D grid
    with n <= DENSE_PLAN_MAX_N, (-Delta)^+ is Q ((Q^T X Q) / Lambda) Q^T
    on the n x n array X, with Q the real periodic eigenbasis and
    Lambda_ij = lam_i + lam_j; otherwise the real FFT pair with the inverse
    symbol.  Both drop the constant mode, so the output has zero mean up to
    roundoff.  Given C (2D only), the map is M^-1 = F + E C E^T, the
    two-level preconditioner: E = q_c (x) q_c spans the coarse modes, the
    first m columns of Q per axis (`_coarse_modes`), C is the weight
    density's coarse inverse and F is (-Delta)^+ on the other modes.  The
    dense map then overwrites the [:m, :m] block of the spectral array,
    which is E^T v, with C E^T v after the multiply by 1 / Lambda; the FFT
    map adds the exact coarse correction E (C - Lambda_c^+) E^T v to
    (-Delta)^+ v, with Lambda_c^+ the inverse symbol on the coarse block.
    M^-1 is SPD, since F and E C E^T are SPD on complementary sets of
    modes.  Plans stay cached for the life of the process; one holds
    O(n^2) floats (about 100 KB at n = 64).
    """
    n, shape, total = grid.n, grid.shape, grid.total
    if grid.dim == 2:
        q, lam = _real_periodic_eigenbasis(n)
        q_c = np.ascontiguousarray(_coarse_modes(q))
        q_ct = np.ascontiguousarray(q_c.T)
        m = q_c.shape[1]
        inv_c = _pinv_symbol(lam[:m, None] + lam[None, :m])
    if grid.dim == 2 and n <= DENSE_PLAN_MAX_N:
        qt = np.ascontiguousarray(q.T)
        inv = _pinv_symbol(lam[:, None] + lam[None, :])

        def dense_apply(v: np.ndarray, coarse_inverse: np.ndarray | None = None) -> np.ndarray:
            spec = qt @ v.reshape(shape) @ q
            if coarse_inverse is not None:
                coarse = coarse_inverse @ spec[:m, :m].ravel()
            spec *= inv
            if coarse_inverse is not None:
                spec[:m, :m] = coarse.reshape(m, m)
            return (q @ spec @ qt).reshape(total)

        return dense_apply
    eigenvalues = _laplacian_eigenvalues(n)
    half = eigenvalues[: n // 2 + 1]
    inv = _pinv_symbol(half if grid.dim == 1 else eigenvalues[:, None] + half[None, :])

    def fft_apply(v: np.ndarray, coarse_inverse: np.ndarray | None = None) -> np.ndarray:
        if grid.dim == 1:
            spec = np.fft.rfft(v)
            spec *= inv
            return np.fft.irfft(spec, n)
        # rfftn's and irfftn's 1D transforms, in their order, with axis 0's in place
        spec = np.fft.rfft(v.reshape(shape))
        np.fft.fft(spec, axis=0, out=spec)
        spec *= inv
        np.fft.ifft(spec, axis=0, out=spec)
        out = np.fft.irfft(spec, n).reshape(total)
        if coarse_inverse is not None:
            coarse = q_ct @ v.reshape(shape) @ q_c
            correction = (coarse_inverse @ coarse.ravel()).reshape(m, m) - inv_c * coarse
            out += (q_c @ correction @ q_ct).reshape(total)
        return out

    return fft_apply


def laplacian_pinv_apply(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of (-Delta) x = P rhs by the grid's cached plan.

    P projects out the constant mode, so constant input maps to zero and the
    output always has zero mean.
    """
    return _laplacian_pinv_plan(grid)(check_vector(grid, rhs))


def weighted_elliptic_pinv_apply(
    w: Density, rhs: np.ndarray, cfg: EllipticSolveConfig = EllipticSolveConfig()
) -> np.ndarray:
    """Minimum-norm solve of (sum_a D_a^T diag(w) D_a) x = P rhs.

    P projects out the constant mode.  1D is solved in closed form in O(n)
    (see _closed_form_1d); 2D by CG on A = S^-1 L_w S^-1 with S the Jacobi
    scale of L_w and a two-level preconditioner, the exact coarse inverse
    on the low Fourier modes plus (-Delta)^+ on the rest: one sparse matvec
    with the cached A and one preconditioner application per iteration (see
    _pcg_2d).  The first solve for this w with a nonzero right-hand side
    builds the part fixed by w, which later solves for it reuse: in 2D A,
    s, 1/s and the coarse inverse (`_scaled_operator`), in 1D 1/w, its
    sum, argmin w and max w (`_closed_form_set_up`).  A right-hand side whose
    largest entry is outside [2^-400, 2^400], where ||P rhs||^2 could under-
    or overflow, is solved times a power of two, and x scaled back; both
    scalings are exact.  w is strictly positive, as every Density is.
    Raises TypeError for a w that is not a Density, ValueError for a
    right-hand side that is not finite, and EllipticSolveError when the
    residual misses cfg.rel_tolerance: in 1D the backward error of the
    closed form's true residual (see _closed_form_1d); in 2D the CG residual
    of L_w x = P rhs (unscaled) against rel_tolerance * ||P rhs||, within
    the iteration cap.
    """
    if not isinstance(w, Density):
        raise TypeError(f"w must be a Density, got {type(w).__name__}")
    grid = w.grid
    rhs = check_vector(grid, rhs)
    peak = float(np.abs(rhs).max())  # NaN or inf exactly when rhs is not finite
    if not peak < math.inf:
        raise ValueError("right-hand side must be finite")
    if peak != 0.0 and not 2.0**-400 <= peak <= 2.0**400:
        # solve for 2^k rhs, whose largest entry is in [1/2, 1): no sum of
        # squares in that solve can under- or overflow
        k = -math.frexp(peak)[1]
        return np.ldexp(weighted_elliptic_pinv_apply(w, np.ldexp(rhs, k), cfg), -k)
    # x.sum() / x.size and sqrt(x @ x) are np.mean and np.linalg.norm's own
    # arithmetic on a real vector, without their wrappers
    b = rhs - rhs.sum() / rhs.size
    bnorm = math.sqrt(b @ b)
    if bnorm == 0.0:
        return np.zeros(grid.total)
    if grid.dim == 1:
        return _closed_form_1d(w, b, math.sqrt(rhs @ rhs), cfg.rel_tolerance)
    return _pcg_2d(w, b, bnorm, cfg)


@functools.lru_cache(maxsize=1)  # a run has one reference measure
def _closed_form_set_up(w: Density) -> tuple[np.ndarray, float, int, float]:
    """1 / w, its sum, argmin w and max w: the part of the 1D solve fixed by w.

    Cached for the last w it was called with, as `_scaled_operator` is for
    the 2D solve; 1 / w is read-only.
    """
    inv_w = 1.0 / w.values
    return frozen(inv_w)[0], float(inv_w.sum()), int(w.values.argmin()), float(w.values.max())


def _closed_form_1d(
    w: Density, b: np.ndarray, rhs_norm: float, rel_tolerance: float
) -> np.ndarray:
    """Solve D^T diag(w) D x = b for mean-zero b by integrating twice.

    The flux f = w D x satisfies D^T f = b, so f = c - cumsum(b) / n; the
    constant c is the one that closes the periodic loop, sum (D x) = 0,
    i.e. sum f / w = 0.  Then x is the running sum of the steps f / (n w)
    with its mean removed, the step of the weakest link k being minus the
    sum of the others: f_k / (n w_k), for a w_k orders below the rest, would
    amplify the cancellation in f_k into every x past k.  1 / w, its sum,
    k and max w come from w's cached set-up (`_closed_form_set_up`), and
    f becomes the steps in place.

    The true residual is gated as a normwise backward error: it must be at
    most rel_tolerance * (||rhs|| + ||L|| ||x||), with ||L|| <= 4 n^2 max(w).
    The ||L|| ||x|| term is there because rounding x itself to float64
    leaves a residual of about eps ||L|| ||x||; for a smooth rhs at
    n = 4096 that alone is about 2e-10 ||rhs||.  ||rhs|| rather than ||b||
    keeps a rhs that is constant up to roundoff (b of roundoff size) from
    failing.
    """
    n = b.size
    inv_w, inv_w_sum, k, w_max = _closed_form_set_up(w)
    f = np.cumsum(b)
    f /= -n  # the bits of -cumsum(b) / n: negation is exact
    f -= (f @ inv_w) / inv_w_sum
    step = f  # f / (n w), in place
    step *= inv_w
    step /= n
    step[k] = 0.0
    step[k] = -step.sum()
    x = np.empty(n)  # x[0] = 0 and the running sum of step after it, in one array
    x[0] = 0.0
    np.add.accumulate(step[:-1], out=x[1:])
    x -= x.sum() / n
    residual = weighted_flux_apply(w, x)
    residual -= b
    residual -= residual.sum() / n
    rnorm = math.sqrt(residual @ residual)
    scale = rhs_norm + 4.0 * n**2 * w_max * math.sqrt(x @ x)
    if not rnorm <= rel_tolerance * scale:
        raise EllipticSolveError(
            f"closed-form elliptic solve: backward error {rnorm / scale:.3e} "
            f"exceeds tolerance {rel_tolerance:.3e}",
            achieved_residual=rnorm / scale,
            iterations=0,
        )
    return x


def _pcg_2d(w: Density, b: np.ndarray, bnorm: float, cfg: EllipticSolveConfig) -> np.ndarray:
    """Preconditioned CG for the mean-zero b on the 2D grid, in the variable y = S x.

    With S = diag(s) the Jacobi scale of `_scaled_operator`, whose
    cached set-up (A, s, 1/s, coarse inverse) this unpacks, L_w x = b is
    A y = S^-1 b for A = S^-1 L_w S^-1.  A has -Delta's diagonal 2 dim n^2
    exactly, and as s_i^2 is the mean of the edge weights w_e at site i,
    the first-order parts of its off-diagonal entries -n^2 w_e / (s_i s_j)
    cancel between opposite edges: on the fine modes A differs from -Delta
    at second order in the grid spacing for a smooth w, where the
    ground-state scale sqrt w left a first-order error.  So (-Delta)^+
    preconditions the fine modes, and it still does for a rough w, whose A
    keeps that diagonal: w log-uniform over 3 decades per site takes 50-64,
    174-200, 406-414 and 1026-1037 iterations at 16^2 to 128^2, within the
    cap, where sqrt w missed it at every size.  The variation of
    w matters on the low modes, where it changes A as much as -Delta's own
    eigenvalues there, so CG is preconditioned by the two-level map
    M^-1 = F + E A_c^-1 E^T, the grid's (-Delta)^+ map bound to the set-up's
    coarse inverse (see _laplacian_pinv_plan and _coarse_inverse):
    exact on the coarse modes E, (-Delta)^+ on the rest (iteration counts:
    see COARSE_WAVENUMBER).  It is the same iteration as CG on L_w x = b
    preconditioned by P S^-1 M^-1 S^-1 P: the projections P drop out,
    because A's null direction S 1 never enters the residual (the x-space
    residual is mean-zero) and the constant parts of x's search directions
    drop out of L_w p and r^T z.  The mean of x is removed once, at the end.

    An iteration costs one CSR matvec with the cached A, one application of
    M^-1 (the (-Delta)^+ plan's transforms and one m^2 x m^2 matvec), three
    bare dot products (the norm of S r is sqrt((S r) @ (S r)), no
    np.linalg.norm) and seven elementwise operations, all into existing
    arrays.  The stopping test is on the unscaled residual,
    ||S r|| <= rel_tolerance * ||b|| with r the residual of the scaled
    system.
    """
    grid = w.grid
    a, scale, inv_scale, coarse_inverse = _scaled_operator(w)
    precondition = functools.partial(_laplacian_pinv_plan(grid), coarse_inverse=coarse_inverse)
    tol = cfg.rel_tolerance * bnorm

    y = np.zeros(grid.total)
    r = inv_scale * b
    p = z = precondition(r)
    rz = float(r @ z)
    scratch = np.empty(grid.total)
    limit = cfg.max_iterations or 10 * grid.n * grid.dim
    for _ in range(limit):
        ap = a @ p
        alpha = rz / float(p @ ap)
        y += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, ap, out=ap)
        np.multiply(scale, r, out=scratch)
        rnorm = math.sqrt(scratch @ scratch)
        if rnorm <= tol:
            x = np.multiply(inv_scale, y, out=y)
            x -= x.sum() / x.size
            return x
        z = precondition(r)
        rz_next = float(r @ z)
        p *= rz_next / rz
        p += z
        rz = rz_next
    raise EllipticSolveError(
        f"elliptic solve not converged after {limit} iterations "
        f"(relative residual {rnorm / bnorm:.3e}, tolerance {cfg.rel_tolerance:.3e})",
        achieved_residual=rnorm / bnorm,
        iterations=limit,
    )
