"""Periodic difference operators and elliptic pseudo-inverse solves.

D is the 1D forward difference scaled by n, cached as read-only n x n CSR
with D^T and D^T D (`difference_matrix`); D_a applies it along axis a by
the tensor rule of `grid`, so the differences, -Delta = sum_a D_a^T D_a
and the weighted flux hold no 2D matrix, and the metric precompute's DW is
D W.  Only L_w = sum_a D_a^T diag(w) D_a is assembled in 2D, lifting D_a by
Kronecker products.  L_w is inverted on the mean-zero subspace: in 1D in
closed form with two cumulative sums, in 2D by conjugate gradients in the
scaled variable y = S x, on A = S^-1 L_w S^-1 with the Jacobi scale
S = diag(s), s_i^2 = L_w[i, i] / (2 dim n^2), the mean of the 2 dim edge
weights at site i.  A then has the diagonal 2 dim n^2 of -Delta for every
w, so CG is preconditioned by two levels: the exact inverse of A's
Galerkin block on the low Fourier modes (wavenumber <= COARSE_WAVENUMBER
per axis), where the variation of w changes A as much as -Delta's own
eigenvalues there, and the Laplacian pseudo-inverse on the other modes,
where A and -Delta differ only at second order in the grid spacing for a
smooth w.  A as CSR, s, 1/s and the coarse block's inverse are the part
of that 2D solve fixed by w (`ScaledOperator`); they are cached,
read-only, for the last weight density they were built for (a Density is
keyed by identity), so a caller with a fixed w (the loss's mu) pays once
per run.

The constant-coefficient pseudo-inverse (-Delta)^+ is diagonalized by the
periodic Fourier modes.  Each grid gets one cached plan, which maps v to
(-Delta)^+ v and, in 2D, is the two-level preconditioner's fine part: for
2D grids with n <= 64 dense products in the real periodic eigenbasis (the
fast diagonalization method), otherwise the FFT with its inverse symbol
computed once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .grid import Density, Grid, axis_apply, check_vector, tensor_apply

__all__ = [
    "EllipticSolveConfig",
    "EllipticSolveError",
    "difference_matrix",
    "laplacian_apply",
    "laplacian_pinv_apply",
    "weighted_flux_apply",
    "scaled_operator",
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


@functools.cache
def difference_matrix(n: int) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """(D, D^T, D^T D) for n sites as n x n CSR, cached per n for the life of the process.

    Row s of D holds -n at s and +n at s + 1 (wrapping), so
    (D v)_s = n (v_{s+1} - v_s) and D annihilates exactly the constants.
    Every caller shares the cached matrices, so their arrays are read-only.
    """
    sites = np.arange(n)
    cols = np.stack([sites, np.roll(sites, -1)], axis=-1).ravel()
    data = np.tile([-float(n), float(n)], n)
    d = sp.csr_matrix((data, cols, np.arange(0, 2 * n + 1, 2)), shape=(n, n))
    d.sort_indices()
    dt = d.T.tocsr()
    return _frozen(d, dt, dt @ d)


def _frozen(*items: sp.csr_matrix | np.ndarray) -> tuple:
    """The items with their arrays (a CSR's data, indices, indptr) made read-only."""
    for item in items:
        for a in (item.data, item.indices, item.indptr) if sp.issparse(item) else (item,):
            a.flags.writeable = False
    return items


def laplacian_apply(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Apply -Delta = sum_axes D_a^T D_a; annihilates constants exactly.

    Summed axis by axis, not as one 5-point matrix: a 3-point row sums a
    constant to exactly zero, a 5-point one need not where it wraps.
    """
    v = check_vector(grid, v)
    _, _, dtd = difference_matrix(grid.n)
    out = axis_apply(dtd, v, 0, grid.dim)
    for a in range(1, grid.dim):
        out += axis_apply(dtd, v, a, grid.dim)
    return out


def weighted_flux_apply(grid: Grid, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_a D_a^T (w * D_a x) on flat vectors, one axis at a time."""
    d, dt, _ = difference_matrix(grid.n)
    dim = grid.dim
    out = axis_apply(dt, w * axis_apply(d, x, 0, dim), 0, dim)
    for a in range(1, dim):
        out += axis_apply(dt, w * axis_apply(d, x, a, dim), a, dim)
    return out


@dataclass(frozen=True, eq=False)
class ScaledOperator:
    """The part of the 2D weighted solve fixed by w, S = diag(scale); compared by identity."""

    matrix: sp.csr_matrix  # A = S^-1 L_w S^-1
    scale: np.ndarray  # s_i = sqrt(L_w[i, i] / (2 dim n^2)), the mean edge weight's root
    inv_scale: np.ndarray
    coarse_inverse: np.ndarray  # (E^T A E + beta c c^T)^-1 on the coarse modes E, symmetric


@functools.lru_cache(maxsize=1)  # a run has one reference measure
def scaled_operator(w: Density) -> ScaledOperator:
    """A = S^-1 L_w S^-1 as CSR, its scale s, 1 / s and the coarse inverse, for a 2D w.

    L_w = sum_a D_a^T diag(w) D_a is assembled as CSR (5 entries per row,
    sorted indices), with D_a = D (x) I or I (x) D held only while it is
    assembled.  The scale is its Jacobi one: s_i^2 = L_w[i, i] / (2 dim n^2),
    the mean of the 2 dim edge weights at site i (w_i for a constant w),
    read off the diagonal before entry (i, j) is multiplied in place by
    the one factor 1/s_j * 1/s_i, the same for (j, i), so the result is
    exactly symmetric and the scaling holds one extra array of nnz floats.
    The coarse block of the two-level preconditioner is built from A (see
    _coarse_inverse).  Cached for the last w it was called with, so every
    2D solve with one weight density shares one set-up, whose arrays are
    read-only.  Raises ValueError for a 1D w: the 1D solve is closed form
    and needs no set-up.
    """
    grid = w.grid
    if grid.dim != 2:
        raise ValueError(f"the scaled operator is 2D only, got a {grid.dim}D density")
    d, eye = difference_matrix(grid.n)[0], sp.identity(grid.n, format="csr")
    lifted = [sp.kron(d, eye, "csr"), sp.kron(eye, d, "csr")]
    weights = sp.diags(w.values, format="csr")
    matrix = sum(da.T.tocsr() @ (weights @ da) for da in lifted)
    matrix.sort_indices()  # the column order a CG matvec sums in
    scale = np.sqrt(matrix.diagonal() / (2 * grid.dim * grid.n**2))
    inv_scale = 1.0 / scale
    # every row holds the same count of entries, so row i of this view is row i of L_w
    factor = inv_scale[matrix.indices].reshape(grid.total, -1)
    factor *= inv_scale[:, None]
    matrix.data *= factor.ravel()
    coarse_inverse = _coarse_inverse(matrix, scale, grid.n)
    return ScaledOperator(*_frozen(matrix, scale, inv_scale, coarse_inverse))


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
def _laplacian_pinv_plan(grid: Grid) -> tuple[Callable, Callable | None]:
    """(-Delta)^+ v and, None in 1D, the 2D solve's (v, C) -> M^-1 v, as maps on flat vectors.

    On a 2D grid with n <= DENSE_PLAN_MAX_N, (-Delta)^+ is
    Q ((Q^T X Q) / Lambda) Q^T on the n x n array X, with Q the real
    periodic eigenbasis and Lambda_ij = lam_i + lam_j; otherwise the real
    FFT pair with the inverse symbol.  Both drop the constant mode, so the
    output has zero mean up to roundoff.  M^-1 = F + E C E^T is the
    two-level preconditioner: E = q_c (x) q_c spans the coarse modes, the
    first m columns of Q per axis (`_coarse_modes`), C is the weight
    density's coarse inverse and F is (-Delta)^+ on the other modes.  The
    dense map overwrites the [:m, :m] block of the spectral array, which is
    E^T v, with C E^T v after the multiply by 1 / Lambda.  The FFT map adds
    the exact coarse correction E (C - Lambda_c^+) E^T v to (-Delta)^+ v,
    with Lambda_c^+ the inverse symbol on the coarse block.  M^-1 is SPD,
    since F and E C E^T are SPD on complementary sets of modes.  Plans stay
    cached for the life of the process; one holds O(n^2) floats (about
    100 KB at n = 64).
    """
    n, shape, total = grid.n, grid.shape, grid.total
    if grid.dim == 2:
        q, lam = _real_periodic_eigenbasis(n)
        q_c = np.ascontiguousarray(_coarse_modes(q))
        m = q_c.shape[1]
    if grid.dim == 2 and n <= DENSE_PLAN_MAX_N:
        qt = np.ascontiguousarray(q.T)
        inv = _pinv_symbol(lam[:, None] + lam[None, :])

        def dense_apply(v: np.ndarray) -> np.ndarray:
            return (q @ ((qt @ v.reshape(shape) @ q) * inv) @ qt).reshape(total)

        def dense_two_level(v: np.ndarray, coarse_inverse: np.ndarray) -> np.ndarray:
            spec = qt @ v.reshape(shape) @ q
            coarse = coarse_inverse @ spec[:m, :m].ravel()
            spec *= inv
            spec[:m, :m] = coarse.reshape(m, m)
            return (q @ spec @ qt).reshape(total)

        return dense_apply, dense_two_level
    eigenvalues = _laplacian_eigenvalues(n)
    half = eigenvalues[: n // 2 + 1]
    inv = _pinv_symbol(half if grid.dim == 1 else eigenvalues[:, None] + half[None, :])
    axes = tuple(range(grid.dim))

    def fft_apply(v: np.ndarray) -> np.ndarray:
        spec = np.fft.rfftn(v.reshape(shape)) * inv
        return np.fft.irfftn(spec, s=shape, axes=axes).reshape(total)

    if grid.dim == 1:
        return fft_apply, None
    q_ct = np.ascontiguousarray(q_c.T)
    inv_c = _pinv_symbol(lam[:m, None] + lam[None, :m])

    def fft_two_level(v: np.ndarray, coarse_inverse: np.ndarray) -> np.ndarray:
        coarse = q_ct @ v.reshape(shape) @ q_c
        correction = (coarse_inverse @ coarse.ravel()).reshape(m, m) - inv_c * coarse
        out = fft_apply(v)
        out += (q_c @ correction @ q_ct).reshape(total)
        return out

    return fft_apply, fft_two_level


def laplacian_pinv_apply(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of (-Delta) x = P rhs by the grid's cached plan.

    P projects out the constant mode, so constant input maps to zero and the
    output always has zero mean.
    """
    return _laplacian_pinv_plan(grid)[0](check_vector(grid, rhs))


def weighted_elliptic_pinv_apply(
    w: Density, rhs: np.ndarray, cfg: EllipticSolveConfig = EllipticSolveConfig()
) -> np.ndarray:
    """Minimum-norm solve of (sum_a D_a^T diag(w) D_a) x = P rhs.

    P projects out the constant mode.  1D is solved in closed form in O(n)
    (see _closed_form_1d); 2D by CG on A = S^-1 L_w S^-1 with S the Jacobi
    scale of L_w and a two-level preconditioner, the exact coarse inverse
    on the low Fourier modes plus (-Delta)^+ on the rest: one sparse matvec
    with the cached A and one preconditioner application per iteration (see
    _pcg_2d).  A and the coarse inverse are built on the first 2D solve
    with a nonzero right-hand side for this w.  A right-hand side whose
    largest entry is outside [2^-400, 2^400], where ||P rhs||^2 could under-
    or overflow, is solved times a power of two, and x scaled back; both
    scalings are exact.  Raises TypeError for a w that is not a Density,
    ValueError for a weight density that is not strictly positive or a
    right-hand side that is not finite, and EllipticSolveError when the
    residual misses cfg.rel_tolerance: in 1D the backward error of the
    closed form's true residual (see _closed_form_1d); in 2D the CG residual
    of L_w x = P rhs (unscaled) against rel_tolerance * ||P rhs||, within
    the iteration cap.
    """
    if not isinstance(w, Density):
        raise TypeError(f"w must be a Density, got {type(w).__name__}")
    if w.min <= 0.0:
        raise ValueError("weight density must be strictly positive")
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


def _closed_form_1d(
    w: Density, b: np.ndarray, rhs_norm: float, rel_tolerance: float
) -> np.ndarray:
    """Solve D^T diag(w) D x = b for mean-zero b by integrating twice.

    The flux f = w D x satisfies D^T f = b, so f = c - cumsum(b) / n; the
    constant c is the one that closes the periodic loop, sum (D x) = 0,
    i.e. sum f / w = 0.  Then x is the running sum of the steps f / (n w)
    with its mean removed, the step of the weakest link k being minus the
    sum of the others: f_k / (n w_k), for a w_k orders below the rest, would
    amplify the cancellation in f_k into every x past k.

    The true residual is gated as a normwise backward error: it must be at
    most rel_tolerance * (||rhs|| + ||L|| ||x||), with ||L|| <= 4 n^2 max(w).
    The ||L|| ||x|| term is there because rounding x itself to float64
    leaves a residual of about eps ||L|| ||x||; for a smooth rhs at
    n = 4096 that alone is about 2e-10 ||rhs||.  ||rhs|| rather than ||b||
    keeps a rhs that is constant up to roundoff (b of roundoff size) from
    failing.
    """
    n = b.size
    inv_w = 1.0 / w.values
    f = -np.cumsum(b) / n
    f -= (f @ inv_w) / inv_w.sum()
    step = f * inv_w / n
    k = w.values.argmin()
    step[k] = 0.0
    step[k] = -step.sum()
    x = np.empty(n)  # x[0] = 0 and the running sum of step after it, in one array
    x[0] = 0.0
    np.add.accumulate(step[:-1], out=x[1:])
    x -= x.sum() / n
    residual = weighted_flux_apply(w.grid, w.values, x)
    residual -= b
    residual -= residual.sum() / n
    rnorm = math.sqrt(residual @ residual)
    scale = rhs_norm + 4.0 * n**2 * float(w.values.max()) * math.sqrt(x @ x)
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

    With S = diag(s) the Jacobi scale of scaled_operator, L_w x = b is
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
    M^-1 = F + E A_c^-1 E^T (see _laplacian_pinv_plan and _coarse_inverse):
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
    set_up = scaled_operator(w)
    a, scale, inv_scale = set_up.matrix, set_up.scale, set_up.inv_scale
    _, two_level = _laplacian_pinv_plan(grid)
    precondition = functools.partial(two_level, coarse_inverse=set_up.coarse_inverse)
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
