"""Periodic difference operators and elliptic pseudo-inverse solves.

D is the 1D forward difference scaled by n, cached as read-only n x n CSR
with D^T and D^T D (`difference_matrix`); D_a applies it along axis a by
the tensor rule of `grid`, so the differences, -Delta = sum_a D_a^T D_a
and the weighted flux hold no 2D matrix, and the metric precompute's DW is
D W.  Only L_w = sum_a D_a^T diag(w) D_a is assembled in 2D, lifting D_a by
Kronecker products.  L_w is inverted on the mean-zero subspace: in 1D in
closed form with two cumulative sums, in 2D by conjugate gradients in the
ground-state variable y = sqrt(w) x, on A = S^-1 L_w S^-1 (S = diag sqrt w)
with a two-level preconditioner: the exact inverse of A's Galerkin block
on the low Fourier modes (wavenumber <= COARSE_WAVENUMBER per axis), where
A's potential Delta(sqrt w) / sqrt w is as large as -Delta, and the
Laplacian pseudo-inverse on the other modes, where -Delta dominates.  A
as CSR, sqrt w, 1/sqrt w and the coarse block's inverse are the part of
that 2D solve fixed by w (`GroundState`); they are cached, read-only, for
the last weight density they were built for (a Density is keyed by
identity), so a caller with a fixed w (the loss's mu) pays once per run.

The constant-coefficient pseudo-inverse (-Delta)^+ is diagonalized by the
periodic Fourier modes.  Each grid gets one cached plan, and one for the
fine part of the two-level preconditioner: for 2D grids with n <= 64
dense products in the real periodic eigenbasis (the fast diagonalization
method), otherwise the FFT with its inverse symbol computed once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from .grid import Density, Grid, axis_apply, check_vector

__all__ = [
    "EllipticSolveConfig",
    "EllipticSolveError",
    "difference_matrix",
    "laplacian_apply",
    "laplacian_pinv_apply",
    "weighted_flux_apply",
    "ground_state_operator",
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
# white-noise rhs at 32^2/64^2/128^2, coarse |k| <= 4/6/8: 10/9/9, 10/8/7,
# 10/8/7 (18/17/17 with (-Delta)^+ alone); coarse build (one BLAS thread,
# 2-vCPU VM) 5/10/23 ms at 64^2 and 10/30/59 ms at 128^2.
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
        if not (math.isfinite(self.rel_tolerance) and self.rel_tolerance > 0):
            raise ValueError(f"rel_tolerance must be finite and positive, got {self.rel_tolerance}")
        cap = self.max_iterations
        if cap is not None and not (isinstance(cap, Integral) and cap >= 1):
            raise ValueError(f"max_iterations must be None or an integer >= 1, got {cap}")

    def iteration_cap(self, grid: Grid) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 10 * grid.n * grid.dim


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
    return sum(axis_apply(dtd, v, axis, grid.dim) for axis in range(grid.dim))


def weighted_flux_apply(grid: Grid, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_a D_a^T (w * D_a x) on flat vectors, one axis at a time."""
    d, dt, _ = difference_matrix(grid.n)
    dim = grid.dim
    return sum(axis_apply(dt, w * axis_apply(d, x, a, dim), a, dim) for a in range(dim))


class GroundState(NamedTuple):
    """The part of the 2D weighted solve fixed by the weight density w, S = diag(sqrt w)."""

    matrix: sp.csr_matrix  # A = S^-1 L_w S^-1
    sqrt_w: np.ndarray
    inv_sqrt_w: np.ndarray
    coarse_inverse: np.ndarray  # (E^T A E + beta c c^T)^-1 on the coarse modes E, symmetrised


@functools.lru_cache(maxsize=1)  # a run has one reference measure
def ground_state_operator(w: Density) -> GroundState:
    """A = S^-1 L_w S^-1 as CSR, sqrt w, 1 / sqrt w and the coarse inverse, for a 2D w.

    L_w = sum_a D_a^T diag(w) D_a is assembled as CSR (5 entries per row,
    sorted indices), with D_a = D (x) I or I (x) D held only while it is
    assembled, and entry (i, j) is multiplied in place by the one factor
    1/sqrt(w_j) * 1/sqrt(w_i), the same for (j, i), so the result is
    exactly symmetric and the scaling holds one extra array of nnz floats.
    The coarse block of the two-level preconditioner is built from A (see
    _coarse_inverse).  Cached for the last w it was called with, so every
    2D solve with one weight density shares one set-up, whose arrays are
    read-only.  Raises ValueError for a 1D w: the 1D solve is closed form
    and needs no set-up.
    """
    grid = w.grid
    if grid.dim != 2:
        raise ValueError(f"the ground-state operator is 2D only, got a {grid.dim}D density")
    d, eye = difference_matrix(grid.n)[0], sp.identity(grid.n, format="csr")
    lifted = [sp.kron(d, eye, "csr"), sp.kron(eye, d, "csr")]
    scale = sp.diags(w.values, format="csr")
    matrix = sum(da.T.tocsr() @ (scale @ da) for da in lifted)
    matrix.sort_indices()  # the column order a CG matvec sums in
    sqrt_w = np.sqrt(w.values)
    inv_sqrt_w = 1.0 / sqrt_w
    # every row holds the same count of entries, so row i of this view is row i of L_w
    factor = inv_sqrt_w[matrix.indices].reshape(grid.total, -1)
    factor *= inv_sqrt_w[:, None]
    matrix.data *= factor.ravel()
    coarse_inverse = _coarse_inverse(matrix, sqrt_w, grid.n)
    return GroundState(*_frozen(matrix, sqrt_w, inv_sqrt_w, coarse_inverse))


def _coarse_modes(n: int) -> np.ndarray:
    """q_c: the real eigenbasis columns of wavenumber <= COARSE_WAVENUMBER, n x m."""
    return _real_periodic_eigenbasis(n)[0][:, : min(2 * COARSE_WAVENUMBER + 1, n)]


def _coarse_inverse(a: sp.csr_matrix, sqrt_w: np.ndarray, n: int) -> np.ndarray:
    """(E^T a E + beta c c^T)^-1, symmetrised, for the coarse modes E = q_c (x) q_c.

    The Galerkin block E^T a E is formed one column of E at a time: a
    times the column q_c[:, i] (x) q_c[:, j], then q_c^T along both site
    axes.  Neither E (n^2 x m^2) nor an n^2 x m chunk of it is held, which
    keeps the build's peak memory about 0.8 MB (64^2) to 4 MB (128^2) below
    a chunked build's, at about the same speed.

    a's null direction sqrt w lies almost entirely in the coarse space, so
    the block is nearly singular along c = E^T sqrt w / ||E^T sqrt w||; the
    term beta c c^T with beta = lambda_1 of the 1D -Delta makes it safely
    SPD.  The sqrt w part that it lets into CG's iterate y only adds a
    constant to x = y / sqrt w, which the solve's final mean removal drops.
    """
    q_c = _coarse_modes(n)
    m = q_c.shape[1]
    block = np.empty((m, m, m, m))
    for i in range(m):
        for j in range(m):
            image = a @ np.outer(q_c[:, i], q_c[:, j]).ravel()
            block[:, :, i, j] = q_c.T @ image.reshape(n, n) @ q_c
    c = (q_c.T @ sqrt_w.reshape(n, n) @ q_c).ravel()
    c /= np.linalg.norm(c)
    coarse = block.reshape(m * m, m * m) + _laplacian_eigenvalues(n)[1] * np.outer(c, c)
    inverse = np.linalg.inv(coarse)
    return (inverse + inverse.T) / 2.0


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
def _laplacian_pinv_plan(grid: Grid) -> Callable[[np.ndarray], np.ndarray]:
    """(-Delta)^+ as a map on flat vectors, with every grid-fixed array built once.

    On a 2D grid with n <= DENSE_PLAN_MAX_N it is Q ((Q^T X Q) / Lambda) Q^T
    on the n x n array X, with Q the real periodic eigenbasis and
    Lambda_ij = lam_i + lam_j.  Otherwise it is the real FFT pair with the
    inverse symbol.  Both drop the constant mode, so the output has zero mean
    up to roundoff.  Plans stay cached for the life of the process; one
    holds O(n^2) floats (about 100 KB at n = 64).
    """
    n, shape = grid.n, grid.shape
    if grid.dim == 2 and n <= DENSE_PLAN_MAX_N:
        q, lam = _real_periodic_eigenbasis(n)
        qt = np.ascontiguousarray(q.T)
        inv = _pinv_symbol(lam[:, None] + lam[None, :])
        return lambda v: (q @ ((qt @ v.reshape(shape) @ q) * inv) @ qt).reshape(grid.total)
    lam = _laplacian_eigenvalues(n)
    half = lam[: n // 2 + 1]
    inv = _pinv_symbol(half if grid.dim == 1 else lam[:, None] + half[None, :])
    axes = tuple(range(grid.dim))

    def fft_apply(v: np.ndarray) -> np.ndarray:
        spec = np.fft.rfftn(v.reshape(shape)) * inv
        return np.fft.irfftn(spec, s=shape, axes=axes).reshape(grid.total)

    return fft_apply


@functools.cache
def _two_level_plan(grid: Grid) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The 2D solve's preconditioner M^-1 = F + E C E^T as a map (v, C) -> M^-1 v.

    E = q_c (x) q_c spans the coarse modes (`_coarse_modes`) and C is the
    coarse inverse of the weight density.  F is the grid's (-Delta)^+ plan
    restricted to the other modes.  The coarse modes are the wavenumbers
    <= COARSE_WAVENUMBER on each axis in either layout: the [:m, :m] block
    of the dense eigenbasis array, |k1| <= COARSE_WAVENUMBER (with wrap) and
    k2 <= COARSE_WAVENUMBER in the real FFT's.  In the dense plan E^T v is
    that block of the spectral array, and C E^T v overwrites it after the
    inverse symbol's multiply.  With the FFT the inverse symbol is zeroed
    on the coarse modes, E^T v is q_c^T V q_c, and E C E^T v is added as
    q_c (C E^T v) q_c^T.  The map is SPD, since F and E C E^T are SPD on
    complementary sets of modes.  Cached per grid like the (-Delta)^+ plan.
    """
    n, shape = grid.n, grid.shape
    q, lam = _real_periodic_eigenbasis(n)
    m = _coarse_modes(n).shape[1]
    if n <= DENSE_PLAN_MAX_N:
        qt = np.ascontiguousarray(q.T)
        inv = _pinv_symbol(lam[:, None] + lam[None, :])

        def dense_apply(v: np.ndarray, coarse_inverse: np.ndarray) -> np.ndarray:
            spec = qt @ v.reshape(shape) @ q
            coarse = coarse_inverse @ spec[:m, :m].ravel()
            spec *= inv
            spec[:m, :m] = coarse.reshape(m, m)
            return (q @ spec @ qt).reshape(grid.total)

        return dense_apply
    q_c = np.ascontiguousarray(q[:, :m])
    q_ct = np.ascontiguousarray(q_c.T)
    lam = _laplacian_eigenvalues(n)
    inv = _pinv_symbol(lam[:, None] + lam[None, : n // 2 + 1])
    coarse_k = np.minimum(np.arange(n), n - np.arange(n)) <= COARSE_WAVENUMBER
    inv[np.ix_(coarse_k, coarse_k[: n // 2 + 1])] = 0.0

    def fft_apply(v: np.ndarray, coarse_inverse: np.ndarray) -> np.ndarray:
        x = v.reshape(shape)
        out = np.fft.irfft2(np.fft.rfft2(x) * inv, s=shape)
        coarse = coarse_inverse @ (q_ct @ x @ q_c).ravel()
        out += q_c @ coarse.reshape(m, m) @ q_ct
        return out.reshape(grid.total)

    return fft_apply


def laplacian_pinv_apply(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of (-Delta) x = P rhs by the grid's cached plan.

    P projects out the constant mode, so constant input maps to zero and the
    output always has zero mean.
    """
    return _laplacian_pinv_plan(grid)(check_vector(grid, rhs))


def weighted_elliptic_pinv_apply(
    w: Density, rhs: np.ndarray, cfg: EllipticSolveConfig | None = None
) -> np.ndarray:
    """Minimum-norm solve of (sum_a D_a^T diag(w) D_a) x = P rhs.

    P projects out the constant mode.  1D is solved in closed form in O(n)
    (see _closed_form_1d); 2D by CG on A = S^-1 L_w S^-1 with S =
    diag(sqrt w) and a two-level preconditioner, the exact coarse inverse
    on the low Fourier modes plus (-Delta)^+ on the rest: one sparse matvec
    with the cached A and one preconditioner application per iteration (see
    _pcg_2d).  A and the coarse inverse are built on the first 2D solve
    with a nonzero right-hand side for this w.  Raises ValueError for a
    weight density that is not strictly positive or a right-hand side that
    is not finite, and EllipticSolveError when the residual misses
    cfg.rel_tolerance: in 1D the backward error of the closed form's true
    residual (see _closed_form_1d); in 2D the CG residual of L_w x = P rhs
    (unscaled) against rel_tolerance * ||P rhs||, within the iteration cap.
    """
    if cfg is None:
        cfg = EllipticSolveConfig()
    if w.min <= 0.0:
        raise ValueError("weight density must be strictly positive")
    grid = w.grid
    rhs = check_vector(grid, rhs)
    if not np.isfinite(rhs).all():
        raise ValueError("right-hand side must be finite")
    b = rhs - rhs.mean()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(grid.total)
    if grid.dim == 1:
        return _closed_form_1d(w, b, float(np.linalg.norm(rhs)), cfg.rel_tolerance)
    return _pcg_2d(w, b, bnorm, cfg)


def _closed_form_1d(
    w: Density, b: np.ndarray, rhs_norm: float, rel_tolerance: float
) -> np.ndarray:
    """Solve D^T diag(w) D x = b for mean-zero b by integrating twice.

    The flux f = w D x satisfies D^T f = b, so f = c - cumsum(b) / n; the
    constant c is the one that closes the periodic loop, sum (D x) = 0,
    i.e. sum f / w = 0.  Then x is the running sum of f / (n w) with its
    mean removed.

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
    x = np.concatenate(([0.0], np.cumsum(step[:-1])))
    x -= x.mean()
    residual = weighted_flux_apply(w.grid, w.values, x) - b
    rnorm = float(np.linalg.norm(residual - residual.mean()))
    scale = rhs_norm + 4.0 * n**2 * float(w.values.max()) * float(np.linalg.norm(x))
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

    With S = diag(sqrt w), L_w x = b is A y = S^-1 b for A = S^-1 L_w S^-1.
    This is the ground-state transform: A is -Delta plus the potential
    Delta(sqrt w) / sqrt w, which does not grow with n for a smooth w, so the
    iteration count follows how rough w is, not n.  The potential matters on
    the low modes, where it is as large as -Delta (-157...158 against
    lambda_1 = 39.4 for the preset measure at 64^2), so CG is preconditioned
    by the two-level map M^-1 = F + E A_c^-1 E^T (see _two_level_plan and
    _coarse_inverse): exact on the coarse modes E, (-Delta)^+ on the rest
    (iteration counts: see COARSE_WAVENUMBER).  It is the same iteration as CG
    on L_w x = b preconditioned by P S^-1 M^-1 S^-1 P: the projections P
    drop out, because A's null direction sqrt w never enters the residual
    (the x-space residual is mean-zero) and the constant parts of x's
    search directions drop out of L_w p and r^T z.  The mean of x is
    removed once, at the end.

    An iteration costs one CSR matvec with the cached A, one application of
    M^-1 (the (-Delta)^+ plan's transforms and one m^2 x m^2 matvec), two
    dot products, one norm and seven elementwise operations, all into
    existing arrays.  The stopping test is on the unscaled residual,
    ||S r|| <= rel_tolerance * ||b|| with r the residual of the scaled
    system.
    """
    grid = w.grid
    set_up = ground_state_operator(w)
    a, sqrt_w, inv_sqrt_w = set_up.matrix, set_up.sqrt_w, set_up.inv_sqrt_w
    precondition = functools.partial(_two_level_plan(grid), coarse_inverse=set_up.coarse_inverse)
    tol = cfg.rel_tolerance * bnorm

    y = np.zeros(grid.total)
    r = inv_sqrt_w * b
    p = z = precondition(r)
    rz = float(r @ z)
    scratch = np.empty(grid.total)
    limit = cfg.iteration_cap(grid)
    for _ in range(limit):
        ap = a @ p
        alpha = rz / float(p @ ap)
        y += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, ap, out=ap)
        rnorm = float(np.linalg.norm(np.multiply(sqrt_w, r, out=scratch)))
        if rnorm <= tol:
            x = np.multiply(inv_sqrt_w, y, out=y)
            x -= x.mean()
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
