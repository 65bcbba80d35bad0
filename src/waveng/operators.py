"""Periodic difference operators and elliptic pseudo-inverse solves.

D is the forward difference scaled by n, so D^T D is the standard 3-point
periodic Laplacian and the null space of D is exactly the constants.  The
weighted operator D^T diag(w) D (summed over axes in 2D) is inverted on the
mean-zero subspace with preconditioned conjugate gradients; the
constant-coefficient Laplacian pseudo-inverse is applied directly by
trigonometric (FFT) diagonalization and also serves as the preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Density, Grid

__all__ = [
    "EllipticSolveConfig",
    "EllipticSolveError",
    "diff_apply",
    "diff_adjoint_apply",
    "laplacian_apply",
    "laplacian_pinv_apply",
    "weighted_flux_apply",
    "weighted_elliptic_pinv_apply",
]


class EllipticSolveError(RuntimeError):
    """Raised when the subspace CG solve fails to reach its tolerance."""

    def __init__(self, message: str, achieved_residual: float, iterations: int):
        super().__init__(message)
        self.achieved_residual = achieved_residual
        self.iterations = iterations


@dataclass(frozen=True)
class EllipticSolveConfig:
    rel_tolerance: float = 1e-10
    max_iterations: int | None = None  # defaults to 10 * n * dim

    def __post_init__(self) -> None:
        if self.rel_tolerance <= 0:
            raise ValueError("rel_tolerance must be positive")

    def iteration_cap(self, grid: Grid) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return 10 * grid.n * grid.dim


def _check_length(grid: Grid, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (grid.total,):
        raise ValueError(f"vector shape {v.shape} does not match grid ({grid.total},)")
    return v


def _check_axis(grid: Grid, axis: int) -> None:
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} invalid for a {grid.dim}D grid")


def diff_apply(grid: Grid, v: np.ndarray, axis: int = 0) -> np.ndarray:
    """Apply D along `axis` with periodic wrap: (Dv)_s = n (v_{s+1} - v_s)."""
    _check_axis(grid, axis)
    x = _check_length(grid, v).reshape(grid.shape)
    return (grid.n * (np.roll(x, -1, axis=axis) - x)).reshape(grid.total)


def diff_adjoint_apply(grid: Grid, u: np.ndarray, axis: int = 0) -> np.ndarray:
    """Apply D^T along `axis`: (D^T u)_s = n (u_{s-1} - u_s)."""
    _check_axis(grid, axis)
    x = _check_length(grid, u).reshape(grid.shape)
    return (grid.n * (np.roll(x, 1, axis=axis) - x)).reshape(grid.total)


def laplacian_apply(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Apply -Delta = sum_axes D_a^T D_a; annihilates constants exactly."""
    v = _check_length(grid, v)
    x = v.reshape(grid.shape)
    out = np.zeros_like(x)
    for axis in range(grid.dim):
        out += 2.0 * x - np.roll(x, 1, axis=axis) - np.roll(x, -1, axis=axis)
    return (grid.n**2 * out).reshape(grid.total)


def weighted_flux_apply(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_a D_a^T diag(w) D_a x on arrays of the grid's shape (n along every axis)."""
    out = np.zeros_like(x)
    for axis in range(x.ndim):
        flux = w * (np.roll(x, -1, axis=axis) - x)
        out += np.roll(flux, 1, axis=axis) - flux
    return x.shape[0] ** 2 * out


def _laplacian_symbol(grid: Grid) -> np.ndarray:
    """Eigenvalues of -Delta on the rfft grid (axis-0 full, last axis half)."""
    n = grid.n
    lam_full = 4.0 * n**2 * np.sin(np.pi * np.arange(n) / n) ** 2
    lam_half = lam_full[: n // 2 + 1]
    if grid.dim == 1:
        return lam_half
    return lam_full[:, None] + lam_half[None, :]


def _inverse_symbol(symbol: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        inv = np.where(symbol > 0.0, 1.0 / symbol, 0.0)
    return inv


def laplacian_pinv_apply(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of (-Delta) x = P rhs via FFT diagonalization.

    P projects out the constant mode, so constant input maps to zero and the
    output always has zero mean.
    """
    rhs = _check_length(grid, rhs)
    inv = _inverse_symbol(_laplacian_symbol(grid))
    axes = tuple(range(grid.dim))
    spec = np.fft.rfftn(rhs.reshape(grid.shape)) * inv
    return np.fft.irfftn(spec, s=grid.shape, axes=axes).reshape(grid.total)


def weighted_elliptic_pinv_apply(
    w: Density, rhs: np.ndarray, cfg: EllipticSolveConfig | None = None
) -> np.ndarray:
    """Minimum-norm solve of (sum_a D_a^T diag(w) D_a) x = P rhs.

    Preconditioned CG restricted to the mean-zero subspace; the
    preconditioner is the constant-coefficient operator mean(w) * (-Delta)
    inverted spectrally.  Raises EllipticSolveError when the relative
    residual has not reached cfg.rel_tolerance within the iteration cap.
    """
    if cfg is None:
        cfg = EllipticSolveConfig()
    grid = w.grid
    rhs = _check_length(grid, rhs)
    wv = w.values
    if wv.min() <= 0.0:
        raise ValueError("weight density must be strictly positive")

    shape = grid.shape
    wx = wv.reshape(shape)
    inv_symbol = _inverse_symbol(np.mean(wv) * _laplacian_symbol(grid))
    axes = tuple(range(grid.dim))

    def precondition(r: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(np.fft.rfftn(r) * inv_symbol, s=shape, axes=axes)

    b = rhs.reshape(shape)
    b = b - b.mean()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(grid.total)
    tol = cfg.rel_tolerance * bnorm

    x = np.zeros(shape)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(np.vdot(r, z))
    limit = cfg.iteration_cap(grid)
    for iteration in range(1, limit + 1):
        ap = weighted_flux_apply(wx, p)
        alpha = rz / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        r -= r.mean()  # keep roundoff out of the null direction
        rnorm = np.linalg.norm(r)
        if rnorm <= tol:
            x -= x.mean()
            return x.reshape(grid.total)
        z = precondition(r)
        rz_next = float(np.vdot(r, z))
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise EllipticSolveError(
        f"elliptic solve not converged after {limit} iterations "
        f"(relative residual {rnorm / bnorm:.3e}, tolerance {cfg.rel_tolerance:.3e})",
        achieved_residual=float(rnorm / bnorm),
        iterations=limit,
    )
