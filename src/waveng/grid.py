"""Periodic uniform grids on [0,1]^d, densities over them, and the tensor rule.

Grids are 1D or 2D with n sites per direction (n a power of two, as the
wavelet layout requires).  A density is a nonnegative mass-per-site vector
whose mass is `Density.mass`.  A Density holds a read-only copy of its
values and is compared and hashed by identity, so a cache can key on it
(`operators` keeps the 2D solve's set-up per weight density).  Every other
site vector, a potential, a gradient or the argument of a loss, is a plain
array of one value per site, and each public entry checks its length.
Densities and site vectors take integer or real float dtypes, cast to
float64; complex or non-numeric input raises TypeError, decided by the
dtype alone.
Reference measures are Boltzmann weights of a potential V, exp(-V)/Z.

Sites are flattened row-major, site (i1, i2) at i1*n + i2.  Every 2D
operator is a Kronecker product of 1D matrices, one per axis, and
`tensor_apply` applies it in this layout without forming the product:
A0 X A1^T on the n x n site array X, with A1^T passed as the caller holds
it.  `tensor_factor` alone picks a 1D factor's applied form: the CSR
matrix in 1D (one sparse matvec), a dense copy in 2D (one dgemm per
side), with no size switch: dense was faster per analysis W^T X W at
16^2 to 512^2 (one BLAS thread, 2-vCPU VM).
The (-Delta)^+ plan (`operators`) and `MetricPrecomp.diagonals` keep
private 2D products: through `tensor_apply` the plan was slower and not
bitwise the same, and the diagonals share H2 P.  L_w alone is assembled,
by Kronecker products.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Grid",
    "Density",
    "make_grid",
    "site_coordinates",
    "reference_measure",
    "uniform_density",
    "check_vector",
    "axis_apply",
    "tensor_factor",
    "tensor_apply",
]

# dtype kinds cast to float64 without loss of meaning: signed and unsigned
# integers and real floats.  Complex input would lose its imaginary part,
# and bools, strings and objects are not site values.
_REAL_KINDS = "iuf"


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice: n sites per direction on [0,1]^dim; dim 1 or 2, n = 2^k >= 4."""

    dim: int
    n: int

    def __post_init__(self) -> None:
        dim = self.dim  # a bool or a float equals 1 or 2, but neither is a dimension
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim!r}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 4 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of 2 with n >= 4, got {self.n}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "n", int(self.n))

    @property
    def total(self) -> int:
        return self.n**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim


@dataclass(frozen=True, eq=False)
class Density:
    """Mass-per-site vector over a grid.

    `values` is a read-only copy of the array passed in, so neither the
    density nor a cache keyed on it changes when the caller writes to that
    array.  Equality and hash are by identity: two densities with equal
    values are distinct.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(_real(self.values, "density values"), dtype=np.float64)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.total,):
            raise ValueError(
                f"density has {values.shape} values, grid expects ({self.grid.total},)"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")

    @property
    def min(self) -> float:
        return float(self.values.min())

    @property
    def mass(self) -> float:
        return float(self.values.sum())


def make_grid(dim: int, n: int) -> Grid:
    """Create a periodic grid; n must be a power of two, n >= 4."""
    return Grid(dim=dim, n=n)


def site_coordinates(grid: Grid) -> np.ndarray:
    """Site coordinates s/n, shape (dim, total), flattened row-major in 2D."""
    x = np.arange(grid.n, dtype=np.float64) / grid.n
    if grid.dim == 1:
        return x[np.newaxis, :]
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    return np.stack([x1.ravel(), x2.ravel()])


def boltzmann_weights(v: np.ndarray) -> np.ndarray:
    """Normalized exp(-v), max-shifted so large potentials cannot overflow."""
    v = np.asarray(v, dtype=np.float64)
    w = np.exp(-(v - v.min()))
    return w / w.sum()


def reference_measure(grid: Grid, potential: np.ndarray) -> Density:
    """Reference density exp(-V)/Z, V one value per site; sums to 1, ValueError unless > 0."""
    v = _real(potential, "potential values")
    if v.shape != (grid.total,):
        raise ValueError(f"potential has {v.shape} values, grid expects ({grid.total},)")
    if not np.all(np.isfinite(v)):
        raise ValueError("potential values must be finite")
    span = float(v.max()) - float(v.min())  # Python floats: inf past the float range, no warning
    if math.isfinite(span):
        w = boltzmann_weights(v)
        if w.min() > 0.0:
            return Density(grid, w)
    raise ValueError(f"potential spans {span:.6g}: exp(-V) underflows to 0 at a site")


def uniform_density(grid: Grid) -> Density:
    """Uniform density, 1/total at every site."""
    return Density(grid, np.full(grid.total, 1.0 / grid.total))


def check_vector(grid: Grid, v: np.ndarray) -> np.ndarray:
    """v as float64; ValueError unless it holds one value per site.

    TypeError for a Density, and for complex or non-numeric values (see _real).
    """
    if isinstance(v, Density):
        raise TypeError("got a Density where site values are expected: pass its .values")
    v = _real(v, "site values")
    if v.shape != (grid.total,):
        raise ValueError(f"vector shape {v.shape} does not match grid ({grid.total},)")
    return v


def _real(v: np.ndarray, what: str) -> np.ndarray:
    """v as a float64 array; TypeError unless its dtype is integer or real float.

    Decided by the dtype alone, with no pass over the data.  A float64
    array is returned as it is.
    """
    v = np.asarray(v)
    if v.dtype.kind not in _REAL_KINDS:
        raise TypeError(f"{what} must be real numbers, got dtype {v.dtype}")
    return v.astype(np.float64, copy=False)


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


def tensor_factor(a: sp.csr_matrix, dim: int) -> sp.csr_matrix | np.ndarray:
    """The 1D factor a as `tensor_apply` applies it: a in 1D, a read-only dense copy in 2D."""
    if dim == 1:
        return a
    out = a.toarray()
    out.flags.writeable = False
    return out


def tensor_apply(factors: Sequence[sp.csr_matrix | np.ndarray], v: np.ndarray) -> np.ndarray:
    """A0 v in 1D; in 2D (A0 (x) A1) v = A0 X R with the right factor given as R = A1^T.

    The right factor comes in the layout it multiplies by, so a caller that
    holds both A1 and A1^T (the wavelet basis holds W and W^T) passes the
    stored array, not a transposed view, which BLAS multiplies by more
    slowly.  The factors may be CSR or dense.
    """
    if len(factors) == 1:
        return factors[0] @ v
    left, right = factors
    return (left @ v.reshape(left.shape[1], right.shape[0]) @ right).reshape(-1)
