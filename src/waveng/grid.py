"""Periodic uniform grids on [0,1]^d, densities over them, and the tensor rule.

Grids are 1D or 2D with n sites per direction (n a power of two, as the
wavelet layout requires).  A Density holds its mass per site, read-only,
and its construction is the one domain rule: the min is > 0 (which a NaN
fails) and the mass is finite (which a site at +inf or a sum that
overflows fails).  A loss evaluation builds the Density it holds, a
line-search trial that is no Density is priced +inf, and the weighted
solve, the metrics and the descent take positivity as given.  A Density
copies the array it is given (a loss's writable p) unless that array is
frozen, C-contiguous float64 and owns its data (a trial point, which the
line froze), and keeps the min and the mass that its check computes.  It
is compared and hashed by identity, so a cache can key on it (`operators`
keeps the 2D solve's set-up per weight density); `frozen` alone makes
arrays read-only.
Every site vector, a density's values, a potential, a gradient or the
argument of a loss, passes `check_vector`: one value per site, of an
integer or real float dtype, cast to float64; complex or non-numeric
input raises TypeError, decided by the dtype alone.
Reference measures are Boltzmann weights of a potential V, exp(-V)/Z.

Sites are flattened row-major, site (i1, i2) at i1*n + i2.  A 2D
operator is a Kronecker product of 1D matrices, one per axis, or a sum of
them, and `tensor_apply` applies one in this layout without forming it:
A0 X A1^T on the n x n site array X, with A1^T passed as the caller holds
it.  `tensor_factor` alone picks a 1D factor's applied form, read-only:
the CSR matrix in 1D (one sparse matvec), a dense copy in 2D (one dgemm
per side), with no size switch: dense was faster per analysis W^T X W at
16^2 to 512^2 (one BLAS thread, 2-vCPU VM).
The (-Delta)^+ plan (`operators`), `MetricPrecomp.diagonals` and
`metrics._galerkin_blocks` keep private 2D products: through
`tensor_apply` the plan was slower and not bitwise the same, the
diagonals share H2 P, and the coarse blocks B1 and B2 share P VV.  L_w
alone is assembled, by Kronecker products.  The difference stencils,
-Delta and the weighted flux, are sums of one-axis products with D, D^T
or D^T D, which `operators` applies in 2D by shifted slices of the flat
site vector (by n along axis 0, by 1 along axis 1): the CSR products'
bits with no transposed copy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

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
    "frozen",
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
    """Mass-per-site vector over a grid: min > 0 and a finite mass.

    The values pass `check_vector`.  They are read-only and no writable
    array shares their data, so neither the density nor a cache keyed on
    it changes when the caller writes to the array passed in.  A frozen,
    C-contiguous float64 array that owns its data is held as it is (a
    line-search trial point, which the line froze, or a Density's values);
    any other input is copied, then frozen.  `min` and `mass` are the
    values' min and sum, computed once, when the values are checked.
    Equality and hash are by identity.
    """

    grid: Grid
    values: np.ndarray
    min: float = field(init=False, repr=False)
    mass: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        values = check_vector(self.grid, self.values)
        flags = values.flags
        if flags.writeable or not (flags.owndata and flags.c_contiguous):
            (values,) = frozen(np.array(values))
        object.__setattr__(self, "values", values)
        lowest = float(values.min())
        with np.errstate(over="ignore"):  # a sum that overflows is refused, not warned of
            mass = float(values.sum())
        if not (lowest > 0.0 and mass < math.inf):  # a NaN fails the min
            raise ValueError("density values and their sum must be finite and strictly positive")
        object.__setattr__(self, "min", lowest)
        object.__setattr__(self, "mass", mass)


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


def reference_measure(grid: Grid, potential: np.ndarray) -> Density:
    """Reference density exp(-V)/Z, V one value per site as `check_vector` takes it.

    V must be finite.  exp(-(V - min V)) cannot overflow; where a site's
    weight underflows to 0, or the span of V is past the float range, the
    weights are no Density and ValueError names the span.
    """
    v = check_vector(grid, potential)
    if not np.all(np.isfinite(v)):
        raise ValueError("potential values must be finite")
    span = float(v.max()) - float(v.min())  # Python floats: inf past the float range, no warning
    if math.isfinite(span):
        w = np.exp(-(v - v.min()))
        try:
            return Density(grid, w / w.sum())
        except ValueError:  # a site's weight underflowed to 0
            pass
    raise ValueError(f"potential spans {span:.6g}: exp(-V) underflows to 0 at a site")


def uniform_density(grid: Grid) -> Density:
    """Uniform density, 1/total at every site."""
    return Density(grid, np.full(grid.total, 1.0 / grid.total))


def check_vector(grid: Grid, v: np.ndarray) -> np.ndarray:
    """v as float64; ValueError unless it holds one value per site.

    TypeError unless its dtype is integer or real float, decided by the
    dtype alone, with no pass over the data, and for a Density, with a
    hint.  A float64 array is returned as it is.
    """
    if isinstance(v, Density):
        raise TypeError("got a Density where site values are expected: pass its .values")
    v = np.asarray(v)
    if v.dtype.kind not in _REAL_KINDS:
        raise TypeError(f"site values must be real numbers, got dtype {v.dtype}")
    if v.shape != (grid.total,):
        raise ValueError(f"vector shape {v.shape} does not match grid ({grid.total},)")
    return v.astype(np.float64, copy=False)


def frozen(*items: sp.csr_matrix | np.ndarray) -> tuple:
    """The items, each made read-only in place: an array, or a CSR's data, indices and indptr.

    Every array that a cache keys on or returns passes through here.
    """
    for item in items:
        for a in (item.data, item.indices, item.indptr) if sp.issparse(item) else (item,):
            a.flags.writeable = False
    return items


def tensor_factor(a: sp.csr_matrix, dim: int) -> sp.csr_matrix | np.ndarray:
    """The 1D factor a as `tensor_apply` applies it, read-only: a in 1D, a dense copy in 2D."""
    return frozen(a if dim == 1 else a.toarray())[0]


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
