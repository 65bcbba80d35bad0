"""Natural-gradient metric applications for descent over densities.

Four preconditioners map a Euclidean gradient g to a descent direction:

- transport (Wasserstein-type): D^T diag(p) D g, sparse stencil work;
- Fisher-Rao: entrywise p * g;
- Mahalanobis: the Laplacian pseudo-inverse of g;
- combined: W diag(1/d) W^T g, where the diagonal d approximates the
  wavelet-transformed Hessian of the combined loss,
      d_i = alpha1 / (H1 p)_i + alpha2 / (H2 p)_i + alpha3 * h3_i.

`metric_apply_fn` is the only public way to apply one: it checks the kind,
precomp and alphas once when it binds, picks that kind's private helper,
and the bound callable checks each call's density (type, grid) and
gradient (dtype, length) once, but not g's finiteness: the descent stalls
on the non-finite slope of a NaN or infinite direction.

H1 rows hold the squared entries of the differentiated 1D basis columns,
H2 rows the squared 1D basis columns, and h3 the diagonal of the
wavelet-transformed 1D Laplacian.  All three are entrywise squares of the
sparse basis matrix W and of DW, formed once per basis, with D the 1D
difference matrix of `operators`, so this module writes no stencil of its
own.  `MetricPrecomp.diagonals` applies one 1D factor per axis (A0 X A1^T
in 2D, the rule of `grid.tensor_apply`), so no n^2 x n^2 matrix is ever
built, and forms H2 P once for both 2D diagonals.  The precomp holds the
factors in the form `grid.tensor_factor` picks, built once: the sparse H1
and H2 in 1D, read-only dense copies in 2D, where a metric application is
then a few dgemm (the basis holds W and W^T the same way).  The
density-free term alpha3 * h3 is formed once, when `metric_apply_fn` binds.

Division conventions for d: a term with alpha = 0 is skipped before any
division; alpha > 0 over an exactly zero row (the constant scaling column)
gives d = +inf, freezing that coefficient (1/inf = 0); a slot with d = 0
(possible only when alpha1 = alpha2 = 0 on the constant column, where
h3 = 0) is treated as pseudo-inverse, 1/0 := 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .grid import Density, Grid, check_vector, tensor_factor
from .losses import check_alphas
from .operators import difference_matrix, laplacian_pinv_apply, weighted_flux_apply
from .wavelets import WaveletBasis, transform_forward, transform_inverse

__all__ = [
    "MetricPrecomp",
    "MetricKind",
    "MetricInfeasibleError",
    "build_precomp",
    "metric_apply_fn",
]


class MetricInfeasibleError(ValueError):
    """Raised when a metric requiring positivity sees a nonpositive density."""


class MetricKind(str, Enum):
    WASSERSTEIN = "wasserstein"
    FISHER_RAO = "fisher_rao"
    MAHALANOBIS = "mahalanobis"
    COMBINED = "combined"


@dataclass(frozen=True, eq=False)
class MetricPrecomp:
    """Sparse Hessian-diagonal factors for one basis.

    H1 and H2 are n x n CSR with rows indexed by 1D wavelet index and
    columns by 1D site, and h3 has length n; these are the stored form.
    `factors` is (H1, H2) in the form `grid.tensor_factor` picks, built
    once here, and `diagonals` applies them.  Equality and hash are by
    identity, as for `Density`.
    """

    basis: WaveletBasis
    h1: sp.csr_matrix
    h2: sp.csr_matrix
    h3: np.ndarray
    factors: tuple[sp.csr_matrix | np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dim = self.basis.grid.dim
        factors = (tensor_factor(self.h1, dim), tensor_factor(self.h2, dim))
        object.__setattr__(self, "factors", factors)

    @property
    def nnz(self) -> tuple[int, int]:
        return (self.h1.nnz, self.h2.nnz)

    def diagonals(
        self, p: np.ndarray, h1: bool = True, h2: bool = True
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(H1 diagonal, H2 diagonal) at p, each None unless its flag is set.

        In 1D H1 p and H2 p; in 2D H1 P H2^T + H2 P H1^T and H2 P H2^T on
        the n x n array P of p, with H2 P formed once for both.
        """
        f1, f2 = self.factors
        if self.basis.grid.dim == 1:
            return (f1 @ p if h1 else None), (f2 @ p if h2 else None)
        x = p.reshape(f2.shape[1], -1)
        h2x = f2 @ x
        return (
            (f1 @ x @ f2.T + h2x @ f1.T).reshape(-1) if h1 else None,
            (h2x @ f2.T).reshape(-1) if h2 else None,
        )

    def h3_diagonal(self) -> np.ndarray:
        """diag(W^T (-Delta) W): h3 added coordinatewise over the axes."""
        return functools.reduce(np.add.outer, [self.h3] * self.basis.grid.dim).ravel()


def build_precomp(basis: WaveletBasis) -> MetricPrecomp:
    """Assemble the 1D factors H2 = (W o W)^T, H1 = (DW o DW)^T and h3.

    o is the entrywise product and D the 1D forward difference of
    operators.difference_matrix, so h3, the column sums of (DW)^2, is the
    diagonal of W^T D^T D W.  The 2D diagonals follow from these factors
    alone because every 2D basis column is an outer product of two 1D
    columns.  The exactly constant scaling column differences to exact
    zeros, which leaves its H1 row with no stored entries and its h3
    entry 0.0.
    """
    w = basis.matrix
    dw = difference_matrix(basis.grid.n)[0] @ w
    dw.eliminate_zeros()
    dw2 = dw.multiply(dw)
    h1 = dw2.T.tocsr()
    h2 = w.multiply(w).T.tocsr()
    h3 = np.asarray(dw2.sum(axis=0)).ravel()
    return MetricPrecomp(basis=basis, h1=h1, h2=h2, h3=h3)


def _positive_values(p: Density) -> np.ndarray:
    if p.min <= 0.0:
        raise MetricInfeasibleError("metric requires a strictly positive density")
    return p.values


def _combined_metric_fn(
    pre: MetricPrecomp, alphas: tuple[float, float, float]
) -> Callable[[Density, np.ndarray], np.ndarray]:
    """W diag(1/d) W^T g with the division conventions described above.

    The density-free term alpha3 * h3 is formed here, once per bind.
    Without alpha1 and alpha2 it is all of d, so the pseudo-inverse scale
    is fixed too.  Otherwise every slot has d > 0 or d = +inf, and the
    scale is plain 1/d.  The terms are added in the order alpha1, alpha2,
    alpha3.
    """
    a1, a2, a3 = alphas
    basis = pre.basis
    d3 = a3 * pre.h3_diagonal() if a3 > 0 else None
    fixed_scale = None
    if a1 == a2 == 0.0:
        with np.errstate(divide="ignore"):
            fixed_scale = np.where(d3 > 0.0, 1.0 / d3, 0.0)  # d = 0 -> 0

    def apply(p: Density, g: np.ndarray) -> np.ndarray:
        pv = _positive_values(p)
        scale = fixed_scale
        if scale is None:
            with np.errstate(divide="ignore"):
                terms = zip((a1, a2), pre.diagonals(pv, a1 > 0, a2 > 0))
                d = [a / h for a, h in terms if h is not None]
            if d3 is not None:
                d.append(d3)
            scale = 1.0 / functools.reduce(np.add, d)  # d = +inf -> 0
        c = transform_forward(basis, g)
        return transform_inverse(basis, scale * c)

    return apply


def _wasserstein_metric(p: Density, g: np.ndarray) -> np.ndarray:
    """sum_a D_a^T diag(p) D_a g: the transport preconditioner at p."""
    return weighted_flux_apply(p.grid, _positive_values(p), g)


def _fisher_rao_metric(p: Density, g: np.ndarray) -> np.ndarray:
    """Entrywise diag(p) g."""
    return p.values * g


def _mahalanobis_metric(p: Density, g: np.ndarray) -> np.ndarray:
    """Laplacian pseudo-inverse of g; the constant component maps to zero."""
    return laplacian_pinv_apply(p.grid, g)


def metric_apply_fn(
    kind: MetricKind,
    grid: Grid,
    precomp: MetricPrecomp | None = None,
    alphas: tuple[float, float, float] | None = None,
) -> Callable[[Density, np.ndarray], np.ndarray]:
    """Bind a metric kind to a (density, gradient) -> direction callable.

    This is the only public way to apply a metric.  Every callable takes a
    Density on this grid: it raises TypeError for anything else, such as a
    bare array of site values, and ValueError for a Density on another grid
    or a gradient of the wrong length.  The combined metric needs a precomp
    on this grid and alphas that LossSpec would accept.
    """
    kind = MetricKind(kind)
    if kind is MetricKind.COMBINED:
        if precomp is None or alphas is None:
            raise ValueError("combined metric requires a precomp and alphas")
        if precomp.basis.grid != grid:
            raise ValueError(f"precomp grid {precomp.basis.grid} is not the metric grid {grid}")
        check_alphas(alphas)
        apply = _combined_metric_fn(precomp, alphas)
    else:
        apply = {
            MetricKind.WASSERSTEIN: _wasserstein_metric,
            MetricKind.FISHER_RAO: _fisher_rao_metric,
            MetricKind.MAHALANOBIS: _mahalanobis_metric,
        }[kind]

    def bound(p: Density, g: np.ndarray) -> np.ndarray:
        if not isinstance(p, Density):
            raise TypeError(f"p must be a Density, got {type(p).__name__}")
        if p.grid != grid:
            raise ValueError(f"density grid {p.grid} is not the metric grid {grid}")
        return apply(p, check_vector(grid, g))

    return bound
