"""Natural-gradient metric applications for descent over densities.

Four preconditioners map a Euclidean gradient g to a descent direction:

- transport (Wasserstein-type): D^T diag(p) D g, sparse stencil work;
- Fisher-Rao: entrywise p * g;
- Mahalanobis: the Laplacian pseudo-inverse of g;
- combined: W diag(1/d) W^T g, where the diagonal d approximates the
  wavelet-transformed Hessian of the combined loss,
      d_i = alpha1 / (H1 p)_i + alpha2 / (H2 p)_i + alpha3 * h3_i,
  the paper's metric, made two-level by default: on the coarsest m =
  COARSE_BLOCK indices per axis, where one basis function couples strongly
  to its neighbours and the diagonal falls short, the coefficients are
  H_c^-1 times theirs instead, the exact inverse of the coarse block
  H_c = a1 B1^-1 + a2 B2^-1 + a3 B3 of the Hessian built at the reference
  measure mu (`build_coarse_block`).  It halves the iterations on most
  mixes and holds them at 5-14 from 1D n = 128 to 4096 and 2D 32^2 to
  128^2, rough starts included, where the paper's diagonal grows with n
  on the alpha2 = 0 mixes and stalls from rough starts at n >= 2048.

`metric_apply_fn` is the only public way to apply one: it checks the kind,
precomp and alphas once when it binds, picks that
kind's private helper, and the bound callable, metric(p, g, mu), checks
each call's densities p and mu (type, grid) and gradient (dtype, length)
once, but not g's finiteness: the descent stalls on the non-finite slope
of a NaN or infinite direction.  The descent passes the loss's mu, so the
block is built at the measure the loss is minimized towards, on the first
call, and cached for the run.

H1 rows hold the squared entries of the differentiated 1D basis columns,
H2 rows the squared 1D basis columns, and h3 the diagonal of the
wavelet-transformed 1D Laplacian.  All three are entrywise squares of W
and of DW, formed once per basis with no sparse product: H2 from the
stored W^T, H1 and h3 from the basis's one column per level, differenced
by the 1D difference matrix D of `operators` (so this module writes no
stencil of its own) and shifted into place (`WaveletBasis.translates`).
`MetricPrecomp.diagonals` applies one 1D factor per axis (A0 X A1^T
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
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .grid import Density, Grid, check_vector, tensor_factor
from .losses import check_alphas
from .operators import (
    difference_matrix,
    laplacian_pinv_apply,
    symmetric_inverse,
    weighted_flux_apply,
)
from .wavelets import WaveletBasis, transform_forward, transform_inverse

__all__ = [
    "COARSE_BLOCK",
    "CoarseBlock",
    "MetricPrecomp",
    "MetricKind",
    "MetricInfeasibleError",
    "build_coarse_block",
    "build_precomp",
    "metric_apply_fn",
]

# Coarsest basis indices per axis on which the combined metric applies the
# exact block H_c^-1 (m^dim of them), 0 for the paper's diagonal alone.
# Iterations to a 1e-6 relative gap on 2d-1: 15 at m = 8, 10 at m = 16; m = 32
# built slowly and took more.
COARSE_BLOCK = 16


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
    operators.difference_matrix.  H2 is W^T with its entries squared.  D is
    circulant, so each column of DW is its level's D-differenced column
    shifted as the column of W is, and H1 is the basis's translates of the
    squared differences of its level columns: neither W nor DW passes
    through a sparse product.  h3, the column sums of (DW)^2 summed down the
    sites in order, is the diagonal of W^T D^T D W.  The 2D diagonals follow
    from these factors alone because every 2D basis column is an outer
    product of two 1D columns.  The exactly constant scaling column
    differences to exact zeros, which leaves its H1 row with no stored
    entries and its h3 entry 0.0.
    """
    n = basis.grid.n
    wt = basis.matrix.T.tocsr()
    h2 = sp.csr_matrix((np.square(wt.data), wt.indices, wt.indptr), shape=wt.shape)
    differences = difference_matrix(n)[0] @ basis.level_columns.T
    h1 = basis.translates(np.square(differences.T))
    h3 = h1 @ np.ones(n)  # each row summed in site order, as the column sums of (DW)^2 are
    return MetricPrecomp(basis=basis, h1=h1, h2=h2, h3=h3)


def _positive_values(p: Density) -> np.ndarray:
    if p.min <= 0.0:
        raise MetricInfeasibleError("metric requires a strictly positive density")
    return p.values


@dataclass(frozen=True, eq=False)
class CoarseBlock:
    """H_c^-1 of the two-level combined metric at one mu, and the indices it applies to.

    `indices` are the flat coefficient indices of the coarse columns E_c
    (see build_coarse_block), row-major over the block of the last m
    indices per axis; `inverse` is H_c^-1 in that order.  Both arrays are
    read-only, and equality and hash are by identity.
    """

    indices: np.ndarray
    inverse: np.ndarray


def build_coarse_block(
    precomp: MetricPrecomp, mu: Density, alphas: tuple[float, float, float], m: int
) -> CoarseBlock:
    """H_c^-1 at mu on the last min(m, n) indices per axis, cached for the last key.

    H_c = a1 B1^-1 + a2 B2^-1 + a3 B3, terms with alpha = 0 skipped, with
    B1 = E_c^T L_mu E_c, B2 = E_c^T diag(mu) E_c and B3 = E_c^T (-Delta) E_c,
    E_c the coarse basis columns (their tensor products in 2D).  They are
    built by tensor contraction (`_galerkin_blocks`), never forming the
    n^dim x m^dim matrix E_c.  The constant column, the block's last, is
    dropped exactly where the paper's metric fixes its coefficient: where
    alpha1 > 0 (d = +inf, the mass stays frozen) and where
    alpha1 = alpha2 = 0 (1/0 := 0).  Where alpha1 = 0 and alpha2 > 0, B2 is
    nonsingular and the column stays.  B1^-1, B2^-1 and H_c^-1 are
    `symmetric_inverse` sweeps, so H_c^-1 is exactly symmetric and its
    bytes do not depend on the thread count.  Raises ValueError for alphas
    LossSpec refuses, an m that is not an integer >= 1, or a mu on another
    grid, and MetricInfeasibleError for a mu that is not strictly positive.
    The arguments are checked before the cache is asked, which then keys on
    (precomp, mu, the alphas as three floats, min(m, n)), precomp and mu by
    identity: alphas given as a list or an array share the tuple's block,
    and every metric bound for one run shares one build.
    """
    check_alphas(alphas)
    grid = precomp.basis.grid
    if mu.grid != grid:
        raise ValueError(f"mu grid {mu.grid} is not the precomp grid {grid}")
    m = min(_block_size(m, least=1), grid.n)
    return _coarse_block(precomp, mu, tuple(map(float, alphas)), m)


@functools.lru_cache(maxsize=1)  # a run has one precomp, one mu and one alpha mix
def _coarse_block(
    precomp: MetricPrecomp, mu: Density, alphas: tuple[float, float, float], m: int
) -> CoarseBlock:
    """build_coarse_block on checked arguments: float alphas and 1 <= m <= n."""
    grid = precomp.basis.grid
    a1, a2, _ = alphas
    n = grid.n
    mu_values = _positive_values(mu)
    v = precomp.basis.matrix[:, n - m :].toarray()
    u = difference_matrix(n)[0] @ v
    corner = np.arange(n - m, n)
    indices = corner if grid.dim == 1 else (corner[:, None] * n + corner).ravel()
    if a1 > 0 or a1 == a2 == 0.0:
        indices = indices[:-1]
    h_c = None
    blocks = _galerkin_blocks(u, v, mu_values, grid.dim, len(indices))
    for a, term, inverted in zip(alphas, blocks, (True, True, False)):
        if a > 0:
            if inverted:
                symmetric_inverse(term)
            term *= a
            if h_c is None:
                h_c = term
            else:
                h_c += term
    inverse = symmetric_inverse(h_c)
    indices.flags.writeable = inverse.flags.writeable = False
    return CoarseBlock(indices, inverse)


def _galerkin_blocks(
    u: np.ndarray, v: np.ndarray, mu_values: np.ndarray, dim: int, kept: int
) -> Iterator[np.ndarray]:
    """B1, B2 and B3 on the first `kept` of the m^dim coarse columns, one at a time.

    V holds the last m columns of W and U = D V.  In 1D B1 = U^T diag(mu) U,
    B2 = V^T diag(mu) V and B3 = G = U^T U.  In 2D, with P the n x n array
    of mu and UU, VV the n x m^2 column-wise products UU[s, (i, k)] =
    U_si U_sk,

        B1 = UU^T P VV + VV^T P UU,  B2 = VV^T P VV,

    each reindexed from [(i, k), (j, l)] to [(i, j), (k, l)], and
    B3 = G (x) I + I (x) G, because V^T V = I.  Each block is a new
    C-contiguous array, which the caller may overwrite: the sweeps run
    about a quarter slower on a strided view.  One block at a time, and no
    name kept on an untrimmed copy, because the three 2D blocks at once
    raised the benchmark's peak memory by about 4 MB.
    """

    def trimmed(b: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(b[:kept, :kept])

    gram = u.T @ u
    if dim == 1:
        yield trimmed((u.T * mu_values) @ u)
        yield trimmed((v.T * mu_values) @ v)
        yield trimmed(gram)
        return
    n, m = v.shape

    def reindexed(b: np.ndarray) -> np.ndarray:
        return trimmed(b.reshape((m,) * 4).transpose(0, 2, 1, 3).reshape(m * m, m * m))

    uu, vv = ((x[:, :, None] * x[:, None, :]).reshape(n, m * m) for x in (u, v))
    weights = mu_values.reshape(n, n)
    pv = weights @ vv
    b = uu.T @ pv
    b += vv.T @ (weights @ uu)
    b = reindexed(b)
    yield b
    b = reindexed(vv.T @ pv)
    yield b
    b = np.kron(gram, np.eye(m))
    b += np.kron(np.eye(m), gram)
    b = trimmed(b)
    yield b


def _block_size(m: object, least: int) -> int:
    """m as an int; ValueError unless it is an integer >= least (a bool is no block size)."""
    if isinstance(m, bool) or not isinstance(m, Integral) or m < least:
        raise ValueError(f"coarse_block must be an integer >= {least}, got {m!r}")
    return int(m)


def _combined_metric_fn(
    pre: MetricPrecomp, alphas: tuple[float, float, float], m: int
) -> Callable[[Density, np.ndarray, Density], np.ndarray]:
    """W diag(1/d) W^T g with the division conventions described above, two-level for m > 0.

    The density-free term alpha3 * h3 is formed here, once per bind.
    Without alpha1 and alpha2 it is all of d, so the pseudo-inverse scale
    is fixed too.  Otherwise every slot has d > 0 or d = +inf, and the
    scale is plain 1/d.  The terms are added in the order alpha1, alpha2,
    alpha3.  For m > 0 the coefficients of the coarse block's indices are
    H_c^-1 times theirs instead (see build_coarse_block), the block built
    at mu on the first call and taken from the cache after.
    """
    a1, a2, a3 = alphas
    basis = pre.basis
    m = min(m, basis.grid.n)
    d3 = a3 * pre.h3_diagonal() if a3 > 0 else None
    fixed_scale = None
    if a1 == a2 == 0.0:
        with np.errstate(divide="ignore"):
            fixed_scale = np.where(d3 > 0.0, 1.0 / d3, 0.0)  # d = 0 -> 0

    def apply(p: Density, g: np.ndarray, mu: Density) -> np.ndarray:
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
        coefficients = scale * c
        if m:
            block = _coarse_block(pre, mu, alphas, m)
            coefficients[block.indices] = block.inverse @ c[block.indices]
        return transform_inverse(basis, coefficients)

    return apply


def _wasserstein_metric(p: Density, g: np.ndarray, mu: Density) -> np.ndarray:
    """sum_a D_a^T diag(p) D_a g: the transport preconditioner at p."""
    return weighted_flux_apply(p.grid, _positive_values(p), g)


def _fisher_rao_metric(p: Density, g: np.ndarray, mu: Density) -> np.ndarray:
    """Entrywise diag(p) g."""
    return p.values * g


def _mahalanobis_metric(p: Density, g: np.ndarray, mu: Density) -> np.ndarray:
    """Laplacian pseudo-inverse of g; the constant component maps to zero."""
    return laplacian_pinv_apply(p.grid, g)


def metric_apply_fn(
    kind: MetricKind,
    grid: Grid,
    precomp: MetricPrecomp | None = None,
    alphas: tuple[float, float, float] | None = None,
    *,
    coarse_block: int = COARSE_BLOCK,
) -> Callable[[Density, np.ndarray, Density], np.ndarray]:
    """Bind a metric kind to a (density, gradient, mu) -> direction callable.

    This is the only public way to apply a metric.  Every callable takes a
    density p and the loss's reference measure mu, each a Density on this
    grid: it raises TypeError for anything else, such as a bare array of
    site values, and ValueError for a Density on another grid or a gradient
    of the wrong length.  The baselines ignore mu.  The combined metric
    needs a precomp on this grid and alphas that LossSpec would accept; it
    is two-level, with the exact block H_c^-1 at mu on the coarsest
    min(COARSE_BLOCK, n) indices per axis (see build_coarse_block).
    `coarse_block` is a reference for tests: 0 gives the paper's diagonal
    alone, bit for bit; the combined metric raises ValueError unless it is
    an integer >= 0, and the baselines ignore it.
    """
    kind = MetricKind(kind)
    if kind is MetricKind.COMBINED:
        if precomp is None or alphas is None:
            raise ValueError("combined metric requires a precomp and alphas")
        if precomp.basis.grid != grid:
            raise ValueError(f"precomp grid {precomp.basis.grid} is not the metric grid {grid}")
        check_alphas(alphas)
        m = _block_size(coarse_block, least=0)
        apply = _combined_metric_fn(precomp, tuple(map(float, alphas)), m)
    else:
        apply = {
            MetricKind.WASSERSTEIN: _wasserstein_metric,
            MetricKind.FISHER_RAO: _fisher_rao_metric,
            MetricKind.MAHALANOBIS: _mahalanobis_metric,
        }[kind]

    def bound(p: Density, g: np.ndarray, mu: Density) -> np.ndarray:
        for name, density in (("p", p), ("mu", mu)):
            if not isinstance(density, Density):
                raise TypeError(f"{name} must be a Density, got {type(density).__name__}")
            if density.grid != grid:
                raise ValueError(f"{name} grid {density.grid} is not the metric grid {grid}")
        return apply(p, check_vector(grid, g), mu)

    return bound
