"""Periodized orthogonal Daubechies wavelet bases on power-of-two grids.

A 1D basis is stored once as the sparse n x n matrix W whose columns are the
basis functions, exactly orthogonal with O(n log n) nonzeros; this is the
matrix form of the fast wavelet transform (Beylkin, Coifman & Rokhlin
1991).  The cascade always runs to full depth, L = log2 n levels, so the
columns are [detail level 1 (finest, n/2) | ... | detail level L (1) |
scaling], the last being the constant 1/sqrt(n).  The basis is periodic,
so every column of level l is one vector circularly shifted by a multiple
of 2^l sites: the cascade runs on one vector per level, with circular
(periodic) wrap, and W is written from those vectors' translates
(`WaveletBasis.translates`), which the metric precompute builds its
factors from too.

Synthesis convention: tap r of the coefficient at position j of a level of
length m lands on site (2j+r) mod m, so analysis reads
a_j = sum_r h[r] v[(2j+r) mod m].  Highpass is the alternating flip
g[i] = (-1)^i h[2k-1-i].  The lowpass taps, one read-only array per order,
are a committed table of a 50-digit spectral factorization rounded once to
float64, so orthogonality holds to double-precision roundoff.

In 2D the basis is the tensor product of the 1D basis with itself.  It is
never materialized: the synthesis applies W along every axis and the
analysis W^T, through `grid.tensor_apply`, so a transform is W c or W^T v
in 1D and W C W^T or W^T X W on the n x n array in 2D.  The basis holds
both factors in the form `grid.tensor_factor` picks, built once: the CSR
W and W^T in 1D, where a transform is one sparse matvec, and read-only
dense copies in 2D, where it is two dgemm on the stored arrays, W^T X W
as analysis @ X @ synthesis (2 n^2 doubles, 256 KB at n = 128).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from numbers import Integral

import numpy as np
import scipy.sparse as sp

from .grid import Grid, check_vector, tensor_apply, tensor_factor

__all__ = [
    "WaveletBasis",
    "daubechies_lowpass",
    "make_basis",
    "transform_forward",
    "transform_inverse",
]


# Lowpass taps h[0 .. 2k-1] for k = 1 .. 10 vanishing moments as float.hex
# strings.  Orders 2-10 are the spectral factorization of the binomial
# half-band polynomial in 50-digit arithmetic, rounded once to float64
# (tests/filter_reference.py re-derives them and checks every bit); order 1
# is the Haar pair 1/sqrt(2).  Published tables carry too few digits for the
# 1e-12 orthogonality checks used here.
_LOWPASS_HEX: dict[int, tuple[str, ...]] = {
    1: ("0x1.6a09e667f3bccp-1", "0x1.6a09e667f3bccp-1"),
    2: (
        "0x1.ee8dd4748bf15p-2", "0x1.ac4bdd6e3fd71p-1", "0x1.cb0bf0b6b7109p-3",
        "-0x1.0907dc1930690p-3",
    ),
    3: (
        "0x1.54a796e50d264p-2", "0x1.9d20e247d28bbp-1", "0x1.d6ea20bf0f744p-2",
        "-0x1.1480a85c59629p-3", "-0x1.5df7ab50d483cp-4", "0x1.2092e373789b9p-5",
    ),
    4: (
        "0x1.d7d052af15ec0p-3", "0x1.6e005ea45d748p-1", "0x1.4302cdd3de43ap-1",
        "-0x1.ca7c6f9db5bfbp-6", "-0x1.7f0c1b7c604d4p-3", "0x1.f94e2196383a9p-6",
        "0x1.0d60ac768117bp-5", "-0x1.5b41730b72e29p-7",
    ),
    5: (
        "0x1.47e3c41a7b911p-3", "0x1.35291c2c4b00cp-1", "0x1.72d89143b54f5p-1",
        "0x1.1b80373befcc6p-3", "-0x1.f0384d3f81474p-3", "-0x1.0826648a8dc74p-5",
        "0x1.3dbb9b52515aap-4", "-0x1.990ad4579f2e8p-8", "-0x1.9c3eff3294128p-7",
        "0x1.b5385e04e3c09p-9",
    ),
    6: (
        "0x1.c8def24dc3952p-4", "0x1.fa7eaf64539a9p-2", "0x1.80949fa3bc0bbp-1",
        "0x1.42d0fcfa92f21p-2", "-0x1.cf63dd26916f1p-3", "-0x1.09c33622722ebp-3",
        "0x1.8f5dd7f4e1752p-4", "0x1.c2ef43d612549p-6", "-0x1.02b856404e8cep-5",
        "0x1.225f71210a7c1p-11", "0x1.391514c62a31bp-8", "-0x1.1a6873b7a6466p-10",
    ),
    7: (
        "0x1.3ee1cba38b6b1p-4", "0x1.960e674303003p-2", "0x1.7550cd294c1fep-1",
        "0x1.e10e9ba294ddcp-2", "-0x1.26b830e491e33p-3", "-0x1.cad37bbd5ab97p-3",
        "0x1.241522ca7821cp-4", "0x1.4a30727f2fa53p-4", "-0x1.378a8eecf45ccp-5",
        "-0x1.0f8eaa8ffe709p-6", "0x1.9b45682a50d70p-7", "0x1.c271f584373d4p-12",
        "-0x1.d84a0f9cb2f31p-10", "0x1.72e5533fa10d3p-12",
    ),
    8: (
        "0x1.bdc64ada308ddp-5", "0x1.4061690b4c31ep-2", "0x1.59ec459923760p-1",
        "0x1.2bb39bedb5e28p-1", "-0x1.03581459a95c6p-6", "-0x1.22d4f8724d56fp-2",
        "0x1.ef6f9caf662b0p-12", "0x1.07acbb163ba09p-3", "-0x1.1c9420f07509dp-6",
        "-0x1.692bc518a7fe2p-5", "0x1.ca215cd5b85b4p-7", "0x1.1e978df35f5fcp-7",
        "-0x1.3f2ef6d3ac74ap-8", "-0x1.9ac501798e65dp-12", "0x1.622148e2ef341p-11",
        "-0x1.ecbbbc88e3fc3p-14",
    ),
    9: (
        "0x1.37ef3e540da7cp-5", "0x1.f35f9808bc2a0p-3", "0x1.35ab60603a288p-1",
        "0x1.5088101e8fe35p-1", "0x1.10c9ca803fb22p-3", "-0x1.2c4ff66fd53efp-2",
        "-0x1.8ca8ebcdc98fcp-4", "0x1.303621e43e771p-3", "0x1.f768d94677997p-6",
        "-0x1.1506294f451a2p-4", "0x1.07231a6b6ca0dp-12", "0x1.6e5f9be058887p-6",
        "-0x1.358a39f783bbfp-8", "-0x1.1897b64b3bfb6p-8", "0x1.e4597bbfc711fp-10",
        "0x1.e3276a3bc510bp-13", "-0x1.0833da803978ap-12", "0x1.4a11ba1ad31b5p-15",
    ),
    10: (
        "0x1.b4f6549dc7ae3p-6", "0x1.8162d69198cfep-3", "0x1.0ded5071bf874p-1",
        "0x1.607db4062d775p-1", "0x1.1feba4923f567p-2", "-0x1.ffaf7b6c111e3p-3",
        "-0x1.914c47c1ca802p-3", "0x1.04da377a0ae83p-3", "0x1.7d29b819fd18dp-4",
        "-0x1.246e307349ac4p-4", "-0x1.e2a1dd5152b25p-6", "0x1.1014069cb8f3cp-5",
        "0x1.d8b7db3e21714p-9", "-0x1.5fb466d770edcp-7", "0x1.6dc8787ae38ddp-10",
        "0x1.0526072a98cd8p-9", "-0x1.67962098c50f0p-11", "-0x1.e87f555dc50ddp-14",
        "0x1.888a11cfae433p-14", "-0x1.bd12a2a1a43dbp-17",
    ),
}


def daubechies_lowpass(order: int) -> np.ndarray:
    """Lowpass taps h[0 .. 2 order - 1] with `order` vanishing moments, 1 <= order <= 10.

    Ordering matches the convention with h[0] = (1+sqrt 3)/(4 sqrt 2) for
    order 2.  Every caller shares the cached array, so it is read-only.
    """
    # checked before the cache, which would raise TypeError for an unhashable order
    _check_integer("order", order, len(_LOWPASS_HEX))  # the table holds orders 1 .. 10
    return _cached_lowpass(int(order))


@cache
def _cached_lowpass(order: int) -> np.ndarray:
    lowpass = np.array([float.fromhex(tap) for tap in _LOWPASS_HEX[order]])
    lowpass.flags.writeable = False
    return lowpass


@dataclass(frozen=True, eq=False)
class WaveletBasis:
    """The 1D basis for one grid: one column per level, W, and its transform factors.

    `level_columns` is the (L + 1) x n array of the first column of each
    level block of W, fine to coarse, the last row the scaling column; it
    is read-only, and every other column of a level is one of these
    shifted (`translates`).  `matrix` is the n x n CSR matrix W of the 1D
    basis, the stored form, with sorted indices and no stored zeros.
    `synthesis` and `analysis` are W and W^T in the form the transforms
    apply along each axis (`grid.tensor_factor`), built once here.  In 2D
    the basis is the full tensor product of the 1D basis with itself and
    the coefficient array has length n^2, indexed (i1, i2) -> i1*n + i2
    like the sites.  Equality and hash are by identity, as for `Density`:
    bases of different order on one grid are distinct.
    """

    grid: Grid
    level_columns: np.ndarray = field(repr=False)
    matrix: sp.csr_matrix = field(init=False, repr=False)
    synthesis: sp.csr_matrix | np.ndarray = field(init=False, repr=False)
    analysis: sp.csr_matrix | np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dim = self.grid.dim
        self.level_columns.flags.writeable = False
        transposed = self.translates(self.level_columns)
        matrix = transposed.T.tocsr()
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "synthesis", tensor_factor(matrix, dim))
        object.__setattr__(self, "analysis", tensor_factor(transposed, dim))

    def translates(self, vectors: np.ndarray) -> sp.csr_matrix:
        """n x n CSR matrix, row i the vector of i's level shifted as basis column i is.

        `vectors` holds one n-vector per level, in the layout of
        `level_columns`.  Row k of level l (n / 2^l rows, l = 1 .. L, then
        the scaling row) is vectors[l - 1] circularly shifted by k 2^l
        sites, with sorted indices and no stored zeros.  So
        translates(level_columns) is W^T, and for a map f that acts on each
        column and commutes with these shifts, such as an entrywise square
        or a circulant stencil, translates(f(level_columns)) is f(W)^T.
        """
        n = self.grid.n
        indices, data, lengths, counts = [], [], [], []
        for level, vector in enumerate(vectors):
            support = np.flatnonzero(vector)
            shifts = np.arange(0, n, min(2 << level, n))[:, None]
            # a shifted row lists the sites that wrap past n first, each group
            # in order: a window of the support taken twice, the first time - n
            first = np.searchsorted(support, n - shifts) + np.arange(len(support))
            indices.append((np.concatenate([support - n, support])[first] + shifts).ravel())
            data.append(np.tile(vector[support], 2)[first].ravel())
            lengths.append(len(support))
            counts.append(len(shifts))
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.repeat(lengths, counts), out=indptr[1:])
        return sp.csr_matrix(
            (np.concatenate(data), np.concatenate(indices).astype(np.int32), indptr), shape=(n, n)
        )


def make_basis(grid: Grid, order: int = 3, levels: None = None) -> WaveletBasis:
    """Build the full-depth periodized wavelet basis on the grid.

    The cascade runs on vectors: each level filters the previous level's
    first scaling function, so it costs O(n) per level and tap, and W is
    written from the translates of one column per level.  It ends in a
    single scaling column stored as exactly 1/sqrt(n); the metric relies
    on its discrete derivative vanishing exactly to freeze total mass.
    Coarse levels shorter than the filter wrap it modulo the level length,
    which preserves exact orthogonality.  The default order (3 vanishing
    moments) is the smallest at which the combined-metric descent behaves
    well on the 2D benchmarks.  A non-integer or boolean order raises
    ValueError, and so does any `levels` but None, the benchmark's value:
    partial depth was removed.
    """
    if levels is not None:
        raise ValueError(f"partial depth was removed; levels must be None, got {levels!r}")
    lowpass = daubechies_lowpass(order)
    highpass = (-1.0) ** np.arange(len(lowpass)) * lowpass[::-1]
    filters = np.stack([highpass, lowpass])
    n = grid.n
    columns = np.empty((n.bit_length(), n))  # L = log2 n detail levels and the scaling column
    scaling = np.zeros(n)  # first scaling function of the current level
    scaling[0] = 1.0
    m = n  # current level length
    for level in range(len(columns) - 1):
        taps = filters
        if taps.shape[1] > m:  # fold the taps modulo m
            taps = np.pad(taps, ((0, 0), (0, -taps.shape[1] % m))).reshape(2, -1, m).sum(axis=1)
        # rows[q] holds sites q n/m .. (q + 1) n/m - 1, so a shift by k n/m
        # sites is a shift by k rows: each row sums its taps in order, wrap included
        rows = scaling.reshape(m, -1)
        out = np.zeros((2, *rows.shape))
        for k in range(taps.shape[1]):
            shifted = taps[:, k, None, None] * rows
            out[:, k:] += shifted[:, : m - k]
            out[:, :k] += shifted[:, m - k :]
        columns[level], scaling = out.reshape(2, n)
        m //= 2
    columns[-1] = 1.0 / np.sqrt(n)  # exact, unlike the cascade's last scaling function
    return WaveletBasis(grid, columns)


def _check_integer(name: str, value: object, high: int) -> None:
    """Raise ValueError unless value is an int or numpy integer in [1, high]; a bool is not."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not 1 <= value <= high:
        raise ValueError(f"{name} must be an integer in [1, {high}], got {value!r}")


def transform_forward(basis: WaveletBasis, v: np.ndarray) -> np.ndarray:
    """Wavelet analysis: W^T v in 1D, W^T X W on the n x n site array in 2D."""
    v = check_vector(basis.grid, v)
    return tensor_apply([basis.analysis, basis.synthesis][: basis.grid.dim], v)


def transform_inverse(basis: WaveletBasis, c: np.ndarray) -> np.ndarray:
    """Wavelet synthesis: W c in 1D, W C W^T on the n x n coefficient array in 2D."""
    c = check_vector(basis.grid, c)
    return tensor_apply([basis.synthesis, basis.analysis][: basis.grid.dim], c)
