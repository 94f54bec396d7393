"""Hypergraph products and higher-dimensional products of chain complexes.

One total complex of a sequence of complexes gives every product code (hgp,
higher_dim_hgp, reduce.balance_x/z).  Its degree-t basis is one block per
tuple of factor degrees summing to t, in the order of _blocks: ascending
degree of the last factor, then the same order on the rest.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from math import prod

from .codes import INF, ChainComplex, ClassicalCode, CssCode, classical_distance
from .f2la import BinMatrix, kron, rank, transpose


def one_complex(c: ClassicalCode, dualized: bool = False) -> ChainComplex:
    """Two-term complex of a classical code: d_1 = H, or H^T when dualized."""
    return ChainComplex((transpose(c.h) if dualized else c.h,))


def tensor_complex(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """Total complex of the double complex of a and b."""
    return ChainComplex(tuple(_total_boundary((a, b), total) for total in range(a.length + b.length, 0, -1)))


def product_css(complexes: Sequence[ChainComplex], level: int) -> CssCode:
    """The CSS code of the complexes' total complex at the given homology
    level: h_x = d_level and h_z = d_{level+1}^T, building only those two maps."""
    length = sum(c.length for c in complexes)
    if not 1 <= level <= length - 1:
        raise ValueError(f"level must be in 1..{length - 1}, got {level}")
    return CssCode(_total_boundary(complexes, level), transpose(_total_boundary(complexes, level + 1)))


def _blocks(complexes: Sequence[ChainComplex], total: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(degree per factor, size) of each block of degree total, in basis
    order: ascending degree of the last factor, then this order on the rest.
    A block's basis is the Kronecker product of the factors' bases."""
    *rest, last = complexes
    for d in range(max(0, total - sum(c.length for c in rest)), min(total, last.length) + 1):
        for degrees, size in _blocks(rest, total - d) if rest else [((), 1)]:
            yield degrees + (d,), size * last.dim(d)


def _total_boundary(complexes: Sequence[ChainComplex], total: int) -> BinMatrix:
    """The total complex's map out of degree total.  Factor j of a block maps
    by 1 x d_j x 1 to the block one degree lower in j: kron(d_j, 1) on the
    factors from j on, copied once per index of the factors left of j."""
    dst, nrows = {}, 0
    for degrees, size in _blocks(complexes, total - 1):
        dst[degrees], nrows = nrows, nrows + size
    rows, col = [0] * nrows, 0
    for degrees, size in _blocks(complexes, total):
        dims = [c.dim(d) for c, d in zip(complexes, degrees)]
        for j, d in enumerate(degrees):
            if not d:
                continue
            m = kron(complexes[j].boundary(d), BinMatrix.identity(prod(dims[j + 1:])))
            at = dst[degrees[:j] + (d - 1,) + degrees[j + 1:]]
            for left in range(prod(dims[:j])):
                for r, v in enumerate(m.rows, at + left * m.nrows):
                    rows[r] |= v << (col + left * m.ncols)
        col += size
    return BinMatrix(rows, col)


def hgp(c1: ClassicalCode, c2: ClassicalCode) -> CssCode:
    """Hypergraph product of two classical codes (second factor dualized)."""
    return product_css((one_complex(c1), one_complex(c2, dualized=True)), 1)


@dataclass(frozen=True)
class ProductSpec:
    """D classical factors, per-factor dualization flags, homology level."""

    factors: tuple[ClassicalCode, ...]
    level: int
    dualized: tuple[bool, ...] = field(default=())

    def __post_init__(self):
        if not 1 <= self.level <= len(self.factors) - 1:
            raise ValueError(f"level must be in 1..{len(self.factors) - 1}")
        if not self.dualized:
            object.__setattr__(self, "dualized", tuple(i >= self.level for i in range(len(self.factors))))
        elif len(self.dualized) != len(self.factors):
            raise ValueError("one dualization flag per factor")


@dataclass(frozen=True)
class ProductLayout:
    """Qubit-level block structure of a higher-dimensional product."""

    level: int
    qubit_blocks: tuple[tuple[tuple[int, ...], int], ...]  # (degrees per factor, size)


def higher_dim_hgp(spec: ProductSpec) -> tuple[CssCode, ProductLayout]:
    """The total complex of the factors' 1-complexes, read off at the given level."""
    complexes = [one_complex(c, d) for c, d in zip(spec.factors, spec.dualized)]
    return product_css(complexes, spec.level), ProductLayout(spec.level, tuple(_blocks(complexes, spec.level)))


@dataclass(frozen=True)
class DistancePrediction:
    d_x: int | float
    d_z: int | float
    exact: bool


def kunneth_distance_predictor(spec: ProductSpec) -> DistancePrediction:
    """Fold the product-distance recursion over the factors, left to right.

    Maintains homology and cohomology distances of the growing product per
    level, updating both through each 1-complex factor with the infinite
    convention (a trivial group has distance inf).  The values are exact
    when every factor check matrix has full row rank.
    """
    exact = all(c.full_row_rank for c in spec.factors)
    d_hom, d_coh = _one_complex_distances(spec.factors[0], spec.dualized[0])
    for c, dual in zip(spec.factors[1:], spec.dualized[1:]):
        b_hom, b_coh = _one_complex_distances(c, dual)
        d_hom, d_coh = _kunneth_step(d_hom, b_hom), _kunneth_step(d_coh, b_coh)
    return DistancePrediction(d_coh[spec.level], d_hom[spec.level], exact)


def _kunneth_step(d: list, b: list) -> list:
    """Per-level distances after one more 1-complex factor with distances b:
    level j is min(d[j-1] * b[1], d[j] * b[0]), with inf past d's ends."""
    padded = [INF, *d, INF]
    return [min(padded[j] * b[1], padded[j + 1] * b[0]) for j in range(len(d) + 1)]


def _one_complex_distances(c: ClassicalCode, dualized: bool):
    """([d_0, d_1], [d^0, d^1]) of the code's 1-complex."""
    m = transpose(c.h) if dualized else c.h
    d1 = classical_distance(ClassicalCode(m))
    d0 = _min_weight_off_rowspace(transpose(m))
    c0 = classical_distance(ClassicalCode(transpose(m)))
    c1 = _min_weight_off_rowspace(m)
    return [d0, d1], [c0, c1]


def _min_weight_off_rowspace(m: BinMatrix) -> int | float:
    """Min weight of a vector outside the row space: 1 unless it is everything."""
    return INF if rank(m) == m.ncols else 1
