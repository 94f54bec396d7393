"""Hypergraph products and higher-dimensional products of 1-complexes.

The total complex of a tensor product orders each graded piece by
descending degree of the left factor; reduce.balance_x is this product too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .codes import INF, ChainComplex, ClassicalCode, CssCode, classical_distance, css_at_level
from .f2la import BinMatrix, kron, rank, transpose


def one_complex(c: ClassicalCode, dualized: bool = False) -> ChainComplex:
    """Two-term complex of a classical code: d_1 = H, or H^T when dualized."""
    return ChainComplex((transpose(c.h) if dualized else c.h,))


def tensor_complex(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """Total complex of the double complex, no signs over GF(2)."""
    return ChainComplex(tuple(_total_boundary(a, b, total) for total in range(a.length + b.length, 0, -1)))


def product_css(a: ChainComplex, b: ChainComplex, level: int) -> CssCode:
    """complex_to_css(tensor_complex(a, b), level), building only the two
    boundaries the code reads."""
    return css_at_level(a.length + b.length, partial(_total_boundary, a, b), level)


def _total_boundary(a: ChainComplex, b: ChainComplex, total: int) -> BinMatrix:
    """The total complex's map out of degree total.  Block (i, j) of a degree
    maps by d_i x 1 to block (i - 1, j) and by 1 x d_j to block (i, j - 1);
    blocks sit at their offsets by descending i."""

    def offsets(t: int) -> tuple[dict[tuple[int, int], int], int]:
        out, at = {}, 0
        for i in range(min(t, a.length), max(t - b.length, 0) - 1, -1):
            out[(i, t - i)] = at
            at += a.dim(i) * b.dim(t - i)
        return out, at

    (src, ncols), (dst, nrows) = offsets(total), offsets(total - 1)
    rows = [0] * nrows
    for (i, j), col in src.items():
        parts = [(dst[(i - 1, j)], kron(a.boundary(i), BinMatrix.identity(b.dim(j))))] if i else []
        parts += [(dst[(i, j - 1)], kron(BinMatrix.identity(a.dim(i)), b.boundary(j)))] if j else []
        for at, m in parts:
            for r, v in enumerate(m.rows, at):
                rows[r] |= v << col
    return BinMatrix(rows, ncols)


def hgp(c1: ClassicalCode, c2: ClassicalCode) -> CssCode:
    """Hypergraph product of two classical codes (second factor dualized)."""
    return product_css(one_complex(c1), one_complex(c2, dualized=True), 1)


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
            flags = tuple(i + 1 > self.level for i in range(len(self.factors)))
            object.__setattr__(self, "dualized", flags)
        elif len(self.dualized) != len(self.factors):
            raise ValueError("one dualization flag per factor")


@dataclass(frozen=True)
class ProductLayout:
    """Qubit-level block structure of a higher-dimensional product."""

    level: int
    qubit_blocks: tuple[tuple[tuple[int, ...], int], ...]  # (degrees per factor, size)


def higher_dim_hgp(spec: ProductSpec) -> tuple[CssCode, ProductLayout]:
    """Iterated tensor product of 1-complexes, read off at the given level."""
    complexes = [one_complex(c, d) for c, d in zip(spec.factors, spec.dualized)]
    prod = complexes[0]
    for nxt in complexes[1:-1]:
        prod = tensor_complex(prod, nxt)
    code = product_css(prod, complexes[-1], spec.level)
    layout = ProductLayout(spec.level, tuple(_level_blocks(complexes, spec.level)))
    return code, layout


def _level_blocks(complexes, level):
    """Degree tuples (descending-left order) and sizes at one total degree."""

    def rec(idx: int, remaining: int):
        if idx == len(complexes) - 1:
            if remaining <= complexes[idx].length:
                yield (remaining,), complexes[idx].dim(remaining)
            return
        top = min(remaining, complexes[idx].length)
        for d in range(top, -1, -1):
            for tail, size in rec(idx + 1, remaining - d):
                yield (d,) + tail, complexes[idx].dim(d) * size

    return [(degrees, size) for degrees, size in rec(0, level)]


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
