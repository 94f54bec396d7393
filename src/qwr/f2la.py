"""Dense bit-packed linear algebra over GF(2).

Rows are Python ints used as bitsets (bit j of ``rows[i]`` is the entry at
row i, column j), so row operations are single machine-level XORs of
arbitrary-width words.  Elimination keys its pivot rows by pivot bit under
one mask of all pivot columns, so reducing a vector costs one step per pivot
it hits, not a test per pivot.  All functions are pure; matrices are immutable.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class BinMatrix:
    """Binary matrix with bit-packed rows.  0xc and rx0 shapes are valid."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[int], ncols: int):
        if ncols < 0:
            raise ValueError(f"negative column count {ncols}")
        rows = tuple(rows)
        # min and max check every row in C; only a failed check looks for the first bad row
        if rows and (min(rows) < 0 or max(rows) >> ncols):
            bad = next(r for r in rows if r < 0 or r >> ncols)
            raise ValueError("negative row bitset" if bad < 0 else f"row has bits beyond column {ncols}")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], ncols: int | None = None) -> "BinMatrix":
        """Build from an iterable of 0/1 row lists."""
        lists = [list(r) for r in rows]
        if ncols is None:
            if not lists:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(lists[0])
        for r in lists:
            if len(r) != ncols:
                raise ValueError(f"ragged row: expected {ncols} entries, got {len(r)}")
        return cls.from_support([[j for j, bit in enumerate(r) if bit & 1] for r in lists], ncols)

    @classmethod
    def from_support(cls, supports: Iterable[Iterable[int]], ncols: int) -> "BinMatrix":
        """Build from an iterable of column-index lists (0-based)."""
        packed = []
        for sup in supports:
            v = 0
            for j in sup:
                if not 0 <= j < ncols:
                    raise ValueError(f"column index {j} out of range for {ncols} columns")
                v ^= 1 << j
            packed.append(v)
        return cls(packed, ncols)

    @classmethod
    def identity(cls, n: int) -> "BinMatrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BinMatrix":
        return cls([0] * nrows, ncols)

    # -- views --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.ncols)] for r in self.rows]

    def row_support(self, i: int) -> list[int]:
        """Sorted column indices of the ones in row i."""
        return bit_indices(self.rows[i])

    def row_weights(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def col_weights(self) -> list[int]:
        w = [0] * self.ncols
        for r in self.rows:
            for j in bit_indices(r):
                w[j] += 1
        return w

    def max_row_weight(self) -> int:
        return max((r.bit_count() for r in self.rows), default=0)

    def max_col_weight(self) -> int:
        return max(self.col_weights(), default=0)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BinMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        return f"BinMatrix({self.nrows}x{self.ncols})"


def bit_indices(v: int) -> list[int]:
    """The set-bit positions of v, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def parity(v: int) -> int:
    return v.bit_count() & 1


# -- elimination core ------------------------------------------------


class Pivots:
    """Echelon rows keyed by their pivot bit (each row's lowest set bit),
    plus one mask holding every pivot bit."""

    __slots__ = ("rows", "mask")

    def __init__(self, rows: dict[int, int] | None = None, mask: int = 0):
        self.rows = {} if rows is None else rows
        self.mask = mask

    def copy(self) -> "Pivots":
        return Pivots(dict(self.rows), self.mask)

    def items(self) -> list[tuple[int, int]]:
        """(pivot_col, row) pairs sorted by pivot column."""
        return [(low.bit_length() - 1, self.rows[low]) for low in sorted(self.rows)]


def echelon(rows: Iterable[int]) -> Pivots:
    """Forward-eliminate rows into echelon pivots; each surviving row's pivot
    is its lowest nonzero column, so the result is fixed by the input order."""
    pivots = Pivots()
    for v in rows:
        add_pivot(pivots, v)
    return pivots


def add_pivot(pivots: Pivots, v: int) -> int:
    """Reduce v against the pivots and add a nonzero remainder as a new
    pivot row; returns the remainder."""
    v = reduce_vector(v, pivots)
    if v:
        low = v & -v
        pivots.rows[low] = v
        pivots.mask |= low
    return v


def reduce_vector(v: int, pivots: Pivots) -> int:
    """Reduce v against echelon pivot rows; zero iff v is in their span.

    Only the pivots whose bit is set in the running v are applied, lowest
    first: a pivot row has no bit below its pivot, so none is skipped."""
    rows, mask = pivots.rows, pivots.mask
    m = v & mask
    while m:
        low = m & -m
        v ^= rows[low]
        m = v & mask & -(low << 1)
    return v


def rank(a: BinMatrix) -> int:
    """Rank over GF(2); the input is not modified."""
    return len(echelon(a.rows).rows)


def mat_mul(a: BinMatrix, b: BinMatrix) -> BinMatrix:
    """Matrix product over GF(2) (XOR-accumulate)."""
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
    out = []
    for r in a.rows:
        acc = 0
        for j in bit_indices(r):
            acc ^= b.rows[j]
        out.append(acc)
    return BinMatrix(out, b.ncols)


def mat_vec(a: BinMatrix, v: int) -> int:
    """a . v for a bit-vector v over the columns of a; returns a row-bitset."""
    out = 0
    for i, r in enumerate(a.rows):
        if parity(r & v):
            out |= 1 << i
    return out


def transpose(a: BinMatrix) -> BinMatrix:
    cols = [0] * a.ncols
    for i, r in enumerate(a.rows):
        for j in bit_indices(r):
            cols[j] |= 1 << i
    return BinMatrix(cols, a.nrows)


def rref(a: BinMatrix) -> list[tuple[int, int]]:
    """Fully reduced echelon pivots of a, by ascending pivot column; from the
    highest pivot down, each row is reduced by the rows already done."""
    pivots = echelon(a.rows)
    done = Pivots()
    for low in sorted(pivots.rows, reverse=True):
        add_pivot(done, pivots.rows[low])
    return done.items()


def kernel_basis(a: BinMatrix) -> BinMatrix:
    """Basis of the right kernel {v : a.v = 0}, one vector per matrix row.

    Row count is always ncols - rank(a); rows are ordered by their free
    column, which makes the basis reproducible.  Each reduced row sets its
    pivot bit in the vector of every free column it holds.
    """
    vecs = [1 << j for j in range(a.ncols)]
    pivot_mask = 0
    for pc, row in rref(a):
        pivot_mask |= 1 << pc
        for free in bit_indices(row ^ (1 << pc)):
            vecs[free] |= 1 << pc
    return BinMatrix([v for j, v in enumerate(vecs) if not (pivot_mask >> j) & 1], a.ncols)


def solve(a: BinMatrix, b: int) -> int | None:
    """Some solution x of a.x = b over GF(2), or None when inconsistent."""
    if b >> a.nrows:
        raise ValueError("right-hand side has bits beyond the row count")
    # column j carries tag bit nrows + j, so each pivot's tag lists its columns
    pivots = echelon(col | (1 << (a.nrows + j)) for j, col in enumerate(transpose(a).rows))
    r = reduce_vector(b, pivots)
    return None if r & ((1 << a.nrows) - 1) else r >> a.nrows


# -- block composition -----------------------------------------------


def kron(a: BinMatrix, b: BinMatrix) -> BinMatrix:
    """Kronecker product, index (ia*b.nrows + ib, ja*b.ncols + jb)."""
    out = []
    for ra in a.rows:
        shifts = [ja * b.ncols for ja in bit_indices(ra)]
        for rb in b.rows:
            v = 0
            for sh in shifts:
                v |= rb << sh
            out.append(v)
    return BinMatrix(out, a.ncols * b.ncols)


def vstack(a: BinMatrix, b: BinMatrix) -> BinMatrix:
    if a.ncols != b.ncols:
        raise ValueError(f"column mismatch: {a.shape} vs {b.shape}")
    return BinMatrix(list(a.rows) + list(b.rows), a.ncols)
