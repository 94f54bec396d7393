"""Copying, gauging, thickening, choosing heights, and distance balancing.

Every transform returns the new code together with a provenance map tying
new qubits and stabilizers back to the old ones; the schedule constructors
need those maps.  Column/row order is always: original indices first, new
indices appended in generation order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .codes import ClassicalCode, CssCode, css_to_complex, repetition_code
from .f2la import BinMatrix
from .hgp import one_complex, product_css


@dataclass(frozen=True)
class CopyMap:
    """Provenance of copy_code: copy layout, row assignments, gluing checks."""

    q_x: int
    assigned_copy: dict[tuple[int, int], int]
    glue_rows: tuple[tuple[int, int, int], ...]  # (new X row, qubit, copy j)

    def new_qubit(self, qubit: int, copy: int) -> int:
        return qubit * self.q_x + copy


def copy_code(q: CssCode) -> tuple[CssCode, CopyMap]:
    """Concatenate every qubit with a [q_X, 1, q_X] repetition code.

    Each X row's support on qubit i moves to one of the q_X copies of i
    (greedy lowest free copy, rows processed top-down); q_X - 1 gluing X
    checks per qubit link the copies, and every Z row is replicated across
    all copies.
    """
    q_x = q.q_x
    if q_x < 1:
        raise ValueError("copy_code needs q_X >= 1 (some qubit in an X check)")
    n = q.n
    claimed = [0] * n  # copies of each qubit taken so far: the lowest free one is next
    assigned: dict[tuple[int, int], int] = {}
    x_rows = []
    for r in range(q.n_x):
        v = 0
        for i in q.h_x.row_support(r):
            j = claimed[i]
            claimed[i] += 1
            assigned[(r, i)] = j
            v |= 1 << (i * q_x + j)
        x_rows.append(v)
    glue = []
    for i in range(n):
        for j in range(q_x - 1):
            glue.append((len(x_rows), i, j))
            x_rows.append((1 << (i * q_x + j)) | (1 << (i * q_x + j + 1)))
    group_mask = (1 << q_x) - 1
    z_rows = []
    for r in range(q.n_z):
        v = 0
        for i in q.h_z.row_support(r):
            v |= group_mask << (i * q_x)
        z_rows.append(v)
    code = CssCode(BinMatrix(x_rows, n * q_x), BinMatrix(z_rows, n * q_x))
    return code, CopyMap(q_x, assigned, tuple(glue))


@dataclass(frozen=True)
class GaugeMap:
    """Provenance of gauge_code: the rows each X row splits into, the chain
    qubits each Z row gains, and the new X check matrix.  Chain qubit i of a
    split row is the one bit its rows i and i + 1 share."""

    split_rows: dict[int, tuple[int, ...]]
    z_patch: dict[int, tuple[int, ...]]
    h_x_out: BinMatrix


def gauge_code(q: CssCode) -> tuple[CssCode, GaugeMap]:
    """Split every X row of weight > 3 into a chain of weight <= 3 rows.

    A weight-w row becomes w rows over w-1 new qubits, linked repetition-code
    style with support qubits taken in ascending column order.  Z rows are
    repaired by the prefix rule: the i-th chain qubit is toggled into a Z row
    exactly when the row overlaps the first i original support qubits oddly.
    """
    next_col = q.n
    x_rows: list[int] = []
    split_rows: dict[int, tuple[int, ...]] = {}
    new_qubits: dict[int, tuple[int, ...]] = {}
    for r in range(q.n_x):
        sup = q.h_x.row_support(r)
        w = len(sup)
        if w <= 3:
            split_rows[r] = (len(x_rows),)
            x_rows.append(q.h_x.rows[r])
            continue
        cols = tuple(range(next_col, next_col + w - 1))
        next_col += w - 1
        new_qubits[r] = cols
        first = len(x_rows)
        x_rows.append((1 << sup[0]) | (1 << cols[0]))
        for i in range(1, w - 1):
            x_rows.append((1 << cols[i - 1]) | (1 << sup[i]) | (1 << cols[i]))
        x_rows.append((1 << cols[w - 2]) | (1 << sup[w - 1]))
        split_rows[r] = tuple(range(first, len(x_rows)))
    z_rows: list[int] = []
    z_patch: dict[int, tuple[int, ...]] = {}
    split = [(q.h_x.row_support(r), cols) for r, cols in new_qubits.items()]
    for zr in range(q.n_z):
        zv = q.h_z.rows[zr]
        patch = []
        for sup, cols in split:
            running = 0
            for i in range(1, len(sup)):
                running ^= (zv >> sup[i - 1]) & 1
                if running:
                    patch.append(cols[i - 1])
        for c in patch:
            zv |= 1 << c
        z_rows.append(zv)
        if patch:
            z_patch[zr] = tuple(sorted(patch))
    h_x_out = BinMatrix(x_rows, next_col)
    code = CssCode(h_x_out, BinMatrix(z_rows, next_col))
    return code, GaugeMap(split_rows, z_patch, h_x_out)


@dataclass(frozen=True)
class BalanceMap:
    """Region layout of the generalized thickened code.

    Region A holds the n x n_c grid of code copies, region B the
    n_X x (n_c - k_c) grid; Z rows split into the Z[T] and Z[B] partitions.
    A map with dual=True describes the transposed construction (balance_z).
    """

    n: int
    n_x: int
    n_z: int
    n_c: int
    k_c: int
    h_c: BinMatrix
    h_x_pre: BinMatrix
    h_z_pre: BinMatrix
    dual: bool = False

    @property
    def n_checks(self) -> int:
        return self.n_c - self.k_c

    @property
    def n_a(self) -> int:
        return self.n * self.n_c

    @property
    def n_zt(self) -> int:
        return self.n_z * self.n_c

    @property
    def n_zb(self) -> int:
        return self.n * self.n_checks

    def a_qubit(self, qubit: int, col: int) -> int:
        return qubit * self.n_c + col

    def b_qubit(self, x_row: int, check: int) -> int:
        return self.n_a + x_row * self.n_checks + check

    def x_row(self, row: int, col: int) -> int:
        return row * self.n_c + col

    def zt_row(self, row: int, col: int) -> int:
        return row * self.n_c + col

    def zb_row(self, qubit: int, check: int) -> int:
        return self.n_zt + qubit * self.n_checks + check

    def primal(self) -> "BalanceMap":
        return replace(self, dual=False)


def balance_x(q: CssCode, c: ClassicalCode) -> tuple[CssCode, BalanceMap]:
    """Generalized thickening: the code's complex tensored (as in hgp) with
    the classical code's dualized 1-complex, read at level 1.

    Multiplies the X distance by the classical distance and k by k_c.  The
    classical check matrix must have full row rank (the construction needs
    its first cohomology to vanish).
    """
    if not c.full_row_rank:
        raise ValueError("classical check matrix must have full row rank")
    code = product_css(css_to_complex(q), one_complex(c, dualized=True), 1)
    return code, BalanceMap(q.n, q.n_x, q.n_z, c.n, c.k, c.h, q.h_x, q.h_z)


def balance_z(q: CssCode, c: ClassicalCode) -> tuple[CssCode, BalanceMap]:
    """Dual balancing: multiplies the Z distance instead of the X distance."""
    code, bm = balance_x(q.transposed(), c)
    return code.transposed(), replace(bm, dual=True)


def thicken(q: CssCode, length: int) -> tuple[CssCode, BalanceMap]:
    """Thickening: balance_x with the [length, 1, length] repetition code."""
    if length < 1:
        raise ValueError("thickening length must be >= 1")
    return balance_x(q, repetition_code(length))


def _require_repetition(bm: BalanceMap) -> None:
    rep = repetition_code(bm.n_c).h
    if bm.k_c != 1 or bm.h_c != rep:
        raise ValueError("choosing heights requires a thickened code (repetition factor)")


def kept_z_rows(bm: BalanceMap, heights: list[int]) -> list[int]:
    """Thickened-code Z row indices that survive choosing the given heights."""
    if len(heights) != bm.n_z:
        raise ValueError(f"need one height per original Z row ({bm.n_z}), got {len(heights)}")
    for h in heights:
        if not 1 <= h <= bm.n_c:
            raise ValueError(f"height {h} out of range 1..{bm.n_c}")
    kept = [bm.zt_row(i, h - 1) for i, h in enumerate(heights)]
    kept += list(range(bm.n_zt, bm.n_zt + bm.n_zb))
    return sorted(kept)


def choose_heights(q_thick: CssCode, bm: BalanceMap, heights: list[int]) -> CssCode:
    """Keep one Z[T] copy of each original Z row; Z[B] rows stay untouched."""
    _require_repetition(bm)
    keep = kept_z_rows(bm, heights)
    hz = BinMatrix([q_thick.h_z.rows[r] for r in keep], q_thick.h_z.ncols)
    return CssCode(q_thick.h_x, hz)


@dataclass(frozen=True)
class HeightsResult:
    heights: list[int]
    achieved_max: int


def greedy_heights(q_thick: CssCode, bm: BalanceMap, target_w: int) -> HeightsResult:
    """Pick heights greedily to spread retained Z[T] rows across region A.

    Rows are processed in order; each takes the height minimizing the worst
    per-qubit count over its support, lowest height winning ties.  The
    target (>= 1) does not steer the choice; achieved_max reports the load
    reached, above the target or not.
    """
    if target_w < 1:
        raise ValueError("target weight must be >= 1")
    _require_repetition(bm)
    ell = bm.n_c
    counts = [[0] * ell for _ in range(bm.n)]
    heights = []
    for zr in range(bm.n_z):
        sup = bm.h_z_pre.row_support(zr)
        best_h, best_cost = 1, None
        for h in range(1, ell + 1):
            cost = max((counts[qb][h - 1] + 1 for qb in sup), default=0)
            if best_cost is None or cost < best_cost:
                best_h, best_cost = h, cost
        heights.append(best_h)
        for qb in sup:
            counts[qb][best_h - 1] += 1
    achieved = max((c for row in counts for c in row), default=0)
    return HeightsResult(heights, achieved)
