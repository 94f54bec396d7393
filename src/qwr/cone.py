"""Coning: mapping-cone replacement of high-weight Z stabilizers.

Each coned Z row gets an auxiliary three-term complex built from its support
qubits (1-cells), paired incidences with X rows (0-cells), and a cycle basis
of the resulting graph (-1-cells).  The -1-cells come from spanning-tree
fundamental cycles rather than the decongestion construction: at desk scale
any basis gives a correct (if possibly weaker-soundness) reduced cone, and
this choice is recorded in the build metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codes import CapExceeded, CssCode
from .f2la import BinMatrix, bit_indices, kernel_basis, solve, transpose
from .reduce import choose_heights, greedy_heights, thicken


@dataclass(frozen=True)
class ConeComplexPart:
    """Auxiliary complex for one coned Z row.

    one_cells are the original qubits the row acts on; zero_cells are
    (x_row, qubit_a, qubit_b) pairing tuples, with x_row None for cellulation
    chords; minus_one_cells are cycles given as tuples of zero-cell indices.
    """

    parent_z_row: int
    one_cells: tuple[int, ...]
    zero_cells: tuple[tuple[int | None, int, int], ...]
    minus_one_cells: tuple[tuple[int, ...], ...]
    boundary_1: BinMatrix
    boundary_0: BinMatrix

    def one_cell_pos(self, qubit: int) -> int:
        return self.one_cells.index(qubit)

    def zero_cells_at(self, qubit: int) -> list[int]:
        return [t for t, (_, qa, qb) in enumerate(self.zero_cells) if qubit in (qa, qb)]


@dataclass(frozen=True)
class ChainMapF:
    """The chain map from the auxiliary complexes into the original code.

    1-cells map to their original qubit, 0-cells to their X row (chords to
    zero), -1-cells to zero.  The map itself is read off the part tuples;
    this object carries the ambient dimensions and build metadata.
    """

    n: int
    n_x: int
    n_z: int
    skipped_rows: tuple[int, ...] = ()
    cycle_basis: str = "spanning-tree fundamental cycles"

    def validate(self, h_x: BinMatrix, parts: tuple[ConeComplexPart, ...]) -> None:
        """Check f.d_B == d_A.f on every 1-cell, as a matrix identity."""
        cols = transpose(h_x).rows
        for part in parts:
            for qubit in part.one_cells:
                acc = 0
                for t in part.zero_cells_at(qubit):
                    xr = part.zero_cells[t][0]
                    if xr is not None:
                        acc ^= 1 << xr
                if acc != cols[qubit]:
                    raise ValueError(
                        f"chain-map condition fails at qubit {qubit} of part for Z row {part.parent_z_row}"
                    )


def _part_boundaries(one_cells, zero_cells, minus_cells) -> tuple[BinMatrix, BinMatrix]:
    pos = {qb: p for p, qb in enumerate(one_cells)}
    b1 = BinMatrix.from_support(
        [(pos[qa], pos[qb]) for _, qa, qb in zero_cells], len(one_cells)
    )
    b0 = BinMatrix.from_support(minus_cells, len(zero_cells))
    return b1, b0


def _fundamental_cycles(n_vertices: int, edges: list[tuple[int, int]]) -> tuple[list[tuple[int, ...]], int]:
    """Spanning-forest fundamental cycles (as edge-index sets) and component count."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n_vertices)}
    for e, (a, b) in enumerate(edges):
        adj[a].append((b, e))
        adj[b].append((a, e))
    parent_edge: dict[int, tuple[int, int]] = {}
    visited: set[int] = set()
    components = 0
    for root in range(n_vertices):
        if root in visited:
            continue
        components += 1
        stack = [root]
        visited.add(root)
        while stack:
            v = stack.pop()
            for w, e in sorted(adj[v]):
                if w not in visited:
                    visited.add(w)
                    parent_edge[w] = (v, e)
                    stack.append(w)
    tree_edges = {e for _, e in parent_edge.values()}

    def path_to_root(v: int) -> dict[int, None]:
        seen = {}
        while v in parent_edge:
            p, e = parent_edge[v]
            seen[e] = None
            v = p
        return seen

    cycles = []
    for e, (a, b) in enumerate(edges):
        if e in tree_edges:
            continue
        pa, pb = path_to_root(a), path_to_root(b)
        cyc = {e} | (set(pa) ^ set(pb))
        cycles.append(tuple(sorted(cyc)))
    return cycles, components


def consecutive_pairing(incident: list[int]) -> list[tuple[int, int]]:
    """Default pairing rule: ascending qubit order, consecutive pairs."""
    return [(incident[a], incident[a + 1]) for a in range(0, len(incident), 2)]


def build_cone_parts(
    q: CssCode,
    weight_threshold: int = 5,
    on_disconnected: str = "keep",
    pairing=consecutive_pairing,
) -> tuple[tuple[ConeComplexPart, ...], ChainMapF, list[int]]:
    """Build one auxiliary complex per Z row heavier than the threshold.

    `pairing` turns each X row's (even-sized, ascending) incident qubit list
    into tuples; it changes the part's geometry and soundness, so it is an
    explicit strategy.  The -1-cells are the spanning-tree fundamental
    cycles that ChainMapF.cycle_basis names.  Rows whose incidence graph is
    disconnected cannot be coned without changing k; they stay direct
    ('keep', recorded on the chain map) or raise ('error').
    """
    if weight_threshold < 1:
        raise ValueError("weight threshold must be >= 1")
    parts = []
    skipped = []
    retained = []
    for zr in range(q.n_z):
        sup = q.h_z.row_support(zr)
        if len(sup) <= weight_threshold:
            retained.append(zr)
            continue
        sup_mask = q.h_z.rows[zr]
        pos = {qb: p for p, qb in enumerate(sup)}
        zero_cells: list[tuple[int | None, int, int]] = []
        for xr in range(q.n_x):
            inter = sorted(bit_indices(q.h_x.rows[xr] & sup_mask))
            if len(inter) % 2:
                raise ValueError(f"X row {xr} overlaps coned Z row {zr} oddly (non-commuting input)")
            for qa, qb in pairing(inter):
                if qa == qb or qa not in pos or qb not in pos:
                    raise ValueError(f"pairing rule produced a bad tuple for X row {xr}")
                zero_cells.append((xr, qa, qb))
        edges = [(pos[qa], pos[qb]) for _, qa, qb in zero_cells]
        cycles, components = _fundamental_cycles(len(sup), edges)
        if components > 1:
            if on_disconnected == "error":
                raise ValueError(f"coned Z row {zr} has a disconnected incidence graph")
            skipped.append(zr)
            retained.append(zr)
            continue
        b1, b0 = _part_boundaries(sup, zero_cells, cycles)
        parts.append(
            ConeComplexPart(zr, tuple(sup), tuple(zero_cells), tuple(cycles), b1, b0)
        )
    return tuple(parts), ChainMapF(q.n, q.n_x, q.n_z, tuple(skipped)), retained


def cellulate(parts: tuple[ConeComplexPart, ...]) -> tuple[ConeComplexPart, ...]:
    """Split every cycle longer than 4 with chord 0-cells and small -1-cells.

    A length-L cycle becomes a ladder: chords pair vertex j with vertex L-j,
    giving triangle and quad faces, so no vertex gains more than one chord
    per cycle.  Homology is unchanged (the faces XOR back to the cycle and
    no 1-cells are added).
    """
    out = []
    for part in parts:
        zero_cells = list(part.zero_cells)
        minus_cells: list[tuple[int, ...]] = []
        for cyc in part.minus_one_cells:
            if len(cyc) <= 4:
                minus_cells.append(cyc)
                continue
            verts, edges = _walk_cycle(part, cyc)
            length = len(edges)
            n_chords = (length - 2) // 2
            chords = []
            for j in range(1, n_chords + 1):
                qa, qb = sorted((part.one_cells[verts[j]], part.one_cells[verts[length - j]]))
                chords.append(len(zero_cells))
                zero_cells.append((None, qa, qb))
            faces = [tuple(sorted((edges[0], chords[0], edges[length - 1])))]
            for j in range(1, n_chords):
                faces.append(
                    tuple(sorted((chords[j - 1], edges[j], chords[j], edges[length - j - 1])))
                )
            middle = [chords[-1]] + edges[n_chords:length - n_chords]
            faces.append(tuple(sorted(middle)))
            minus_cells.extend(faces)
        b1, b0 = _part_boundaries(part.one_cells, zero_cells, minus_cells)
        out.append(
            ConeComplexPart(
                part.parent_z_row, part.one_cells, tuple(zero_cells), tuple(minus_cells), b1, b0
            )
        )
    return tuple(out)


def _walk_cycle(part: ConeComplexPart, cyc: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Order a simple cycle's edges into a closed walk (vertex positions, edges)."""
    pos = {qb: p for p, qb in enumerate(part.one_cells)}
    incident: dict[int, list[int]] = {}
    for e in cyc:
        _, qa, qb = part.zero_cells[e]
        incident.setdefault(pos[qa], []).append(e)
        incident.setdefault(pos[qb], []).append(e)
    if any(len(es) != 2 for es in incident.values()):
        raise ValueError("cycle support is not a simple closed walk")
    start = min(incident)
    verts = [start]
    edges = []
    prev_edge = None
    v = start
    while True:
        e = next(x for x in sorted(incident[v]) if x != prev_edge)
        edges.append(e)
        _, qa, qb = part.zero_cells[e]
        v = pos[qb] if pos[qa] == v else pos[qa]
        prev_edge = e
        if v == start:
            break
        verts.append(v)
    return verts, edges


class ConeIndex:
    """Row/column numbering of the cone code: originals first, cells appended."""

    def __init__(self, parts: tuple[ConeComplexPart, ...], f: ChainMapF):
        self.parts = parts
        self.f = f
        coned = {p.parent_z_row for p in parts}
        self.retained = [zr for zr in range(f.n_z) if zr not in coned]
        self.retained_pos = {zr: i for i, zr in enumerate(self.retained)}
        self._qubit_base = {}
        self._xrow_base = {}
        self._zrow_base = {}
        q_off, x_off, z_off = f.n, f.n_x, len(self.retained)
        for part in parts:
            self._qubit_base[part.parent_z_row] = q_off
            self._xrow_base[part.parent_z_row] = x_off
            self._zrow_base[part.parent_z_row] = z_off
            q_off += len(part.zero_cells)
            x_off += len(part.minus_one_cells)
            z_off += len(part.one_cells)
        self.n_qubits = q_off
        self.n_x_rows = x_off
        self.n_z_rows = z_off

    def zero_cell_qubit(self, part: ConeComplexPart, t: int) -> int:
        return self._qubit_base[part.parent_z_row] + t

    def one_cell_row(self, part: ConeComplexPart, qubit: int) -> int:
        return self._zrow_base[part.parent_z_row] + part.one_cell_pos(qubit)

    def one_cell_support(self, part: ConeComplexPart, qubit: int) -> list[int]:
        sup = [qubit] + [self.zero_cell_qubit(part, t) for t in part.zero_cells_at(qubit)]
        return sorted(sup)

    def minus_cell_row(self, part: ConeComplexPart, ci: int) -> int:
        return self._xrow_base[part.parent_z_row] + ci

    def minus_cell_support(self, part: ConeComplexPart, ci: int) -> list[int]:
        return sorted(self.zero_cell_qubit(part, t) for t in part.minus_one_cells[ci])

    def x_row_cone_qubits(self, x_row: int) -> list[int]:
        out = []
        for part in self.parts:
            for t, (xr, _, _) in enumerate(part.zero_cells):
                if xr == x_row:
                    out.append(self.zero_cell_qubit(part, t))
        return sorted(out)


def cone_code(q: CssCode, parts: tuple[ConeComplexPart, ...], f: ChainMapF) -> CssCode:
    """Mapping cone of f: coned Z rows replaced by their parts' cell rows."""
    f.validate(q.h_x, parts)
    idx = ConeIndex(parts, f)
    ncols = idx.n_qubits
    x_rows = []
    for r in range(q.n_x):
        v = q.h_x.rows[r]
        for qb in idx.x_row_cone_qubits(r):
            v |= 1 << qb
        x_rows.append(v)
    for part in parts:
        for ci in range(len(part.minus_one_cells)):
            v = 0
            for qb in idx.minus_cell_support(part, ci):
                v |= 1 << qb
            x_rows.append(v)
    z_rows = [q.h_z.rows[zr] for zr in idx.retained]
    for part in parts:
        for qubit in part.one_cells:
            v = 0
            for qb in idx.one_cell_support(part, qubit):
                v |= 1 << qb
            z_rows.append(v)
    return CssCode(BinMatrix(x_rows, ncols), BinMatrix(z_rows, ncols))


def thicken_cone(q_cone: CssCode, length: int, target_w: int = 1) -> CssCode:
    """Thicken the cone code in the dual basis (reducing q_X), then choose
    heights there greedily."""
    code, _, _ = thicken_cone_detail(q_cone, length, target_w)
    return code


def thicken_cone_detail(q_cone: CssCode, length: int, target_w: int = 1):
    """thicken_cone plus the dual BalanceMap and chosen heights (for schedules)."""
    if length < 1:
        raise ValueError("thickening length must be >= 1")
    if length == 1:
        return q_cone, None, None
    dual = q_cone.transposed()
    thick, bm = thicken(dual, length)
    hr = greedy_heights(thick, bm, target_w)
    chosen = choose_heights(thick, bm, hr.heights)
    return chosen.transposed(), bm, hr


def soundness_lambda(parts: tuple[ConeComplexPart, ...], cycle_cap: int = 18) -> Fraction:
    """Exact soundness factor: min over parts and nonzero 0-cycles u of
    |u| / (minimum filling weight), capped at 1.

    Enumerates every u in the cycle space of the part (dimension capped) and
    minimizes each filling over the solution coset exactly.
    """
    best = Fraction(1)
    for part in parts:
        lam = _part_lambda(part, cycle_cap)
        if lam < best:
            best = lam
    return best


def _part_lambda(part: ConeComplexPart, cycle_cap: int) -> Fraction:
    m1, m0 = part.boundary_1, part.boundary_0
    cyc = kernel_basis(m0)
    if cyc.nrows > cycle_cap:
        raise CapExceeded(
            f"part for Z row {part.parent_z_row} has 0-cycle dimension {cyc.nrows} > cap {cycle_cap}"
        )
    filler = kernel_basis(m1)
    if filler.nrows > cycle_cap:
        raise CapExceeded("filling coset dimension exceeds the enumeration cap")
    # fillings are linear in u, so one per basis cycle follows u through the
    # Gray code; each minimum is over that filling plus the span of ker d_1
    fills = [solve(m1, u) for u in cyc.rows]
    if None in fills:
        raise ValueError("0-cycle has no filling; zeroth homology is not trivial")
    span = [0]
    for row in filler.rows:
        span += [w ^ row for w in span]
    best = Fraction(1)
    u = v0 = 0
    for g in range(1, 1 << cyc.nrows):
        i = (g & -g).bit_length() - 1
        u ^= cyc.rows[i]
        v0 ^= fills[i]
        lam = Fraction(u.bit_count(), min(map(int.bit_count, map(v0.__xor__, span))))
        if lam < best:
            best = lam
    return best
