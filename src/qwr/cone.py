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
from typing import ClassVar

from .codes import MITM_PROBE_FACTOR, MITM_TABLE_CAP, CapExceeded, CssCode, _span
from .f2la import BinMatrix, bit_indices, kernel_basis, solve, transpose
from .reduce import choose_heights, greedy_heights, thicken


@dataclass(frozen=True)
class ConeComplexPart:
    """Auxiliary complex for one coned Z row.

    one_cells are the original qubits the row acts on; zero_cells are
    (x_row, qubit_a, qubit_b) pairing tuples, with x_row None for cellulation
    chords; minus_one_cells are cycles given as tuples of zero-cell indices.
    Its boundary maps are _part_boundaries(part).
    """

    parent_z_row: int
    one_cells: tuple[int, ...]
    zero_cells: tuple[tuple[int | None, int, int], ...]
    minus_one_cells: tuple[tuple[int, ...], ...]


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
    cycle_basis: ClassVar[str] = "spanning-tree fundamental cycles"

    def validate(self, h_x: BinMatrix, parts: tuple[ConeComplexPart, ...]) -> None:
        """Check f.d_B == d_A.f on every 1-cell, as a matrix identity."""
        cols = transpose(h_x).rows
        for part in parts:
            acc = dict.fromkeys(part.one_cells, 0)
            for xr, qa, qb in part.zero_cells:
                if xr is not None:
                    acc[qa] ^= 1 << xr
                    acc[qb] ^= 1 << xr
            for qubit, v in acc.items():
                if v != cols[qubit]:
                    raise ValueError(
                        f"chain-map condition fails at qubit {qubit} of part for Z row {part.parent_z_row}"
                    )


def _part_boundaries(part: ConeComplexPart) -> tuple[BinMatrix, BinMatrix]:
    """(d_1, d_0) of a part: 0-cells x 1-cells, then -1-cells x 0-cells."""
    pos = {qb: p for p, qb in enumerate(part.one_cells)}
    b1 = BinMatrix.from_support(
        [(pos[qa], pos[qb]) for _, qa, qb in part.zero_cells], len(part.one_cells)
    )
    b0 = BinMatrix.from_support(part.minus_one_cells, len(part.zero_cells))
    return b1, b0


def _fundamental_cycles(n_vertices: int, edges: list[tuple[int, int]]) -> tuple[list[tuple[int, ...]], int]:
    """Spanning-forest fundamental cycles (as edge-index sets) and component
    count: each vertex keeps its tree path to the root as an edge-index mask,
    and a non-tree edge e = (a, b) closes the cycle e + path[a] ^ path[b]."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n_vertices)}
    for e, (a, b) in enumerate(edges):
        adj[a].append((b, e))
        adj[b].append((a, e))
    path: dict[int, int] = {}
    tree = components = 0
    for root in range(n_vertices):
        if root in path:
            continue
        components += 1
        stack = [root]
        path[root] = 0
        while stack:
            v = stack.pop()
            for w, e in sorted(adj[v]):
                if w not in path:
                    path[w] = path[v] | 1 << e
                    tree |= 1 << e
                    stack.append(w)
    cycles = [tuple(bit_indices(1 << e | path[a] ^ path[b]))
              for e, (a, b) in enumerate(edges) if not tree >> e & 1]
    return cycles, components


def build_cone_parts(
    q: CssCode, weight_threshold: int = 5
) -> tuple[tuple[ConeComplexPart, ...], ChainMapF, list[int]]:
    """Build one auxiliary complex per Z row heavier than the threshold.

    Each X row's (even-sized, ascending) incident qubit list is paired
    consecutively into 0-cells.  The -1-cells are the spanning-tree
    fundamental cycles that ChainMapF.cycle_basis names.  Rows whose
    incidence graph is disconnected cannot be coned without changing k;
    they stay direct, and the chain map records them as skipped.
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
            inter = bit_indices(q.h_x.rows[xr] & sup_mask)
            if len(inter) % 2:
                raise ValueError(f"X row {xr} overlaps coned Z row {zr} oddly (non-commuting input)")
            zero_cells += [(xr, inter[a], inter[a + 1]) for a in range(0, len(inter), 2)]
        edges = [(pos[qa], pos[qb]) for _, qa, qb in zero_cells]
        cycles, components = _fundamental_cycles(len(sup), edges)
        if components > 1:
            skipped.append(zr)
            retained.append(zr)
            continue
        parts.append(ConeComplexPart(zr, tuple(sup), tuple(zero_cells), tuple(cycles)))
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
        out.append(ConeComplexPart(part.parent_z_row, part.one_cells, tuple(zero_cells), tuple(minus_cells)))
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
    # leave the least vertex by its lower edge, then each vertex by the other of its two edges
    start = min(incident)
    verts, edges = [start], [min(incident[start])]
    while True:
        _, qa, qb = part.zero_cells[edges[-1]]
        v = pos[qb] if pos[qa] == verts[-1] else pos[qa]
        if v == start:
            return verts, edges
        verts.append(v)
        a, b = incident[v]
        edges.append(b if a == edges[-1] else a)


class ConeIndex:
    """Numbering of the cone code, built in one pass over the parts: original
    rows and columns first, then each part's cells appended in part order
    (0-cells as qubits, -1-cells as X rows, 1-cells as Z rows)."""

    def __init__(self, parts: tuple[ConeComplexPart, ...], f: ChainMapF):
        coned = {p.parent_z_row for p in parts}
        self.retained = [zr for zr in range(f.n_z) if zr not in coned]
        self.retained_pos = {zr: i for i, zr in enumerate(self.retained)}
        #: original X row -> the cone qubits it gains, ascending (chords go nowhere)
        self.x_extra: dict[int, list[int]] = {}
        #: coned Z row -> {qubit: (Z row, support)} of its 1-cells, in one_cells order
        self.z_cells: dict[int, dict[int, tuple[int, tuple[int, ...]]]] = {}
        #: (X row, support) of every -1-cell, in part order
        self.x_cells: list[tuple[int, tuple[int, ...]]] = []
        n_qubits, z_row = f.n, len(self.retained)
        for part in parts:
            support = {qubit: [qubit] for qubit in part.one_cells}
            for t, (xr, qa, qb) in enumerate(part.zero_cells, start=n_qubits):
                if xr is not None:
                    self.x_extra.setdefault(xr, []).append(t)
                support[qa].append(t)
                support[qb].append(t)
            self.z_cells[part.parent_z_row] = {
                qubit: (z_row + p, tuple(support[qubit])) for p, qubit in enumerate(part.one_cells)
            }
            z_row += len(part.one_cells)
            for cyc in part.minus_one_cells:
                self.x_cells.append((f.n_x + len(self.x_cells), tuple(sorted(n_qubits + t for t in cyc))))
            n_qubits += len(part.zero_cells)
        self.n_qubits = n_qubits


def cone_code(q: CssCode, parts: tuple[ConeComplexPart, ...], f: ChainMapF) -> CssCode:
    """Mapping cone of f: coned Z rows replaced by their parts' cell rows."""
    f.validate(q.h_x, parts)
    idx = ConeIndex(parts, f)
    bits = lambda support: sum(1 << qb for qb in support)
    x_rows = [v | bits(idx.x_extra.get(r, ())) for r, v in enumerate(q.h_x.rows)]
    x_rows += [bits(support) for _, support in idx.x_cells]
    z_rows = [q.h_z.rows[zr] for zr in idx.retained]
    z_rows += [bits(support) for cells in idx.z_cells.values() for _, support in cells.values()]
    return CssCode(BinMatrix(x_rows, idx.n_qubits), BinMatrix(z_rows, idx.n_qubits))


def thicken_cone(q_cone: CssCode, length: int) -> CssCode:
    """Thicken the cone code in the dual basis (reducing q_X), then choose
    heights there greedily at load 1."""
    code, _, _ = thicken_cone_detail(q_cone, length)
    return code


def thicken_cone_detail(q_cone: CssCode, length: int):
    """thicken_cone plus the dual BalanceMap and chosen heights (for schedules)."""
    if length < 1:
        raise ValueError("thickening length must be >= 1")
    if length == 1:
        return q_cone, None, None
    dual = q_cone.transposed()
    thick, bm = thicken(dual, length)
    hr = greedy_heights(thick, bm, 1)
    chosen = choose_heights(thick, bm, hr.heights)
    return chosen.transposed(), bm, hr


def soundness_lambda(parts: tuple[ConeComplexPart, ...]) -> Fraction:
    """Exact soundness factor: min over parts and nonzero 0-cycles u of
    |u| / (minimum filling weight), capped at 1.

    Enumerates every u in the cycle space of the part and minimizes each
    filling over the solution coset exactly, within the search budget of
    codes.MITM_TABLE_CAP: a part whose filling span (2^f vectors, held as a
    table) exceeds MITM_TABLE_CAP, or whose 2^c cycles times 2^f fillings
    exceed MITM_PROBE_FACTOR times it, raises CapExceeded.
    """
    best = Fraction(1)
    for part in parts:
        lam = _part_lambda(part)
        if lam < best:
            best = lam
    return best


def _part_lambda(part: ConeComplexPart) -> Fraction:
    m1, m0 = _part_boundaries(part)
    cyc, filler = kernel_basis(m0), kernel_basis(m1)
    c, f = cyc.nrows, filler.nrows
    where = f"part for Z row {part.parent_z_row}"
    if 1 << f > MITM_TABLE_CAP:
        raise CapExceeded(f"{where}: the 2^{f} fillings exceed table_cap {MITM_TABLE_CAP}")
    walk_cap = MITM_PROBE_FACTOR * MITM_TABLE_CAP
    if 1 << (c + f) > walk_cap:
        raise CapExceeded(f"{where}: 2^{c} cycles x 2^{f} fillings exceed the walk cap {walk_cap}")
    # fillings are linear in u, so one per basis cycle follows u through the
    # Gray code; each minimum is over that filling plus the span of ker d_1
    fills = [solve(m1, u) for u in cyc.rows]
    if None in fills:
        raise ValueError("0-cycle has no filling; zeroth homology is not trivial")
    span = _span(filler.rows)
    best = Fraction(1)
    u = v0 = 0
    for g in range(1, 1 << c):
        i = (g & -g).bit_length() - 1
        u ^= cyc.rows[i]
        v0 ^= fills[i]
        lam = Fraction(u.bit_count(), min(map(int.bit_count, map(v0.__xor__, span))))
        if lam < best:
            best = lam
    return best
