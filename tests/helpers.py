"""Shared test fixtures: seeded code corpora and independent oracles."""

from __future__ import annotations

import random
from bisect import insort
from fractions import Fraction
from itertools import combinations

from qwr.codes import INF, ChainComplex, ClassicalCode, CssCode
from qwr.cone import _part_boundaries
from qwr.f2la import (
    BinMatrix,
    Pivots,
    add_pivot,
    echelon,
    kernel_basis,
    kron,
    mat_mul,
    mat_vec,
    rank,
    reduce_vector,
    transpose,
    vstack,
)
from qwr.faultdist import FaultGenerator, HookAuditReport
from qwr.hgp import DistancePrediction, _one_complex_distances, hgp
from qwr.schedule import Schedule, Step, dual_schedule


def random_classical(rng: random.Random, n_min=3, n_max=6) -> ClassicalCode:
    """Random full-row-rank check matrix with r < n."""
    while True:
        n = rng.randrange(n_min, n_max + 1)
        r = rng.randrange(1, n)
        rows = [rng.randrange(1, 1 << n) for _ in range(r)]
        h = BinMatrix(rows, n)
        if rank(h) == r:
            return ClassicalCode(h)


def random_css(rng: random.Random, n_min=4, n_max=12) -> CssCode:
    """Random CSS pair: random Z checks, X checks drawn from their kernel."""
    while True:
        n = rng.randrange(n_min, n_max + 1)
        r_z = rng.randrange(1, max(2, n // 2) + 1)
        hz = BinMatrix([rng.randrange(1, 1 << n) for _ in range(r_z)], n)
        ker = kernel_basis(hz)
        if ker.nrows == 0:
            continue
        r_x = rng.randrange(1, ker.nrows + 1)
        rows = []
        for _ in range(r_x):
            v = 0
            while v == 0:
                v = 0
                for kr in ker.rows:
                    if rng.random() < 0.5:
                        v ^= kr
            rows.append(v)
        return CssCode(BinMatrix(rows, n), hz)


def random_hgp(rng: random.Random, n_max=5) -> CssCode:
    return hgp(random_classical(rng, 3, n_max), random_classical(rng, 3, n_max))


def corpus(seed: int, count: int, n_max=12) -> list[CssCode]:
    """Deterministic mixed corpus: kernel-method and HGP instances."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 5 == 4:
            out.append(random_hgp(rng))
        else:
            out.append(random_css(rng, n_max=n_max))
    return out


def assert_copy_lemma(q, qc, cm):
    """Every count in the copied-code parameter list, plus structure checks."""
    q_x = q.q_x
    assert qc.n == q_x * q.n
    assert qc.k == q.k
    assert qc.n_x == q.n_x + (q_x - 1) * q.n
    assert qc.n_z == q.n_z
    assert qc.q_x == min(q_x, 3)
    assert qc.w_z == q_x * q.w_z
    assert qc.q_z == q.q_z
    # gluing checks have weight 2, so the row-weight equality needs w_X >= 2
    if q.w_x >= 2 or q_x == 1:
        assert qc.w_x == q.w_x
    else:
        assert qc.w_x == max(q.w_x, 2)
    for i in range(q.n):
        copies = [j for (r, qb), j in cm.assigned_copy.items() if qb == i]
        assert len(copies) == len(set(copies))
    glue_per_qubit = {}
    for _, i, _ in cm.glue_rows:
        glue_per_qubit[i] = glue_per_qubit.get(i, 0) + 1
    for i in range(q.n):
        assert glue_per_qubit.get(i, 0) == q_x - 1


def assert_gauge_lemma(q, qg, gm):
    """Refined copied-and-gauged parameter list (per-row split counts)."""
    assert qg.k == q.k
    assert qg.w_x == min(q.w_x, 3)
    split = [r for r, rows in gm.split_rows.items() if len(rows) > 1]
    chains = gauge_chain_qubits(gm)
    extra_qubits = sum(len(cols) for cols in chains.values())
    assert qg.n == q.n + extra_qubits
    assert qg.n_x == q.n_x + sum(len(q.h_x.row_support(r)) - 1 for r in split)
    assert qg.n_z == q.n_z
    assert qg.w_z <= q.w_z * max(q.q_x, 1) * (q.w_x + 1) + q.w_z
    assert qg.q_z <= max(q.q_z * max(q.w_x, 1), q.q_z)
    # splitting preserves column weights on original qubits; new columns have
    # weight 2, so q_X never rises past max(q_X, 2)
    assert qg.q_x == (q.q_x if not split else max(q.q_x, 2))
    for r, rows in gm.split_rows.items():
        acc = 0
        for nr in rows:
            acc ^= qg.h_x.rows[nr]
        mask = (1 << q.n) - 1
        assert acc & mask == q.h_x.rows[r]
        if len(rows) > 1:
            for col in chains[r]:
                count = sum((qg.h_x.rows[nr] >> col) & 1 for nr in rows)
                assert count == 2


def assert_thicken_lemma(q, qt, ell):
    assert qt.n == ell * q.n + q.n_x * (ell - 1)
    assert qt.k == q.k
    assert qt.n_x == ell * q.n_x
    assert qt.n_z == q.n_z * ell + (ell - 1) * q.n
    if q.n_x and ell >= 2:
        assert qt.w_x == q.w_x + (2 if ell >= 3 else 1)
        assert qt.q_x == max(q.q_x, 2)
    if ell >= 2 and q.n >= 1:
        assert qt.w_z == max(q.w_z, q.q_x + 2)


def hstack(a: BinMatrix, b: BinMatrix) -> BinMatrix:
    if a.nrows != b.nrows:
        raise ValueError(f"row mismatch: {a.shape} vs {b.shape}")
    return BinMatrix(
        [ra | (rb << a.ncols) for ra, rb in zip(a.rows, b.rows)], a.ncols + b.ncols
    )


def block_matrix(grid) -> BinMatrix:
    """Assemble a matrix from a rectangular grid of blocks."""
    stripes = []
    for row_blocks in grid:
        stripe = row_blocks[0]
        for blk in row_blocks[1:]:
            stripe = hstack(stripe, blk)
        stripes.append(stripe)
    out = stripes[0]
    for stripe in stripes[1:]:
        out = vstack(out, stripe)
    return out


def reference_balance_x(q: CssCode, c: ClassicalCode) -> CssCode:
    """The balanced code assembled block by block from Kronecker products,
    kept as the reference that reduce.balance_x must reproduce bit for bit.

    Qubits: region A (n x n_c) then region B (n_x x checks); Z rows: the
    Z[T] copies then the Z[B] rows.
    """
    n_c = c.n
    n_chk = c.h.nrows
    hx = hstack(kron(q.h_x, BinMatrix.identity(n_c)), kron(BinMatrix.identity(q.n_x), transpose(c.h)))
    hz = block_matrix(
        [
            [kron(q.h_z, BinMatrix.identity(n_c)), BinMatrix.zeros(q.n_z * n_c, q.n_x * n_chk)],
            [kron(BinMatrix.identity(q.n), c.h), kron(transpose(q.h_x), BinMatrix.identity(n_chk))],
        ]
    )
    return CssCode(hx, hz)


def soundness_lambda_bruteforce(parts) -> Fraction:
    """Independent soundness enumerator: scans all fillings v instead of
    solving per-cycle systems."""
    best = Fraction(1)
    for part in parts:
        m1, m0 = _part_boundaries(part)
        n_v = m1.ncols
        best_fill: dict[int, int] = {}
        for vbits in range(1 << n_v):
            u = mat_vec(m1, vbits)
            w = vbits.bit_count()
            if u not in best_fill or w < best_fill[u]:
                best_fill[u] = w
        for u, fill in best_fill.items():
            if u == 0 or mat_vec(m0, u) != 0:
                continue
            lam = Fraction(u.bit_count(), fill)
            if lam < best:
                best = lam
    return best


# The original per-level meet-in-the-middle search, kept verbatim as the
# reference that codes.min_logical_search must reproduce witness for witness.
def _mitm_witness(sigs: list[int], pair_mask: int, t_small: int, t_big: int):
    """Indices of a logical-forming split, or None.  Lex-first deterministic."""
    n = len(sigs)
    table: dict[int, dict[int, tuple[int, ...]]] = {}
    for subset in combinations(range(n), t_small):
        sig = 0
        for i in subset:
            sig ^= sigs[i]
        syn = sig & ~pair_mask
        pair = sig & pair_mask
        bucket = table.setdefault(syn, {})
        if pair not in bucket:
            bucket[pair] = subset
    for subset in combinations(range(n), t_big):
        sig = 0
        for i in subset:
            sig ^= sigs[i]
        syn = sig & ~pair_mask
        pair = sig & pair_mask
        bucket = table.get(syn)
        if not bucket:
            continue
        matches = [other for p, other in bucket.items() if p != pair]
        if matches:
            other = min(matches)
            return set(subset) | set(other)
    return None


def reference_min_logical(sigs: list[int], k: int, max_t: int):
    """(distance, sorted witness indices) by the original level loop."""
    for t in range(1, max_t + 1):
        hit = _mitm_witness(sigs, (1 << k) - 1, t // 2, t - t // 2)
        if hit is not None:
            return t, tuple(sorted(hit))
    return INF, None


# The Gray-code pass codes.exhaustive_min_weight made before it switched to
# Brouwer-Zimmermann enumeration above ten rows, kept as its reference.
def reference_exhaustive_min_weight(logicals, stabs, floor: int = 1) -> int | float:
    """Least weight of a nonzero combination of logicals plus any of stabs.

    Gray code over the logical rows and all but the first ten stabilizer
    rows; each vector meets a precomputed XOR table of those ten.  Stops
    once the weight reaches floor, a known lower bound.
    """
    table = [0]
    for row in stabs[:10]:
        table += [x ^ row for x in table]
    rows = list(logicals) + list(stabs[10:])
    best = INF
    v = lam = 0
    for g in range(1, 1 << len(rows)):
        idx = (g & -g).bit_length() - 1
        v ^= rows[idx]
        if idx < len(logicals):
            lam ^= 1 << idx
        if lam:
            best = min(best, min(map(int.bit_count, map(v.__xor__, table))))
            if best <= floor:
                break
    return best


def brute_force_min_weight(logicals, stabs) -> int | float:
    """The same least weight by listing every combination of the rows."""
    words = [(0, False)]
    for i, row in enumerate(list(logicals) + list(stabs)):
        words += [(v ^ row, lam or i < len(logicals)) for v, lam in words]
    return min((v.bit_count() for v, lam in words if lam), default=INF)


# The elimination loops f2la had before its masked kernels, kept verbatim
# (renamed, calling each other) as the reference that the kernels must
# reproduce output for output.  Pivots are (pivot_col, row) lists.
def reference_echelon(rows):
    """Forward-eliminate rows; return (pivot_col, row) pairs sorted by pivot."""
    pivots = []
    for v in rows:
        reference_add_pivot(pivots, v)
    return pivots


def reference_add_pivot(pivots, v):
    v = reference_reduce_vector(v, pivots)
    if v:
        insort(pivots, ((v & -v).bit_length() - 1, v))
    return v


def reference_reduce_vector(v, pivots):
    for pc, row in pivots:
        if (v >> pc) & 1:
            v ^= row
    return v


def reference_rref(a):
    pivots = reference_echelon(a.rows)
    cols = [pc for pc, _ in pivots]
    rows = [row for _, row in pivots]
    for i in range(len(rows) - 1, -1, -1):
        for j in range(i):
            if (rows[j] >> cols[i]) & 1:
                rows[j] ^= rows[i]
    return list(zip(cols, rows))


def reference_kernel_basis(a):
    reduced = reference_rref(a)
    pivot_cols = {pc for pc, _ in reduced}
    out = []
    for free in range(a.ncols):
        if free in pivot_cols:
            continue
        v = 1 << free
        for pc, row in reduced:
            if (row >> free) & 1:
                v |= 1 << pc
        out.append(v)
    return BinMatrix(out, a.ncols)


def reference_solve(a, b):
    pivots = reference_echelon(col | (1 << (a.nrows + j)) for j, col in enumerate(transpose(a).rows))
    r = reference_reduce_vector(b, pivots)
    return None if r & ((1 << a.nrows) - 1) else r >> a.nrows


def reference_logical_basis(q, basis):
    same = q.h(basis)
    ker = reference_kernel_basis(q.h("Z" if basis == "X" else "X"))
    pivots = reference_echelon(same.rows)
    reps = [v for v in ker.rows if reference_add_pivot(pivots, v)]
    out = []
    for v in reps:
        improved = True
        while improved:
            improved = False
            for s in same.rows:
                if (v ^ s).bit_count() < v.bit_count():
                    v ^= s
                    improved = True
        out.append(v)
    return BinMatrix(out, q.n)


def reference_logical_signatures(q, basis, vectors):
    """Two matrix-vector products per vector, as codes did before packing columns."""
    opp_basis = "Z" if basis == "X" else "X"
    opp = q.h(opp_basis)
    pair_rows = reference_logical_basis(q, opp_basis)
    k = pair_rows.nrows
    return [(mat_vec(opp, v) << k) | mat_vec(pair_rows, v) for v in vectors], k


def reference_component_audit(bm, faults):
    """(checked, violations) of faultdist.component_weight_audit, one
    (row, col) lookup per set bit of each hook residual."""
    checked = 0
    violations = []
    for g in faults:
        if g.kind != "hook":
            continue
        checked += 1
        rows = set()
        cols = set()
        for idx in range(g.residual.bit_length()):
            if (g.residual >> idx) & 1 and idx < bm.n_a:
                rows.add(idx // bm.n_c)
                cols.add(idx % bm.n_c)
        if g.basis == "X" or (g.row is not None and g.row < bm.n_zt):
            bad = len(cols) > 1
        else:
            bad = len(rows) > 1
        if bad:
            violations.append(g)
    return checked, tuple(violations)


# The cone and balanced layouts as they were before cone.ConeIndex became a
# table built in one pass, kept verbatim (the part and BalanceMap lookups
# they scanned with written out as functions) as the references that
# cone_code, cone_schedule and balanced_schedule must reproduce row for row
# and gate for gate.
def _one_cell_pos(part, qubit):
    return part.one_cells.index(qubit)


def _zero_cells_at(part, qubit):
    return [t for t, (_, qa, qb) in enumerate(part.zero_cells) if qubit in (qa, qb)]


def reference_validate(h_x, parts):
    cols = transpose(h_x).rows
    for part in parts:
        for qubit in part.one_cells:
            acc = 0
            for t in _zero_cells_at(part, qubit):
                xr = part.zero_cells[t][0]
                if xr is not None:
                    acc ^= 1 << xr
            if acc != cols[qubit]:
                raise ValueError(
                    f"chain-map condition fails at qubit {qubit} of part for Z row {part.parent_z_row}"
                )


class ReferenceConeIndex:
    """Row/column numbering of the cone code: originals first, cells appended."""

    def __init__(self, parts, f):
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

    def zero_cell_qubit(self, part, t):
        return self._qubit_base[part.parent_z_row] + t

    def one_cell_row(self, part, qubit):
        return self._zrow_base[part.parent_z_row] + _one_cell_pos(part, qubit)

    def one_cell_support(self, part, qubit):
        sup = [qubit] + [self.zero_cell_qubit(part, t) for t in _zero_cells_at(part, qubit)]
        return sorted(sup)

    def minus_cell_row(self, part, ci):
        return self._xrow_base[part.parent_z_row] + ci

    def minus_cell_support(self, part, ci):
        return sorted(self.zero_cell_qubit(part, t) for t in part.minus_one_cells[ci])

    def x_row_cone_qubits(self, x_row):
        out = []
        for part in self.parts:
            for t, (xr, _, _) in enumerate(part.zero_cells):
                if xr == x_row:
                    out.append(self.zero_cell_qubit(part, t))
        return sorted(out)


def reference_cone_code(q, parts, f):
    reference_validate(q.h_x, parts)
    idx = ReferenceConeIndex(parts, f)
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


def reference_cone_schedule(m, parts, f):
    idx = ReferenceConeIndex(parts, f)
    part_of = {p.parent_z_row: p for p in parts}
    steps = []
    for s in m.steps:
        if s.basis == "X":
            extra = idx.x_row_cone_qubits(s.row)
            steps.append(Step("X", s.row, s.order + tuple(extra)))
        elif s.row in idx.retained_pos:
            steps.append(Step("Z", idx.retained_pos[s.row], s.order))
        else:
            part = part_of[s.row]
            for qb in s.order:
                row = idx.one_cell_row(part, qb)
                steps.append(Step("Z", row, tuple(idx.one_cell_support(part, qb))))
    for part in parts:
        for ci in range(len(part.minus_one_cells)):
            row = idx.minus_cell_row(part, ci)
            steps.append(Step("X", row, tuple(idx.minus_cell_support(part, ci))))
    return Schedule(tuple(steps))


def reference_balanced_schedule(m, bm):
    if bm.dual:
        inner = reference_balanced_schedule(dual_schedule(m), bm.primal())
        return dual_schedule(inner)
    hc_col_support = lambda col: [c for c in range(bm.h_c.nrows) if (bm.h_c.rows[c] >> col) & 1]
    hx_col_support = lambda qubit: [r for r in range(bm.h_x_pre.nrows) if (bm.h_x_pre.rows[r] >> qubit) & 1]
    steps = []
    for s in m.steps:
        for col in range(bm.n_c):
            a_part = tuple(bm.a_qubit(i, col) for i in s.order)
            if s.basis == "X":
                b_part = tuple(bm.b_qubit(s.row, c) for c in hc_col_support(col))
                steps.append(Step("X", bm.x_row(s.row, col), a_part + b_part))
            else:
                steps.append(Step("Z", bm.zt_row(s.row, col), a_part))
    for qb in range(bm.n):
        for c in range(bm.n_c - bm.k_c):
            sup = [bm.a_qubit(qb, j) for j in bm.h_c.row_support(c)]
            sup += [bm.b_qubit(x, c) for x in hx_col_support(qb)]
            steps.append(Step("Z", bm.zb_row(qb, c), tuple(sorted(sup))))
    return Schedule(tuple(steps))


def reference_gauge_patches(q, new_qubits):
    """(Z rows, z_patch) of gauge_code's Z-row repair, re-reading each split
    row's support per Z row as gauge_code once did."""
    z_rows = []
    z_patch = {}
    for zr in range(q.n_z):
        zv = q.h_z.rows[zr]
        patch = []
        for r, cols in new_qubits.items():
            sup = q.h_x.row_support(r)
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
    return z_rows, z_patch


def reference_logical_basis_full(q, basis):
    """logical_basis reducing every kernel vector against the stabilizer
    pivots, as it did before stopping at k representatives."""
    same = q.h(basis)
    ker = kernel_basis(q.h("Z" if basis == "X" else "X"))
    pivots = q.stab_pivots(basis).copy()
    reps = [v for v in ker.rows if add_pivot(pivots, v)]
    out = []
    for v in reps:
        improved = True
        while improved:
            improved = False
            for s in same.rows:
                if (v ^ s).bit_count() < v.bit_count():
                    v ^= s
                    improved = True
        out.append(v)
    return BinMatrix(out, q.n)


def reference_enumerate_faults(q, m, basis, dedup=True):
    """enumerate_faults building every generator, then keeping the lowest
    origin per residual in a dict and sorting by origin."""
    gens = [FaultGenerator("data", basis, 1 << qb, qubit=qb) for qb in range(q.n)]
    for si, s in enumerate(m.steps):
        if s.basis != basis:
            continue
        suffix = 0
        rev = []
        for qb in reversed(s.order):
            suffix |= 1 << qb
            rev.append(suffix)
        for k in range(1, len(s.order)):
            residual = rev[len(s.order) - 1 - k]
            gens.append(FaultGenerator("hook", basis, residual, step=si, row=s.row, cut=k))
    if not dedup:
        return gens
    seen = {}
    for g in gens:
        old = seen.get(g.residual)
        if old is None or fault_origin(g) < fault_origin(old):
            seen[g.residual] = g
    return sorted(seen.values(), key=fault_origin)


def reference_schedule_validate(m, q):
    """Schedule.validate comparing each gate order with its row's support as sets."""
    seen = {"X": set(), "Z": set()}
    for s in m.steps:
        h = q.h(s.basis)
        if not 0 <= s.row < h.nrows:
            raise ValueError(f"{s.basis} row {s.row} out of range")
        if s.row in seen[s.basis]:
            raise ValueError(f"duplicate step for {s.basis} row {s.row}")
        seen[s.basis].add(s.row)
        support = set(h.row_support(s.row))
        if len(s.order) != len(set(s.order)) or set(s.order) != support:
            raise ValueError(f"gate order of {s.basis} row {s.row} is not its support")
    if len(seen["X"]) != q.n_x or len(seen["Z"]) != q.n_z:
        raise ValueError("schedule does not cover every stabilizer row exactly once")


def reference_hook_weight_audit(q, m):
    """hook_weight_audit building each step's suffix masks itself, as it did
    before faultdist._hook_residuals listed them for it and enumerate_faults."""
    per_step, violations = {}, []
    for si, s in enumerate(m.steps):
        row = q.h(s.basis).rows[s.row]
        w = len(s.order)
        worst = 0
        suffix = 0
        for qb in reversed(s.order[1:]):
            suffix |= 1 << qb
            reduced = min(suffix.bit_count(), (suffix ^ row).bit_count())
            worst = max(worst, reduced)
        per_step[si] = worst
        if worst > w // 2:
            violations.append(si)
    return HookAuditReport(per_step, tuple(violations))


def reference_fundamental_cycles(n_vertices, edges):
    """cone._fundamental_cycles walking a parent-edge dict to the root and
    taking set algebra over the two root paths, as it did before it kept
    each tree path as an edge mask."""
    adj = {v: [] for v in range(n_vertices)}
    for e, (a, b) in enumerate(edges):
        adj[a].append((b, e))
        adj[b].append((a, e))
    parent_edge = {}
    visited = set()
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

    def path_to_root(v):
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
        cycles.append(tuple(sorted({e} | (set(pa) ^ set(pb)))))
    return cycles, components


def reference_walk_cycle(part, cyc):
    """cone._walk_cycle re-sorting the current vertex's edges at every step,
    as it did before it left each vertex by the other of its two edges."""
    pos = {qb: p for p, qb in enumerate(part.one_cells)}
    incident = {}
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


def reference_kunneth_distance_predictor(spec):
    """kunneth_distance_predictor with the homology and the cohomology
    recursion written out side by side, as it was before one step function
    served both."""
    exact = all(c.full_row_rank for c in spec.factors)
    d_hom, d_coh = _one_complex_distances(spec.factors[0], spec.dualized[0])
    for c, dual in zip(spec.factors[1:], spec.dualized[1:]):
        b_hom, b_coh = _one_complex_distances(c, dual)
        levels = len(d_hom)
        new_hom = []
        new_coh = []
        for j in range(levels + 1):
            lower_h = d_hom[j - 1] if j >= 1 else INF
            same_h = d_hom[j] if j < levels else INF
            new_hom.append(min(lower_h * b_hom[1], same_h * b_hom[0]))
            lower_c = d_coh[j - 1] if j >= 1 else INF
            same_c = d_coh[j] if j < levels else INF
            new_coh.append(min(lower_c * b_coh[1], same_c * b_coh[0]))
        d_hom, d_coh = new_hom, new_coh
    return DistancePrediction(d_coh[spec.level], d_hom[spec.level], exact)


def gauge_chain_qubits(gm):
    """Split X row -> its chain qubits, read off gauge_code's map: chain
    qubit i is the one bit that rows i and i + 1 of the split share."""
    rows = gm.h_x_out.rows
    return {
        r: tuple((rows[a] & rows[b]).bit_length() - 1 for a, b in zip(split, split[1:]))
        for r, split in gm.split_rows.items()
        if len(split) > 1
    }


def fault_origin(g):
    """Sort key of a fault generator: data faults by qubit, then hooks by
    (step, cut)."""
    if g.kind == "data":
        return (0, g.qubit, 0)
    return (1, g.step, g.cut)


# Checkers that only tests use, kept out of the library.
def rowspace_contains(a: BinMatrix, v: int, pivots: Pivots | None = None) -> bool:
    """True iff bit-vector v lies in the row span of a."""
    if v >> a.ncols:
        raise ValueError(f"vector has bits beyond column {a.ncols}")
    if pivots is None:
        pivots = echelon(a.rows)
    return reduce_vector(v, pivots) == 0


def quotient_dim(ker_of: BinMatrix, rs_of: BinMatrix) -> int:
    """dim ker(ker_of) - rank(rs_of), checking rs(rs_of) <= ker(ker_of)."""
    if ker_of.ncols != rs_of.ncols:
        raise ValueError(f"column mismatch: {ker_of.shape} vs {rs_of.shape}")
    prod = mat_mul(ker_of, transpose(rs_of))
    if not prod.is_zero():
        raise ValueError("row space is not contained in the kernel (non-CSS pair)")
    return ker_of.ncols - rank(ker_of) - rank(rs_of)


def complex_to_css(c: ChainComplex, level: int) -> CssCode:
    """CSS code at homology level a: h_x = d_a, h_z = d_{a+1}^T."""
    if not 1 <= level <= c.length - 1:
        raise ValueError(f"level must be in 1..{c.length - 1}, got {level}")
    return CssCode(c.boundary(level), transpose(c.boundary(level + 1)))
