"""Single-ancilla syndrome-extraction schedules and their constructors.

A schedule is an ordered list of stabilizer measurements; each step carries
the explicit entangling-gate order over the stabilizer's support.  The
constructors here mirror how a schedule for a code is adapted to its
copied / gauged / balanced / coned transform, keeping the gate orders that
the preservation arguments rely on.  "Any order" freedoms are fixed to
ascending index so results are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from .codes import CssCode
from .cone import ConeIndex, build_cone_parts, cellulate, cone_code, thicken_cone_detail
from .f2la import transpose
from .reduce import BalanceMap, CopyMap, GaugeMap, balance_x, balance_z, choose_heights, copy_code, gauge_code
from .reduce import kept_z_rows, thicken


@dataclass(frozen=True)
class Step:
    basis: str
    row: int
    order: tuple[int, ...]


@dataclass(frozen=True)
class Schedule:
    steps: tuple[Step, ...]

    def validate(self, q: CssCode) -> None:
        """Check exact row cover and exact-support gate orders against q."""
        seen = {"X": set(), "Z": set()}
        for s in self.steps:
            h = q.h(s.basis)
            if not 0 <= s.row < h.nrows:
                raise ValueError(f"{s.basis} row {s.row} out of range")
            if s.row in seen[s.basis]:
                raise ValueError(f"duplicate step for {s.basis} row {s.row}")
            seen[s.basis].add(s.row)
            if s.order and not 0 <= min(s.order) <= max(s.order) < h.ncols:
                raise ValueError(f"gate order of {s.basis} row {s.row} is not its support")
            mask = 0
            for qb in s.order:
                mask |= 1 << qb
            if mask != h.rows[s.row] or len(s.order) != mask.bit_count():
                raise ValueError(f"gate order of {s.basis} row {s.row} is not its support")
        if len(seen["X"]) != q.n_x or len(seen["Z"]) != q.n_z:
            raise ValueError("schedule does not cover every stabilizer row exactly once")

def baseline_schedule(q: CssCode, seed: int = 0) -> Schedule:
    """Seed 0: matrix order with ascending gate order; otherwise seeded-random."""
    steps = [Step("X", r, tuple(q.h_x.row_support(r))) for r in range(q.n_x)]
    steps += [Step("Z", r, tuple(q.h_z.row_support(r))) for r in range(q.n_z)]
    if seed != 0:
        rng = random.Random(seed)
        rng.shuffle(steps)
        steps = [Step(s.basis, s.row, tuple(rng.sample(s.order, len(s.order)))) for s in steps]
    return Schedule(tuple(steps))


def enumerate_random_schedules(q: CssCode, count: int, seed: int = 0) -> list[Schedule]:
    """count schedules with independent step and gate orders, seeded."""
    rng = random.Random(seed)
    return [baseline_schedule(q, rng.randrange(1, 1 << 62)) for _ in range(count)]


def copied_schedule(m: Schedule, cm: CopyMap) -> Schedule:
    """Adapt a pre-copy schedule to the copied code.

    X steps act on the assigned copies in the same order; Z steps entangle
    each copy group's first halves group-by-group, then the second halves;
    gluing checks are measured at the end in generation order.
    """
    half = cm.q_x // 2
    steps = []
    for s in m.steps:
        if s.basis == "X":
            try:
                order = tuple(cm.new_qubit(i, cm.assigned_copy[(s.row, i)]) for i in s.order)
            except KeyError as e:
                raise ValueError(f"CopyMap does not cover X row {s.row}: {e}") from e
            steps.append(Step("X", s.row, order))
        else:
            first = [cm.new_qubit(i, j) for i in s.order for j in range(half)]
            second = [cm.new_qubit(i, j) for i in s.order for j in range(half, cm.q_x)]
            steps.append(Step("Z", s.row, tuple(first + second)))
    for row_idx, i, j in cm.glue_rows:
        steps.append(Step("X", row_idx, (cm.new_qubit(i, j), cm.new_qubit(i, j + 1))))
    return Schedule(tuple(steps))


def gauged_schedule(m: Schedule, gm: GaugeMap, cm: CopyMap | None = None) -> Schedule:
    """Adapt a copied-code schedule to the copied-and-gauged code.

    Each split X step becomes its chain of split rows, measured consecutively
    with ascending gate order.  Each Z step keeps its gate order and gains
    its gauge qubits in ascending order: the first half after the first
    len(order) // q_X * (q_X // 2) gates (the first half-pass of a
    copied_schedule step; none without cm), the rest at the end.
    """
    steps = []
    for s in m.steps:
        if s.basis == "X":
            rows = gm.split_rows.get(s.row)
            if rows is None:
                raise ValueError(f"GaugeMap does not cover X row {s.row}")
            if len(rows) == 1:
                steps.append(Step("X", rows[0], s.order))
            else:
                for r in rows:
                    steps.append(Step("X", r, tuple(gm.h_x_out.row_support(r))))
        else:
            new = tuple(sorted(gm.z_patch.get(s.row, ())))
            cut = len(s.order) // cm.q_x * (cm.q_x // 2) if cm is not None else 0
            b_half = len(new) // 2
            steps.append(Step("Z", s.row, s.order[:cut] + new[:b_half] + s.order[cut:] + new[b_half:]))
    return Schedule(tuple(steps))


def balanced_schedule(m: Schedule, bm: BalanceMap) -> Schedule:
    """Adapt a schedule to the balanced (generalized thickened) code.

    Every step of m is replayed once per classical-code column with the same
    gate order inside region A; X steps entangle their region-B qubits last;
    the Z[B] checks are appended at the end in ascending order.
    """
    if bm.dual:
        inner = balanced_schedule(dual_schedule(m), bm.primal())
        return dual_schedule(inner)
    hc_cols = transpose(bm.h_c)
    hx_cols = transpose(bm.h_x_pre)
    n_c = bm.n_c
    steps = []
    for s in m.steps:
        for col in range(n_c):
            a_part = tuple(i * n_c + col for i in s.order)  # bm.a_qubit(i, col), inlined
            if s.basis == "X":
                b_part = tuple(bm.b_qubit(s.row, c) for c in hc_cols.row_support(col))
                steps.append(Step("X", bm.x_row(s.row, col), a_part + b_part))
            else:
                steps.append(Step("Z", bm.zt_row(s.row, col), a_part))
    for qb in range(bm.n):
        x_rows = hx_cols.row_support(qb)
        for c in range(bm.n_c - bm.k_c):
            sup = [qb * n_c + j for j in bm.h_c.row_support(c)]
            sup += [bm.b_qubit(x, c) for x in x_rows]
            steps.append(Step("Z", bm.zb_row(qb, c), tuple(sorted(sup))))
    return Schedule(tuple(steps))


def dual_schedule(m: Schedule) -> Schedule:
    """Swap the X and Z roles of every step (for transposed codes)."""
    flip = {"X": "Z", "Z": "X"}
    return Schedule(tuple(Step(flip[s.basis], s.row, s.order) for s in m.steps))


def prune_z_steps(m: Schedule, keep: set[int]) -> Schedule:
    """Drop Z steps not in keep and renumber the survivors in keep-order."""
    renum = {old: new for new, old in enumerate(sorted(keep))}
    steps = []
    for s in m.steps:
        if s.basis == "Z":
            if s.row in keep:
                steps.append(Step("Z", renum[s.row], s.order))
        else:
            steps.append(s)
    return Schedule(tuple(steps))


def cone_schedule(m: Schedule, parts, f) -> Schedule:
    """Adapt a pre-cone schedule to the cone code.

    Direct Z steps keep their order; each coned Z step expands into its
    part's qubit-cell rows following the parent step's gate order; X steps
    gain their cone qubits at the end; the new X checks from the cone cells
    follow in ascending order.
    """
    idx = ConeIndex(parts, f)
    steps = []
    for s in m.steps:
        if s.basis == "X":
            steps.append(Step("X", s.row, s.order + tuple(idx.x_extra.get(s.row, ()))))
        elif s.row in idx.retained_pos:
            steps.append(Step("Z", idx.retained_pos[s.row], s.order))
        else:
            cells = idx.z_cells[s.row]
            steps += [Step("Z", *cells[qb]) for qb in s.order]
    steps += [Step("X", row, support) for row, support in idx.x_cells]
    return Schedule(tuple(steps))


# -- the transforms with their schedule carriers -----------------------
# step(code, **carry's options) -> (code, carrier of old schedules, map, note)


def _copy(code, **_):
    new, cm = copy_code(code)
    return new, lambda m: copied_schedule(m, cm), cm, {"glue_rows": len(cm.glue_rows)}


def _gauge(code, *, prev, **_):
    new, gm = gauge_code(code)
    cm = prev if isinstance(prev, CopyMap) else None
    split = sum(1 for rows in gm.split_rows.values() if len(rows) > 1)
    return new, lambda m: gauged_schedule(m, gm, cm), gm, {"split_rows": split}


def _thicken(code, *, ell, heights, **_):
    new, bm = thicken(code, ell)
    if heights is None:
        return new, lambda m: balanced_schedule(m, bm), bm, {"ell": ell}
    chosen = heights(new, bm)
    carrier = lambda m: prune_z_steps(balanced_schedule(m, bm), set(kept_z_rows(bm, chosen)))
    return choose_heights(new, bm, chosen), carrier, bm, {"ell": ell, "heights": chosen}


def _balance(transform, code, *, classical, **_):
    new, bm = transform(code, classical)
    return new, lambda m: balanced_schedule(m, bm), bm, {"classical": {"n": classical.n, "k": classical.k}}


def _cone(code, *, cone_threshold, cone_ell, **_):
    parts, fmap, _ = build_cone_parts(code, cone_threshold)
    parts = cellulate(parts)
    new, coned = cone_code(code, parts, fmap), lambda m: cone_schedule(m, parts, fmap)
    note = {"coned_rows": len(parts), "kept_direct": list(fmap.skipped_rows), "cycle_basis": fmap.cycle_basis}
    if cone_ell == 1:
        return new, coned, fmap, note
    thick, bm, hr = thicken_cone_detail(new, cone_ell)
    keep = set(kept_z_rows(bm, hr.heights))
    carrier = lambda m: dual_schedule(prune_z_steps(balanced_schedule(dual_schedule(coned(m)), bm), keep))
    return thick, carrier, bm, {**note, "cone_ell": cone_ell}


#: the steps that balance against carry's `classical` code
BALANCES = {"balance_x": partial(_balance, balance_x), "balance_z": partial(_balance, balance_z)}
TRANSFORMS = {"copy": _copy, "gauge": _gauge, "thicken": _thicken, **BALANCES, "cone": _cone}


def carry(name, code, schedule, prev=None, *, ell=2, heights=None, classical=None, cone_threshold=5, cone_ell=1):
    """Apply transform `name` to code and carry schedule (or None) onto the
    result; prev is the map the previous carry returned.  heights(thickened
    code, BalanceMap) picks thicken's heights (None keeps every Z[T] row);
    cone_ell > 1 thickens the cone code in the dual basis.  Returns (code,
    validated schedule, map of the last construction, report note keys).
    """
    opts = dict(ell=ell, heights=heights, classical=classical, cone_threshold=cone_threshold, cone_ell=cone_ell)
    new, carrier, cmap, note = TRANSFORMS[name](code, prev=prev, **opts)
    if schedule is not None:
        schedule = carrier(schedule)
        schedule.validate(new)
    return new, schedule, cmap, note


# -- text format ------------------------------------------------------


def format_schedule(m: Schedule) -> str:
    """One step per line: `X|Z <row> : q1 q2 ...` with 1-based indices."""
    lines = []
    for s in m.steps:
        qubits = " ".join(str(qb + 1) for qb in s.order)
        lines.append(f"{s.basis} {s.row + 1} : {qubits}".rstrip())
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> Schedule:
    steps = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        fields = head.split()
        if len(fields) != 2 or fields[0] not in ("X", "Z"):
            raise ValueError(f"line {ln}: expected 'X|Z <row> : ...'")
        try:
            row = int(fields[1]) - 1
            order = tuple(int(t) - 1 for t in tail.split())
        except ValueError as e:
            raise ValueError(f"line {ln}: {e}") from e
        if row < 0 or any(qb < 0 for qb in order):
            raise ValueError(f"line {ln}: indices are 1-based")
        steps.append(Step(fields[0], row, order))
    return Schedule(tuple(steps))
