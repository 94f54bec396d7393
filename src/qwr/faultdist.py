"""Elementary faults of a schedule and exact effective-distance search.

A fault generator is the residual data error left by one elementary fault:
a single data-qubit error, or an ancilla fault at cut position k of a step,
which spreads to the suffix of the step's gate order; _hook_residuals lists
those suffixes once, for enumerate_faults and for hook_weight_audit.  The
effective distance is the least number of generators whose XOR is a
nontrivial logical; codes.min_logical_search finds it on (stabilizer
syndrome, logical pairing) signatures, both linear in the residual.  A plain
combination-enumeration oracle double-checks the search in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import NamedTuple

from .codes import INF, MITM_PROBE_FACTOR, MITM_TABLE_CAP, CapExceeded, CssCode, logical_signatures, min_logical_search
from .reduce import BalanceMap
from .schedule import Schedule

ORACLE_COMBO_CAP = 100_000_000
DEFAULT_MAX_D = 6


class FaultGenerator(NamedTuple):
    """Residual data-error vector of one elementary fault."""

    kind: str  # "data" | "hook"
    basis: str
    residual: int
    qubit: int | None = None
    step: int | None = None
    row: int | None = None
    cut: int | None = None


@dataclass(frozen=True)
class FaultSearchResult:
    distance: int | float
    witness: tuple[FaultGenerator, ...] | None
    exact_up_to: int


def enumerate_faults(q: CssCode, m: Schedule, basis: str, dedup: bool = True) -> list[FaultGenerator]:
    """All fault generators with residuals of the given Pauli type.

    One data fault per qubit; one hook per cut position 1..w-1 of every step
    whose stabilizer has the same Pauli type (only same-type ancilla faults
    propagate to data).  Cuts 0 and w are excluded: the full row is a
    stabilizer and the empty suffix is trivial.  Duplicate residuals keep the
    lowest origin: data faults by qubit, then hooks by (step, cut).
    """
    gens = [FaultGenerator("data", basis, 1 << qb, qubit=qb) for qb in range(q.n)]
    # generators come out by ascending origin, so the first of a residual is kept
    seen = {g.residual for g in gens} if dedup else set()
    for si, s in enumerate(m.steps):
        if s.basis != basis:
            continue
        for k, residual in enumerate(_hook_residuals(s.order), start=1):
            if residual in seen:
                continue
            if dedup:
                seen.add(residual)
            gens.append(FaultGenerator("hook", basis, residual, step=si, row=s.row, cut=k))
    return gens


def _hook_residuals(order) -> list[int]:
    """The masks of the suffixes order[k:] for cut positions k = 1..w-1, by
    ascending k: the hooks of a step, for the fault list and the audit."""
    out, suffix = [], 0
    for qb in reversed(order[1:]):
        suffix |= 1 << qb
        out.append(suffix)
    return out[::-1]


def effective_distance(
    q: CssCode,
    m: Schedule,
    basis: str,
    max_d: int = DEFAULT_MAX_D,
    generators: list[FaultGenerator] | None = None,
    table_cap: int = MITM_TABLE_CAP,
) -> FaultSearchResult:
    """Exact effective distance up to max_d, else the infinite sentinel.

    Runs codes.min_logical_search over the generators' signatures; a match at
    the first feasible t is a weight-t witness since lower levels were
    exhausted first.  As in css_search, a level whose table side exceeds
    table_cap, or whose probe side exceeds MITM_PROBE_FACTOR * table_cap,
    raises CapExceeded naming that side (the kernel's Search.cap_side).
    """
    if max_d < 1:
        raise ValueError("max_d must be >= 1")
    if q.k == 0:
        return FaultSearchResult(INF, None, max_d)
    gens = enumerate_faults(q, m, basis) if generators is None else generators
    sigs, k = logical_signatures(q, basis, [g.residual for g in gens])
    found = min_logical_search(sigs, k, max_d, table_cap)
    t = found.level
    if found.distance is None:
        if found.cap_side == "table":
            need = f"meet-in-the-middle table for t={t} needs {found.cap_count} entries"
        else:
            need = (f"meet-in-the-middle probes for t={t} need {found.cap_count} subsets, "
                    f"over {MITM_PROBE_FACTOR} x table_cap")
        raise CapExceeded(f"{need}; lower max_d or raise table_cap")
    witness = None if found.witness is None else tuple(gens[i] for i in found.witness)
    # overlapping halves cannot match at the first feasible t: the cancelled
    # XOR would have matched two levels earlier
    assert witness is None or len(witness) == t
    return FaultSearchResult(found.distance, witness, max_d)


def oracle_effective_distance(
    q: CssCode,
    m: Schedule,
    basis: str,
    max_d: int = DEFAULT_MAX_D,
    generators: list[FaultGenerator] | None = None,
) -> FaultSearchResult:
    """Brute force over all generator subsets of size <= max_d; test use only."""
    gens = enumerate_faults(q, m, basis) if generators is None else generators
    n = len(gens)
    total = sum(comb(n, t) for t in range(1, max_d + 1))
    if total > ORACLE_COMBO_CAP:
        raise CapExceeded(f"{total} combinations exceed the oracle cap")
    for t in range(1, max_d + 1):
        for subset in combinations(range(n), t):
            v = 0
            for i in subset:
                v ^= gens[i].residual
            if q.is_logical(v, basis):
                return FaultSearchResult(t, tuple(gens[i] for i in subset), max_d)
    return FaultSearchResult(INF, None, max_d)


def witness_is_valid(q: CssCode, basis: str, result: FaultSearchResult) -> bool:
    """Re-verify a finite search result independently of the search."""
    if result.witness is None:
        return result.distance == INF
    if len(result.witness) != result.distance:
        return False
    v = 0
    for g in result.witness:
        v ^= g.residual
    return q.is_logical(v, basis)


@dataclass(frozen=True)
class HookAuditReport:
    """Per step, the least weight its worst hook reduces to; the steps where
    that exceeds half the step's weight."""

    per_step_max: dict[int, int]
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def hook_weight_audit(q: CssCode, m: Schedule) -> HookAuditReport:
    """Check every hook is equivalent to at most floor(w/2) data errors."""
    per_step: dict[int, int] = {}
    violations = []
    for si, s in enumerate(m.steps):
        row = q.h(s.basis).rows[s.row]
        # a residual is equivalent to its complement in the row
        per_step[si] = max((min(r.bit_count(), (r ^ row).bit_count()) for r in _hook_residuals(s.order)), default=0)
        if per_step[si] > len(s.order) // 2:
            violations.append(si)
    return HookAuditReport(per_step, tuple(violations))


@dataclass(frozen=True)
class ComponentAuditReport:
    checked: int
    violations: tuple[FaultGenerator, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def component_weight_audit(
    q_balanced: CssCode, bm: BalanceMap, faults: list[FaultGenerator]
) -> ComponentAuditReport:
    """Check hook residuals stay in one row/column of region A.

    X hooks and Z[T] hooks must touch at most one column of the A grid;
    Z[B] hooks at most one row.  Data faults hold trivially and are skipped.
    Region A index = row * n_c + col; with (r0, c0) the lowest bit of the
    residual in A, no bit may lie outside column c0, or past row r0.
    """
    if bm.dual:
        raise ValueError("component audit expects a balance_x/thicken map")
    n_c = bm.n_c
    a_mask = (1 << bm.n_a) - 1
    col0 = a_mask // ((1 << n_c) - 1) if n_c else 0  # bit 0 of every grid row
    checked = 0
    violations = []
    for g in faults:
        if g.kind != "hook":
            continue
        checked += 1
        v = g.residual & a_mask
        if not v:
            continue
        r0, c0 = divmod((v & -v).bit_length() - 1, n_c)
        if g.basis == "X" or (g.row is not None and g.row < bm.n_zt):
            bad = v & ~(col0 << c0)
        else:
            bad = v >> ((r0 + 1) * n_c)
        if bad:
            violations.append(g)
    return ComponentAuditReport(checked, tuple(violations))
