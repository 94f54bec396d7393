"""Elementary faults of a schedule and exact effective-distance search.

A fault generator is the residual data error left by one elementary fault:
a single data-qubit error, or an ancilla fault at cut position k of a step,
which spreads to the suffix of the step's gate order; _hook_residuals lists
those suffixes once, for enumerate_faults and for hook_weight_audit.  The
effective distance is the least number of generators whose XOR is a
nontrivial logical; codes.min_logical_search finds it on codes.Signatures:
distinct nonzero (syndrome, logical pairing) pairs, linear in the residual.
effective_distance returns its codes.Search with generators as the witness,
as does the plain combination-enumeration oracle that checks it in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import NamedTuple

from .codes import (
    INF, MITM_PROBE_FACTOR, MITM_TABLE_CAP, CapExceeded, CssCode, Search, Signatures, logical_signatures,
    min_logical_search, opposite,
)
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


def enumerate_faults(q: CssCode, m: Schedule, basis: str) -> list[FaultGenerator]:
    """All fault generators with residuals of the given Pauli type.

    One data fault per qubit; one hook per cut position 1..w-1 of every step
    whose stabilizer has the same Pauli type (only same-type ancilla faults
    propagate to data).  Cuts 0 and w are excluded: the full row is a
    stabilizer and the empty suffix is trivial.  Duplicate residuals keep the
    lowest origin: data faults by qubit, then hooks by (step, cut).
    """
    opposite(basis)  # raises unless basis is 'X' or 'Z': the data faults carry it
    # fields by position (kind, basis, residual, qubit, step, row, cut): keywords cost more
    gens = [FaultGenerator("data", basis, 1 << qb, qb) for qb in range(q.n)]
    # generators come out by ascending origin, so the first of a residual is kept
    seen = {g.residual for g in gens}
    for si, s in enumerate(m.steps):
        if s.basis != basis:
            continue
        for k, residual in enumerate(_hook_residuals(s.order), start=1):
            if residual not in seen:
                seen.add(residual)
                gens.append(FaultGenerator("hook", basis, residual, None, si, s.row, k))
    return gens


def _generators(q: CssCode, m: Schedule, basis: str, generators) -> list[FaultGenerator]:
    """The given generators, once each is checked to be of the searched basis; else enumerate_faults'."""
    for i, g in enumerate(generators or ()):
        if g.basis != basis:
            raise ValueError(f"generator {i} of a basis-{basis} search has basis {g.basis}: {g}")
    return enumerate_faults(q, m, basis) if generators is None else generators


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
) -> Search:
    """Exact effective distance up to max_d, else the infinite sentinel.

    Runs codes.min_logical_search over the generators' Signatures; a match at
    the first feasible t is a weight-t witness since lower levels were
    exhausted first.  As in css_search, a level whose table side exceeds
    table_cap, or whose probe side exceeds MITM_PROBE_FACTOR * table_cap,
    raises CapExceeded naming that side (the kernel's Search.stop).
    """
    if max_d < 1:
        raise ValueError("max_d must be >= 1")
    gens = _generators(q, m, basis, generators)
    sigs = logical_signatures(q, basis, [g.residual for g in gens])  # checks the basis, also for k = 0
    if q.k == 0:
        return Search(INF, None, "mitm", max_d)
    found = min_logical_search(Signatures.of(*sigs), max_d, table_cap)
    t = found.level
    if found.distance is None:
        side, count = found.stop
        if side == "table":
            need = f"meet-in-the-middle table for t={t} needs {count} entries"
        else:
            need = f"meet-in-the-middle probes for t={t} need {count} subsets, over {MITM_PROBE_FACTOR} x table_cap"
        raise CapExceeded(f"{need}; lower max_d or raise table_cap")
    # overlapping halves cannot match at the first feasible t: the cancelled
    # XOR would have matched two levels earlier
    assert found.witness is None or len(found.witness) == t
    return found._replace(witness=None if found.witness is None else tuple(gens[i] for i in found.witness))


def oracle_effective_distance(
    q: CssCode,
    m: Schedule,
    basis: str,
    max_d: int = DEFAULT_MAX_D,
    generators: list[FaultGenerator] | None = None,
) -> Search:
    """Brute force over all generator subsets of size <= max_d; test use only."""
    gens = _generators(q, m, basis, generators)
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
                return Search(t, tuple(gens[i] for i in subset), "oracle", t)
    return Search(INF, None, "oracle", max_d)


def witness_is_valid(q: CssCode, basis: str, result: Search) -> bool:
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
    """Check every hook is equivalent to at most floor(w/2) data errors.  An order listing its row's support
    once each, as Schedule.validate requires, scores floor(w/2) with no residual built: cut k leaves w - k
    qubits of the row, equivalent to the other k.  It does iff it has popcount(row) entries, none negative,
    whose powers of two sum to the row (w powers reach popcount w only if distinct); others build residuals."""
    per_step: dict[int, int] = {}
    violations = []
    for si, s in enumerate(m.steps):
        row, w = q.h(s.basis).rows[s.row], len(s.order)
        if w == row.bit_count() and min(s.order, default=0) >= 0 and sum(map((1).__lshift__, s.order)) == row:
            per_step[si] = w // 2
        else:  # a residual is equivalent to its complement in the row
            per_step[si] = max((min(r.bit_count(), (r ^ row).bit_count()) for r in _hook_residuals(s.order)), default=0)
        if per_step[si] > w // 2:
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
