"""The four benchmark workloads, each a fixed list of questions put to qwr.

A question is asked once per pass.  ``ask`` is the timed part and talks to
qwr only through the public functions of its modules, each call wrapped in
a span named ``<module>.<function>``.  ``check`` (untimed) compares the
answer with an independent reference and returns the reason when it is
wrong.  ``counters`` turns inputs and answer into deterministic work counts,
so that a later speed-up can be told apart from doing less work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Any, Callable, Iterable

from qwr import cli, codes, cone, f2la, faultdist, reduce, schedule
from qwr.codes import INF, CapExceeded, CssCode
# the package attribute qwr.hgp is the function, not the module
from qwr.hgp import ProductSpec, higher_dim_hgp, hgp, kunneth_distance_predictor

HERE = os.path.dirname(os.path.abspath(__file__))

# The seed's css_distance dispatch, used only to count work: exhaustive Gray
# enumeration up to dimension 26, then MITM levels while the small side fits
# 4M table entries and the large side 400M probes.
SEED_ENUM_CAP = 26
SEED_TABLE_CAP = 4_000_000

CAPPED = "capped"


@dataclass
class Question:
    qid: str
    ask: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    exact: Callable[[Any], bool]
    counters: Callable[[Any], dict[str, int]]
    replay: Callable[[Any], Any] | None = None
    key: Callable[[Any], Any] | None = None  # what must repeat exactly across passes

    def canonical(self, answer):
        return answer if self.key is None else self.key(answer)


def mitm_subsets(n_items: int, levels: Iterable[int]) -> int:
    """Subsets a meet-in-the-middle enumerates over the given levels t."""
    return sum(comb(n_items, t // 2) + comb(n_items, t - t // 2) for t in levels)


def fresh(tr, q: CssCode) -> CssCode:
    """The code rebuilt from its matrices, as a user holding only the
    matrices would build it, so no cached rank survives between passes."""
    return tr.call("codes.CssCode", CssCode, q.h_x, q.h_z)


def params(tr, q: CssCode) -> tuple[int, ...]:
    """(n, k, n_x, n_z, w_x, w_z, q_x, q_z), with k = n - rank(h_x) - rank(h_z)."""
    k = q.n - tr.call("f2la.rank", f2la.rank, q.h_x) - tr.call("f2la.rank", f2la.rank, q.h_z)
    return (q.n, k, q.n_x, q.n_z, q.w_x, q.w_z, q.q_x, q.q_z)


# -- effective_deep -----------------------------------------------------


def carried_pipeline(tr, q: CssCode, seed: int = 0):
    """copy -> gauge -> thicken(2), carrying the derived schedule along."""
    m = tr.call("schedule.baseline_schedule", schedule.baseline_schedule, q, seed)
    qc, cm = tr.call("reduce.copy_code", reduce.copy_code, q)
    mc = tr.call("schedule.copied_schedule", schedule.copied_schedule, m, cm)
    qg, gm = tr.call("reduce.gauge_code", reduce.gauge_code, qc)
    mg = tr.call("schedule.gauged_schedule", schedule.gauged_schedule, mc, gm, cm)
    qt, bm = tr.call("reduce.thicken", reduce.thicken, qg, 2)
    mt = tr.call("schedule.balanced_schedule", schedule.balanced_schedule, mg, bm)
    tr.call("schedule.validate", mt.validate, qt)
    return qt, mt


def coned_pipeline(tr, q: CssCode, seed: int = 0):
    """cone -> thicken_cone(2) with cone_schedule carried through the dual
    thickening, as ``qwr transform cone --cone-ell 2`` does it."""
    m = tr.call("schedule.baseline_schedule", schedule.baseline_schedule, q, seed)
    parts, fmap, _ = tr.call("cone.build_cone_parts", cone.build_cone_parts, q, 5)
    parts = tr.call("cone.cellulate", cone.cellulate, parts)
    qc = tr.call("cone.cone_code", cone.cone_code, q, parts, fmap)
    mc = tr.call("schedule.cone_schedule", schedule.cone_schedule, m, parts, fmap)
    qt, bm, hr = tr.call("cone.thicken_cone_detail", cone.thicken_cone_detail, qc, 2)
    inner = tr.call("schedule.balanced_schedule", schedule.balanced_schedule, schedule.dual_schedule(mc), bm)
    keep = set(reduce.kept_z_rows(bm, hr.heights))
    inner = tr.call("schedule.prune_z_steps", schedule.prune_z_steps, inner, keep)
    mt = schedule.dual_schedule(inner)
    tr.call("schedule.validate", mt.validate, qt)
    return qt, mt


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as f:
        return json.load(f)


def effective_question(qid: str, q: CssCode, m, basis: str, max_d: int, reference) -> Question:
    def ask(tr):
        code = fresh(tr, q)
        gens = tr.call("faultdist.enumerate_faults", faultdist.enumerate_faults, code, m, basis)
        res = tr.call(
            "faultdist.effective_distance", faultdist.effective_distance,
            code, m, basis, max_d, generators=gens,
        )
        return len(gens), res

    def check(answer):
        _, res = answer
        got = "inf" if res.distance == INF else res.distance
        if got != reference:
            return f"effective distance {got}, reference {reference}"
        if res.distance == INF and res.exact_up_to != max_d:
            return f"inf reported exact up to {res.exact_up_to}, asked {max_d}"
        if not faultdist.witness_is_valid(q, basis, res):
            return "witness_is_valid rejects the witness"
        return None

    def counters(answer):
        n_gens, res = answer
        levels = max_d if res.distance == INF else int(res.distance)
        return {
            "faultdist.generators": n_gens,
            "faultdist.levels": levels,
            "faultdist.mitm_subsets": mitm_subsets(n_gens, range(1, levels + 1)),
            "faultdist.table_entries_max": comb(n_gens, levels // 2),
        }

    return Question(qid, ask, check, lambda a: a[1].distance != INF, counters)


def effective_cases(tr) -> list[tuple]:
    """(qid, code, schedule, basis, max_d) of every effective_deep question."""
    steane, steane_m = carried_pipeline(tr, codes.steane_code())
    surface, surface_m = carried_pipeline(tr, codes.surface_code_2x3())
    hexagon, hexagon_m = coned_pipeline(tr, codes.ring_face_code(6))
    return [
        ("steane_thick_Z_d5", steane, steane_m, "Z", 5),
        ("steane_thick_X_d6", steane, steane_m, "X", 6),
        ("surface_thick_Z_d6", surface, surface_m, "Z", 6),
        ("surface_thick_X_d6", surface, surface_m, "X", 6),
        ("hexagon_cone_Z_d4", hexagon, hexagon_m, "Z", 4),
        ("hexagon_cone_X_d4", hexagon, hexagon_m, "X", 4),
    ]


def setup_effective_deep(seed: int, tr, workdir: str) -> list[Question]:
    refs = load_references()["effective_deep"]
    cases = effective_cases(tr)
    questions = [effective_question(qid, q, m, b, d, refs[qid]) for qid, q, m, b, d in cases]
    _, steane, steane_m, _, _ = cases[0]
    tr.call("faultdist.effective_distance", faultdist.effective_distance, steane, steane_m, "X", 3)  # warm-up
    random.Random(seed).shuffle(questions)
    return questions


# -- code_distance --------------------------------------------------------

# One product per (n, dim, d) class of the rep(2)/rep(3)/Hamming grid whose
# exact answer takes under about a second, plus the four route cases.
# (factors, level, basis); factor names: r2, r3 = repetition, h7 = Hamming.
GRID_QUESTIONS = [
    ("r2r2", 1, "X"), ("r2r3", 1, "X"), ("r2r3", 1, "Z"), ("r2r2r2", 1, "X"),
    ("r2r2r2", 1, "Z"), ("r3r3", 1, "X"), ("r2h7", 1, "Z"), ("r2h7", 1, "X"),
    ("r2r2r3", 1, "X"), ("r2r2r3", 1, "Z"), ("r2r2r3", 2, "Z"), ("r2r2r3", 2, "X"),
    ("r3h7", 1, "Z"), ("r3h7", 1, "X"), ("r2r3r3", 1, "X"), ("r2r3r3", 1, "Z"),
    ("r2r3r3", 2, "Z"), ("r2r3r3", 2, "X"), ("r2r2h7", 2, "Z"), ("r2r2h7", 2, "X"),
    ("r2r2h7", 1, "X"), ("r2r2h7", 1, "Z"), ("r3r3r3", 1, "Z"), ("h7h7", 1, "X"),
    ("r2r3h7", 2, "X"), ("r2r3h7", 1, "Z"), ("r2h7r3", 2, "Z"), ("r2h7r3", 2, "X"),
    ("r3r3h7", 2, "X"), ("r3r3h7", 1, "Z"), ("r2h7h7", 2, "X"), ("r2h7h7", 1, "Z"),
    ("r3h7h7", 2, "X"), ("r3h7h7", 1, "Z"), ("h7h7h7", 1, "Z"),
    # route cases
    ("r3r3r3", 1, "X"),  # n=51 dim 19 d=9: exhaustive is the cheaper route
    ("r2r3h7", 2, "Z"),  # n=63 dim 22 d=6: MITM would be cheaper
    ("r2h7h7", 2, "Z"),  # n=137 dim 58 d=6: MITM only
]
# n=109 dim 46 d=9 asked with a 100k-entry MITM table: it ends in CapExceeded
# after level 5 instead of after 4-5 s at the default 4M cap.
CAPPED_QUESTION = ("r3r3h7", 1, "X", 100_000)


def classical_factor(name: str):
    return {"r2": codes.repetition_code(2), "r3": codes.repetition_code(3), "h7": codes.hamming_7_4()}[name]


def css_distance_work(q: CssCode, basis: str, answer, table_cap: int = SEED_TABLE_CAP) -> dict[str, int]:
    """Work of the seed's css_distance route for this question."""
    dim = q.k + (q.rank_x if basis == "X" else q.rank_z)
    if dim <= SEED_ENUM_CAP:
        return {"codes.css_distance.exhaustive_calls": 1, "codes.gray_vectors": (1 << dim) - 1}
    levels = []
    t = 1
    while comb(q.n, t // 2) <= table_cap and comb(q.n, t - t // 2) <= 100 * table_cap:
        levels.append(t)
        if answer != CAPPED and t == answer:
            break
        t += 1
    return {
        "codes.css_distance.mitm_calls": 1,
        "codes.css_distance.cap_hits": int(answer == CAPPED),
        "codes.mitm_subsets": mitm_subsets(q.n, levels),
    }


def distance_question(qid: str, q: CssCode, basis: str, expect, table_cap: int | None = None) -> Question:
    caps = {} if table_cap is None else {"table_cap": table_cap}

    def ask(tr):
        code = fresh(tr, q)
        try:
            return tr.call("codes.css_distance", codes.css_distance, code, basis, **caps)
        except CapExceeded:
            return CAPPED

    def check(answer):
        if answer == CAPPED or answer == expect:
            return None
        return f"css_distance {answer}, Kunneth prediction {expect}"

    return Question(qid, ask, check, lambda a: a != CAPPED, lambda a: css_distance_work(q, basis, a, **caps))


def setup_code_distance(seed: int, tr, workdir: str) -> list[Question]:
    questions = []
    for names, level, basis, *cap in GRID_QUESTIONS + [CAPPED_QUESTION]:
        factors = tuple(classical_factor(names[i:i + 2]) for i in range(0, len(names), 2))
        spec = ProductSpec(factors, level=level)
        q, _ = tr.call("hgp.higher_dim_hgp", higher_dim_hgp, spec)
        pred = tr.call("hgp.kunneth_distance_predictor", kunneth_distance_predictor, spec)
        if not pred.exact:
            raise RuntimeError(f"prediction for {names} is not exact")
        expect = pred.d_x if basis == "X" else pred.d_z
        questions.append(distance_question(f"{names}_L{level}_{basis}", q, basis, expect, *cap))
    tr.call("codes.css_distance", codes.css_distance, codes.steane_code(), "X")  # warm-up
    random.Random(seed).shuffle(questions)
    return questions


# -- transform_build ------------------------------------------------------


def regular_classical(rng: random.Random, n: int, r: int, row_weight: int) -> codes.ClassicalCode:
    """Random full-rank r x n check matrix with every row of the given weight
    and column weights as equal as they can be, so that every seed gives the
    same code sizes."""
    stubs_total = r * row_weight
    degrees = [stubs_total // n + (j < stubs_total % n) for j in range(n)]
    while True:
        stubs = [j for j, d in enumerate(degrees) for _ in range(d)]
        rng.shuffle(stubs)
        rows = [set(stubs[i * row_weight:(i + 1) * row_weight]) for i in range(r)]
        if any(len(s) != row_weight for s in rows):
            continue
        h = f2la.BinMatrix.from_support(rows, n)
        if f2la.rank(h) == r:
            return codes.ClassicalCode(h)


def setup_transform_build(seed: int, tr, workdir: str) -> list[Question]:
    rng = random.Random(seed)
    c1 = regular_classical(rng, 8, 5, 4)
    c2 = regular_classical(rng, 8, 5, 4)
    base = tr.call("hgp.hgp", hgp, c1, c2)
    k_ref = c1.k * c2.k  # Kunneth: full-rank factors leave no transposed homology
    st: dict[str, Any] = {}

    def stage_input(tr):
        q = st["q"] = fresh(tr, base)
        m = st["m"] = tr.call("schedule.baseline_schedule", schedule.baseline_schedule, q, seed)
        tr.call("schedule.validate", m.validate, q)
        return {"params": params(tr, q), "steps": len(m.steps)}

    def stage_copy(tr):
        qc, cm = tr.call("reduce.copy_code", reduce.copy_code, st["q"])
        st["qc"], st["cm"] = qc, cm
        mc = st["mc"] = tr.call("schedule.copied_schedule", schedule.copied_schedule, st["m"], cm)
        tr.call("schedule.validate", mc.validate, qc)
        return {"params": params(tr, qc), "steps": len(mc.steps)}

    def stage_gauge(tr):
        qg, gm = tr.call("reduce.gauge_code", reduce.gauge_code, st["qc"])
        st["qg"], st["gm"] = qg, gm
        mg = st["mg"] = tr.call("schedule.gauged_schedule", schedule.gauged_schedule, st["mc"], gm, st["cm"])
        tr.call("schedule.validate", mg.validate, qg)
        return {"params": params(tr, qg), "steps": len(mg.steps)}

    def stage_thicken(tr):
        qt, bm = tr.call("reduce.thicken", reduce.thicken, st["qg"], 2)
        st["qt"], st["bm"] = qt, bm
        mt = st["mt"] = tr.call("schedule.balanced_schedule", schedule.balanced_schedule, st["mg"], bm)
        tr.call("schedule.validate", mt.validate, qt)
        return {"params": params(tr, qt), "steps": len(mt.steps)}

    def stage_heights(tr):
        qt, bm = st["qt"], st["bm"]
        hr = tr.call("reduce.greedy_heights", reduce.greedy_heights, qt, bm, 3)
        qh = st["qh"] = tr.call("reduce.choose_heights", reduce.choose_heights, qt, bm, hr.heights)
        keep = set(reduce.kept_z_rows(bm, hr.heights))
        mh = st["mh"] = tr.call("schedule.prune_z_steps", schedule.prune_z_steps, st["mt"], keep)
        tr.call("schedule.validate", mh.validate, qh)
        return {"params": params(tr, qh), "steps": len(mh.steps), "achieved_max": hr.achieved_max}

    def stage_cone(tr):
        q = st["q"]
        parts, fmap, _ = tr.call("cone.build_cone_parts", cone.build_cone_parts, q, 5)
        parts = st["parts"] = tr.call("cone.cellulate", cone.cellulate, parts)
        qk = st["qk"] = tr.call("cone.cone_code", cone.cone_code, q, parts, fmap)
        mk = tr.call("schedule.cone_schedule", schedule.cone_schedule, st["m"], parts, fmap)
        tr.call("schedule.validate", mk.validate, qk)
        return {"params": params(tr, qk), "steps": len(mk.steps), "parts": len(parts)}

    def stage_thicken_cone(tr):
        return {"params": params(tr, tr.call("cone.thicken_cone", cone.thicken_cone, st["qk"], 2))}

    def stage_audits(tr):
        qh = st["qh"]
        h_z_t = tr.call("f2la.transpose", f2la.transpose, qh.h_z)
        commutes = tr.call("f2la.mat_mul", f2la.mat_mul, qh.h_x, h_z_t).is_zero()
        hook = tr.call("faultdist.hook_weight_audit", faultdist.hook_weight_audit, qh, st["mh"])
        faults = []
        for basis in ("X", "Z"):
            faults += tr.call("faultdist.enumerate_faults", faultdist.enumerate_faults, st["qt"], st["mt"], basis)
        comp = tr.call(
            "faultdist.component_weight_audit", faultdist.component_weight_audit, st["qt"], st["bm"], faults
        )
        lam = tr.call("cone.soundness_lambda", cone.soundness_lambda, st["parts"])
        return {
            "commutes": commutes, "hook_ok": hook.ok, "hook_max": max(hook.per_step_max.values()),
            "hooks_checked": comp.checked, "component_violations": len(comp.violations), "lambda": lam,
        }

    def check_stage(answer):
        k = answer["params"][1]
        return None if k == k_ref else f"k = {k}, input k = {k_ref}"

    def check_audits(answer):
        if not answer["commutes"]:
            return "h_x . h_z^T != 0 after choosing heights"
        if answer["component_violations"]:
            return f"{answer['component_violations']} balanced-schedule hooks leave one row/column of region A"
        if not 0 < answer["lambda"] <= 1:
            return f"soundness factor {answer['lambda']} outside (0, 1]"
        return None

    def stage_counters(answer, transformed=True):
        n, _, n_x, n_z = answer["params"][:4]
        out = {"f2la.rank.bits": n * (n_x + n_z), "schedule.steps": answer.get("steps", 0)}
        if transformed:
            out["reduce.qubits_out"] = n
        return out

    questions = [Question("input", stage_input, check_stage, lambda a: True, lambda a: stage_counters(a, False))]
    for name, fn in (
        ("copy", stage_copy), ("gauge", stage_gauge), ("thicken", stage_thicken),
        ("heights", stage_heights), ("cone", stage_cone), ("thicken_cone", stage_thicken_cone),
    ):
        questions.append(Question(name, fn, check_stage, lambda a: True, stage_counters))
    questions.append(Question("audits", stage_audits, check_audits, lambda a: True, lambda a: {}))
    reduce.gauge_code(reduce.copy_code(codes.steane_code())[0])  # warm-up
    return questions


# -- schedule_survey ------------------------------------------------------

# Schedule seeds per code.  hgp(H7, rep3) gets one: each CLI call on it
# also enumerates 2^18 vectors for its X code distance, which would otherwise
# outweigh the CLI itself.
SCHEDULES_PER_CODE = {"steane": 12, "surface_2x3": 12, "hgp_r3_r3": 12, "r2xr2xr2": 12, "hgp_h7_r3": 1}


def survey_codes(tr) -> list[tuple[str, CssCode, int, int]]:
    """(name, code, d_X, d_Z); product distances come from the Kunneth predictor."""
    out = [
        ("steane", codes.steane_code(), 3, 3),  # the [[7,1,3]] code
        ("surface_2x3", codes.surface_code_2x3(), 2, 3),  # d_X = 2, d_Z = 3 by construction
    ]
    rep2, rep3, h7 = (classical_factor(n) for n in ("r2", "r3", "h7"))
    for name, factors in (("hgp_r3_r3", (rep3, rep3)), ("r2xr2xr2", (rep2, rep2, rep2)), ("hgp_h7_r3", (h7, rep3))):
        spec = ProductSpec(factors, level=1)
        if len(factors) == 2:
            q = tr.call("hgp.hgp", hgp, *factors)
        else:
            q, _ = tr.call("hgp.higher_dim_hgp", higher_dim_hgp, spec)
        pred = tr.call("hgp.kunneth_distance_predictor", kunneth_distance_predictor, spec)
        out.append((name, q, pred.d_x, pred.d_z))
    return out


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def fault_residuals(m, basis: str, n: int) -> list[int]:
    """Residual data errors of every elementary fault of one Pauli type, from
    the fault model itself: one error per data qubit, and for every step of
    that type the suffix of its gate order after each cut 1..w-1.  Duplicates
    are dropped."""
    out = {1 << qb for qb in range(n)}
    for s in m.steps:
        if s.basis == basis:
            suffix = 0
            for qb in reversed(s.order[1:]):
                suffix |= 1 << qb
                out.add(suffix)
    return sorted(out)


def no_logical_below(q: CssCode, basis: str, residuals: list[int], t_max: int) -> bool:
    """Brute force: no set of at most t_max residuals XORs to a nontrivial logical."""
    for t in range(1, t_max + 1):
        for subset in combinations(residuals, t):
            v = 0
            for r in subset:
                v ^= r
            if q.is_logical(v, basis):
                return False
    return True


def survey_question(name: str, q: CssCode, d: dict[str, int], hx: str, hz: str, sched_seed: int) -> Question:
    max_d = max(d.values())  # both bases searched up to their code distance
    argv = ["faultdist", "--hx", hx, "--hz", hz, "--basis", "both",
            "--schedule", f"seed:{sched_seed}", "--max-d", str(max_d)]
    m = schedule.baseline_schedule(q, sched_seed)
    residuals = {b: fault_residuals(m, b, q.n) for b in "XZ"}

    def ask(tr):
        return tr.call("cli.main", call_cli, argv)

    def distances(answer) -> dict:
        rc, out, err = answer
        if rc != 0:
            raise ValueError(f"exit code {rc}: {err.strip()}")
        return json.loads(out)["distances"]

    def check(answer):
        try:
            dist = distances(answer)
        except ValueError as e:
            return str(e)
        for b in "XZ":
            code_entry, eff = dist[f"code_{b}"], dist[f"effective_{b}"]
            if code_entry["method"] != "skipped" and code_entry["value"] != d[b]:
                return f"code_{b} = {code_entry['value']}, reference {d[b]}"
            value = eff["value"]
            # data-qubit faults alone reach d[b] <= max_d, so the search must end
            if value == "inf" or not 1 <= value <= d[b]:
                return f"effective_{b} = {value} outside 1..{d[b]}"
            v = 0
            for g in eff["witness"]:
                for j in g["residual"]:
                    v ^= 1 << (j - 1)
            if len(eff["witness"]) != value or not q.is_logical(v, b):
                return f"effective_{b} witness is not a weight-{value} logical"
            if not no_logical_below(q, b, residuals[b], value - 1):
                return f"a logical of fewer than {value} faults exists in basis {b}"
        return None

    def exact(answer):
        dist = distances(answer)
        return all(e["method"] != "skipped" and e["value"] != "inf" for e in dist.values())

    def counters(answer):
        out: dict[str, int] = {}
        for b in "XZ":
            value = distances(answer)[f"effective_{b}"]["value"]
            levels = max_d if value == "inf" else value
            n_gens = len(residuals[b])
            for key, v in (
                ("faultdist.generators", n_gens),
                ("faultdist.levels", levels),
                ("faultdist.mitm_subsets", mitm_subsets(n_gens, range(1, levels + 1))),
            ):
                out[key] = out.get(key, 0) + v
            out["faultdist.table_entries_max"] = max(out.get("faultdist.table_entries_max", 0), comb(n_gens, levels // 2))
            for key, v in css_distance_work(q, b, d[b]).items():
                out[key] = out.get(key, 0) + v
        return out

    def replay(tr):
        """The library calls behind one CLI call, made directly."""
        h_x = tr.call("cli.load_matrix", cli.load_matrix, hx)
        h_z = tr.call("cli.load_matrix", cli.load_matrix, hz)
        code = tr.call("codes.CssCode", CssCode, h_x, h_z)
        ms = tr.call("schedule.baseline_schedule", schedule.baseline_schedule, code, sched_seed)
        tr.call("schedule.validate", ms.validate, code)
        for b in "XZ":
            tr.call("codes.css_distance", codes.css_distance, code, b)
            g = tr.call("faultdist.enumerate_faults", faultdist.enumerate_faults, code, ms, b)
            tr.call("faultdist.effective_distance", faultdist.effective_distance, code, ms, b, max_d, generators=g)
            tr.call("faultdist.hook_weight_audit", faultdist.hook_weight_audit, code, ms)

    return Question(f"{name}_s{sched_seed}", ask, check, exact, counters, replay, distances)


def setup_schedule_survey(seed: int, tr, workdir: str) -> list[Question]:
    rng = random.Random(seed)
    questions = []
    for name, q, d_x, d_z in survey_codes(tr):
        hx, hz = (os.path.join(workdir, f"{name}.{b}.mtxf2") for b in ("hx", "hz"))
        cli.write_matrix_file(hx, q.h_x)
        cli.write_matrix_file(hz, q.h_z)
        for _ in range(SCHEDULES_PER_CODE[name]):
            questions.append(survey_question(name, q, {"X": d_x, "Z": d_z}, hx, hz, rng.randrange(1, 10**6)))
    call_cli(["info", "--hx", hx, "--hz", hz])  # warm-up
    return questions


SETUPS = {
    "effective_deep": setup_effective_deep,
    "code_distance": setup_code_distance,
    "transform_build": setup_transform_build,
    "schedule_survey": setup_schedule_survey,
}
