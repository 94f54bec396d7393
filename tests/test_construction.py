"""The construction path gives exactly what the routines it replaced gave
(kept in helpers.py): product codes built from two boundaries, fault lists
deduplicated as they are emitted, hook audits reading the same suffix masks,
mask-based schedule validation, early-stopping logical bases and
list-returning bit_indices."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from qwr.codes import (
    CssCode,
    css_to_complex,
    hamming_7_4,
    logical_basis,
    repetition_code,
    steane_code,
    surface_code_2x3,
)
from qwr.f2la import BinMatrix, bit_indices
from qwr.faultdist import HookAuditReport, enumerate_faults, hook_weight_audit
from qwr.hgp import ProductSpec, higher_dim_hgp, hgp, one_complex, product_css, tensor_complex
from qwr.reduce import balance_x, balance_z
from qwr.schedule import Schedule, Step, baseline_schedule, carry, enumerate_random_schedules

from helpers import (
    complex_to_css,
    corpus,
    load_script,
    random_classical,
    reference_enumerate_faults,
    reference_fold,
    reference_fold_degrees,
    reference_hook_weight_audit,
    reference_logical_basis_full,
    reference_schedule_validate,
    reference_tensor_complex,
)

R2, R3, R4, H7 = repetition_code(2), repetition_code(3), repetition_code(4), hamming_7_4()


def load_gf2_layers():
    """scripts/gf2_layers.py, whose build_chain makes the transform_build stage codes."""
    return load_script("gf2_layers")


@pytest.fixture(scope="module")
def stage_chain():
    return load_gf2_layers().build_chain(0)


def whole_complex_css(a, b, level):
    return complex_to_css(reference_tensor_complex(a, b), level)


def factor_complexes(spec):
    return [one_complex(c, d) for c, d in zip(spec.factors, spec.dualized)]


class TestProductCss:
    """Product codes against the pairwise product of the reference, folded
    from the left."""

    def test_hgp_on_random_factors(self):
        rng = random.Random(11)
        pairs = [(R2, R3), (H7, H7), (R3, H7)] + [(random_classical(rng), random_classical(rng)) for _ in range(20)]
        for c1, c2 in pairs:
            a, b = one_complex(c1), one_complex(c2, dualized=True)
            assert product_css((a, b), 1) == whole_complex_css(a, b, 1) == hgp(c1, c2)

    def test_tensor_complex_on_corpus(self):
        codes = corpus(37, 6) + [steane_code(), surface_code_2x3()]
        for q, r in zip(codes, codes[1:]):
            a = css_to_complex(q)
            for b in (css_to_complex(r.transposed()), one_complex(H7)):
                assert tensor_complex(a, b) == reference_tensor_complex(a, b)

    @pytest.mark.parametrize("classical", [R2, R3, H7], ids=["rep2", "rep3", "H7"])
    def test_balance_on_corpus(self, classical):
        dual = one_complex(classical, dualized=True)
        for q in corpus(31, 15) + [steane_code(), surface_code_2x3()]:
            assert balance_x(q, classical)[0] == whole_complex_css(css_to_complex(q), dual, 1)
            expect_z = whole_complex_css(css_to_complex(q.transposed()), dual, 1).transposed()
            assert balance_z(q, classical)[0] == expect_z

    @pytest.mark.parametrize("factors", [
        (R2, R2, R2), (R3, H7, R2), (H7, R2, R3), (R2, R2, R2, R2), (R2, R3, R2, H7),
        (R4, H7, R2, R3), (H7, R4, R3, R4), (R3, R2, H7, R4),
    ], ids=["r2r2r2", "r3h7r2", "h7r2r3", "r2r2r2r2", "r2r3r2h7", "r4h7r2r3", "h7r4r3r4", "r3r2h7r4"])
    def test_higher_dim_every_level(self, factors):
        for level in range(1, len(factors)):
            spec = ProductSpec(factors, level)
            assert higher_dim_hgp(spec)[0] == complex_to_css(reference_fold(factor_complexes(spec)), level)

    @pytest.mark.parametrize("n_factors", [2, 3, 4])
    def test_layout_follows_qubit_order(self, n_factors):
        """qubit_blocks lists each qubit's degree per factor in qubit order,
        and every X check joins qubits one degree above its own in one factor."""
        for factors in itertools.product((R2, R3, H7) if n_factors < 4 else (R2, R3, R4), repeat=n_factors):
            for level in range(1, n_factors):
                spec = ProductSpec(factors, level)
                code, layout = higher_dim_hgp(spec)
                complexes = factor_complexes(spec)
                qubits = [degrees for degrees, size in layout.qubit_blocks for _ in range(size)]
                assert qubits == reference_fold_degrees(complexes, level)
                checks = reference_fold_degrees(complexes, level - 1)
                for check, row in zip(checks, code.h_x.rows):
                    for qb in bit_indices(row):
                        assert sorted(a - b for a, b in zip(qubits[qb], check)) == [0] * (n_factors - 1) + [1]

    def test_level_out_of_range(self):
        a, b = one_complex(R2), one_complex(R3, dualized=True)
        for level in (0, 2):
            with pytest.raises(ValueError, match=r"level must be in 1\.\.1"):
                product_css((a, b), level)


def carried_schedules():
    """(code, schedule) pairs: Steane and the surface patch with their
    baseline schedules, and hgp(H7, H7) carried through copy -> gauge -> thicken(2)."""
    out = [(q, baseline_schedule(q)) for q in (steane_code(), surface_code_2x3())]
    q = hgp(H7, H7)
    code, m, prev = q, baseline_schedule(q), None
    for name in ("copy", "gauge", "thicken"):
        code, m, prev, _ = carry(name, code, m, prev)
        out.append((code, m))
    return out


class TestEnumerateFaults:
    def test_carried_schedules(self):
        for q, m in carried_schedules():
            for basis in "XZ":
                assert enumerate_faults(q, m, basis) == reference_enumerate_faults(q, m, basis)

    def test_random_schedules(self):
        for seed, q in enumerate([steane_code(), surface_code_2x3(), hgp(R3, R3)] + corpus(41, 2)):
            for m in enumerate_random_schedules(q, 4, seed):  # 20 schedules in all
                for basis in "XZ":
                    assert enumerate_faults(q, m, basis) == reference_enumerate_faults(q, m, basis)


    def test_stage_chain(self, stage_chain):
        for _, q, m, _, _ in stage_chain:
            for basis in "XZ":
                assert enumerate_faults(q, m, basis) == reference_enumerate_faults(q, m, basis)


def audited_schedules(stage_chain):
    """Carried, stage-chain and seeded random schedules with their codes."""
    cases = carried_schedules() + [(q, m) for _, q, m, _, _ in stage_chain]
    for seed, q in enumerate([steane_code(), surface_code_2x3(), hgp(R3, R3)] + corpus(41, 2)):
        cases += [(q, m) for m in enumerate_random_schedules(q, 4, seed)]
    return cases


class TestHookAudit:
    def test_carried_random_and_stage_schedules(self, stage_chain):
        worst = set()
        for q, m in audited_schedules(stage_chain):
            report = hook_weight_audit(q, m)
            assert report == reference_hook_weight_audit(q, m)
            worst.update(report.per_step_max.values())
        assert len(worst) > 5  # per-step maxima of many sizes

    def test_valid_schedules_score_half_each_weight(self, stage_chain):
        # a valid step's cut k leaves w - k qubits of its row, equivalent to
        # the other k, so it scores floor(w/2) and is never flagged
        for q, m in audited_schedules(stage_chain):
            m.validate(q)
            report = hook_weight_audit(q, m)
            assert report.ok and report.per_step_max == {si: len(s.order) // 2 for si, s in enumerate(m.steps)}
        # only a gate order that is not its row's support can be: row {0, 1}
        # run as 0, 2, 3, 4 leaves hook {2, 3, 4}, whose XOR with the row weighs 5
        q = CssCode(BinMatrix.from_support([(0, 1)], 5), BinMatrix([], 5))
        off = Schedule((Step("X", 0, (0, 2, 3, 4)),))
        with pytest.raises(ValueError, match="is not its support"):
            off.validate(q)
        assert hook_weight_audit(q, off) == HookAuditReport({0: 3}, (0,))

    def test_broken_orders_match_the_residual_formula(self, stage_chain):
        # validated orders take the floor(w/2) path; a step broken in one of
        # the ways below must score as the full residual formula scores it
        kinds = ("permuted", "repeated", "foreign", "beyond_n", "dropped", "negative_first", "empty")
        rng = random.Random(5)
        for q, m in audited_schedules(stage_chain):
            broken = Schedule(tuple(broken_step(q, s, rng.choice(kinds), rng) for s in m.steps))
            for sched in (m, broken):
                assert hook_weight_audit(q, sched) == reference_hook_weight_audit(q, sched)


def broken_step(q, s, kind, rng):
    """s with its gate order broken in one way (permuted keeps the support)."""
    order = list(s.order)
    if kind == "permuted":
        rng.shuffle(order)
    elif kind == "repeated" and order:
        order.insert(rng.randrange(len(order) + 1), rng.choice(order))
    elif kind == "foreign" and order:
        outside = [qb for qb in range(q.n) if qb not in order]
        if outside:
            order[rng.randrange(len(order))] = rng.choice(outside)
    elif kind == "beyond_n":
        order.insert(rng.randrange(len(order) + 1), q.n + rng.randrange(3))
    elif kind == "dropped" and order:
        order.pop(rng.randrange(len(order)))
    elif kind == "negative_first" and order:
        order[0] = -1  # the residuals never read the first qubit
    elif kind == "empty":
        order = []
    return Step(s.basis, s.row, tuple(order))


def validate_message(validate, m, q):
    try:
        validate(m, q)
    except ValueError as e:
        return str(e)
    return None


class TestValidate:
    def bad_schedules(self, q):
        """Hand-built schedules each breaking one rule, first X step edited."""
        good = baseline_schedule(q)
        first, rest = good.steps[0], good.steps[1:]
        order = first.order
        edits = {
            "negative": order[:-1] + (-1,),
            "beyond_n": order[:-1] + (q.n,),
            "huge": order[:-1] + (10**20,),
            "huge_negative": (-(10**20),) + order[1:],
            "repeated": order + (order[0],),
            "repeated_swap": order[:-1] + (order[0],),
            "missing": order[:-1],
            "extra": order + (next(j for j in range(q.n) if j not in order),),
            "empty": (),
        }
        out = {name: Schedule((Step(first.basis, first.row, o),) + rest) for name, o in edits.items()}
        out["row_range"] = Schedule((Step("X", q.n_x, order),) + rest)
        out["negative_row"] = Schedule((Step("Z", -1, order),) + rest)
        out["duplicate"] = Schedule(good.steps + (first,))
        out["uncovered"] = Schedule(rest)
        out["good"] = good
        return out

    @pytest.mark.parametrize("code", [steane_code, surface_code_2x3, lambda: hgp(R3, H7)],
                             ids=["steane", "surface", "hgp_r3_h7"])
    def test_messages_match(self, code):
        q = code()
        for name, m in self.bad_schedules(q).items():
            got = validate_message(Schedule.validate, m, q)
            assert got == validate_message(reference_schedule_validate, m, q), name
            if name in ("negative", "beyond_n", "huge", "huge_negative", "repeated", "repeated_swap", "missing",
                        "extra", "empty"):
                assert got == f"gate order of X row {m.steps[0].row} is not its support", name
            assert (got is None) == (name == "good"), name

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("XZ"), st.integers(-1, 4),
                              st.lists(st.integers(-2, 8) | st.sampled_from([64, 10**20, -(10**20)]), max_size=6)),
                    max_size=8))
    def test_fuzzed_schedules(self, raw):
        q = steane_code()
        m = Schedule(tuple(Step(b, r, tuple(o)) for b, r, o in raw))
        assert validate_message(Schedule.validate, m, q) == validate_message(reference_schedule_validate, m, q)


class TestLogicalBasis:
    def test_stage_chain(self, stage_chain):
        for _, q, _, _, _ in stage_chain:
            for basis in "XZ":
                assert logical_basis(q, basis) == reference_logical_basis_full(q, basis)

    def test_corpora(self):
        for q in corpus(7, 40) + corpus(8, 20, n_max=20):
            for basis in "XZ":
                assert logical_basis(q, basis) == reference_logical_basis_full(q, basis)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**4000 - 1) | st.sets(st.integers(0, 3999), max_size=40).map(lambda s: sum(1 << j for j in s)))
@example(0)
@example(1 << 3999)
@example(2**4000 - 1)
def test_bit_indices_ascending(v):
    assert bit_indices(v) == sorted(j for j in range(v.bit_length()) if v >> j & 1)
