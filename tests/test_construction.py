"""The construction path gives exactly what the routines it replaced gave
(kept in helpers.py): product codes built from two boundaries, fault lists
deduplicated as they are emitted, hook audits reading the same suffix masks,
mask-based schedule validation, early-stopping logical bases and
list-returning bit_indices."""

import importlib.util
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from qwr.codes import (
    css_to_complex,
    hamming_7_4,
    logical_basis,
    repetition_code,
    steane_code,
    surface_code_2x3,
)
from qwr.f2la import bit_indices
from qwr.faultdist import enumerate_faults, hook_weight_audit
from qwr.hgp import ProductSpec, higher_dim_hgp, hgp, one_complex, product_css, tensor_complex
from qwr.reduce import balance_x, balance_z
from qwr.schedule import Schedule, Step, baseline_schedule, carry, enumerate_random_schedules

from helpers import (
    complex_to_css,
    corpus,
    random_classical,
    reference_enumerate_faults,
    reference_hook_weight_audit,
    reference_logical_basis_full,
    reference_schedule_validate,
)

R2, R3, H7 = repetition_code(2), repetition_code(3), hamming_7_4()


def load_gf2_layers():
    """scripts/gf2_layers.py, whose build_chain makes the transform_build stage codes."""
    path = pathlib.Path(__file__).parent.parent / "scripts" / "gf2_layers.py"
    spec = importlib.util.spec_from_file_location("gf2_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def stage_chain():
    return load_gf2_layers().build_chain(0)


def whole_complex_css(a, b, level):
    return complex_to_css(tensor_complex(a, b), level)


class TestProductCss:
    def test_hgp_on_random_factors(self):
        rng = random.Random(11)
        pairs = [(R2, R3), (H7, H7), (R3, H7)] + [(random_classical(rng), random_classical(rng)) for _ in range(20)]
        for c1, c2 in pairs:
            a, b = one_complex(c1), one_complex(c2, dualized=True)
            assert product_css(a, b, 1) == whole_complex_css(a, b, 1) == hgp(c1, c2)

    @pytest.mark.parametrize("classical", [R2, R3, H7], ids=["rep2", "rep3", "H7"])
    def test_balance_on_corpus(self, classical):
        dual = one_complex(classical, dualized=True)
        for q in corpus(31, 15) + [steane_code(), surface_code_2x3()]:
            assert balance_x(q, classical)[0] == whole_complex_css(css_to_complex(q), dual, 1)
            expect_z = whole_complex_css(css_to_complex(q.transposed()), dual, 1).transposed()
            assert balance_z(q, classical)[0] == expect_z

    @pytest.mark.parametrize("factors", [
        (R2, R2, R2), (R3, H7, R2), (H7, R2, R3), (R2, R2, R2, R2), (R2, R3, R2, H7),
    ], ids=["r2r2r2", "r3h7r2", "h7r2r3", "r2r2r2r2", "r2r3r2h7"])
    def test_higher_dim_every_level(self, factors):
        for level in range(1, len(factors)):
            spec = ProductSpec(factors, level)
            complexes = [one_complex(c, d) for c, d in zip(spec.factors, spec.dualized)]
            prod = complexes[0]
            for nxt in complexes[1:]:
                prod = tensor_complex(prod, nxt)
            assert higher_dim_hgp(spec)[0] == complex_to_css(prod, level)

    def test_level_out_of_range(self):
        a, b = one_complex(R2), one_complex(R3, dualized=True)
        for level in (0, 2):
            with pytest.raises(ValueError, match=r"level must be in 1\.\.1"):
                product_css(a, b, level)


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
    @pytest.mark.parametrize("dedup", [True, False])
    def test_carried_schedules(self, dedup):
        for q, m in carried_schedules():
            for basis in "XZ":
                assert enumerate_faults(q, m, basis, dedup) == reference_enumerate_faults(q, m, basis, dedup)

    @pytest.mark.parametrize("dedup", [True, False])
    def test_random_schedules(self, dedup):
        for seed, q in enumerate([steane_code(), surface_code_2x3(), hgp(R3, R3)] + corpus(41, 2)):
            for m in enumerate_random_schedules(q, 4, seed):  # 20 schedules in all
                for basis in "XZ":
                    assert enumerate_faults(q, m, basis, dedup) == reference_enumerate_faults(q, m, basis, dedup)

    def test_stage_chain(self, stage_chain):
        for _, q, m, _, _ in stage_chain:
            for basis in "XZ":
                assert enumerate_faults(q, m, basis) == reference_enumerate_faults(q, m, basis)


class TestHookAudit:
    def test_carried_random_and_stage_schedules(self, stage_chain):
        cases = carried_schedules() + [(q, m) for _, q, m, _, _ in stage_chain]
        for seed, q in enumerate([steane_code(), surface_code_2x3(), hgp(R3, R3)] + corpus(41, 2)):
            cases += [(q, m) for m in enumerate_random_schedules(q, 4, seed)]
        worst = set()
        for q, m in cases:
            report = hook_weight_audit(q, m)
            assert report == reference_hook_weight_audit(q, m)
            worst.update(report.per_step_max.values())
        assert len(worst) > 5  # per-step maxima of many sizes


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
@given(st.integers(0, 2**2000 - 1))
def test_bit_indices_ascending(v):
    assert bit_indices(v) == sorted(j for j in range(v.bit_length()) if v >> j & 1)
