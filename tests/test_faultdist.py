import random
import re

import pytest

from qwr.codes import INF, CapExceeded, CssCode, css_distance, css_search, repetition_code, steane_code, surface_code_2x3
from qwr.f2la import BinMatrix
from qwr.faultdist import (
    FaultGenerator,
    component_weight_audit,
    effective_distance,
    enumerate_faults,
    hook_weight_audit,
    oracle_effective_distance,
    witness_is_valid,
)
from qwr.hgp import hgp
from qwr.reduce import thicken
from qwr.schedule import Schedule, Step, balanced_schedule, baseline_schedule, enumerate_random_schedules

from helpers import corpus, random_css, reference_component_audit, reference_enumerate_faults


class TestEnumerateFaults:
    def test_hook_suffix(self):
        # weight-5 step, cut after gate 2 leaves the last three qubits
        hx = BinMatrix.from_rows([[1, 1, 1, 1, 1]])
        q = CssCode(hx, BinMatrix([], 5))
        m = Schedule((Step("X", 0, (0, 1, 2, 3, 4)),))
        gens = enumerate_faults(q, m, "X")
        hooks = [g for g in gens if g.kind == "hook"]
        cut2 = [g for g in hooks if g.cut == 2][0]
        assert cut2.residual == 0b11100

    def test_weight_two_step_single_hook(self):
        hx = BinMatrix.from_rows([[1, 1]])
        q = CssCode(hx, BinMatrix([], 2))
        m = Schedule((Step("X", 0, (0, 1)),))
        hooks = [g for g in reference_enumerate_faults(q, m, "X", dedup=False) if g.kind == "hook"]
        assert len(hooks) == 1
        assert hooks[0].residual.bit_count() == 1
        # that hook leaves a data fault's residual, so the fault list drops it
        assert [g.kind for g in enumerate_faults(q, m, "X")] == ["data", "data"]

    def test_steane_seed0_count(self):
        q = steane_code()
        m = baseline_schedule(q, 0)
        every = reference_enumerate_faults(q, m, "X", dedup=False)
        expected = q.n + sum(len(s.order) - 1 for s in m.steps if s.basis == "X")
        assert len(every) == expected
        assert len(enumerate_faults(q, m, "X")) == len({g.residual for g in every})

    def test_dedup_keeps_lowest_origin(self):
        q = steane_code()
        m = baseline_schedule(q, 0)
        gens = enumerate_faults(q, m, "X")
        residuals = [g.residual for g in gens]
        assert len(residuals) == len(set(residuals))
        weight_one = [g for g in gens if g.residual.bit_count() == 1]
        assert all(g.kind == "data" for g in weight_one)

    def test_opposite_basis_steps_excluded(self):
        q = steane_code()
        m = baseline_schedule(q, 0)
        gens = enumerate_faults(q, m, "Z")
        assert all(m.steps[g.step].basis == "Z" for g in gens if g.kind == "hook")


class TestEffectiveDistance:
    def test_hgp_13_any_schedule(self):
        q = hgp(repetition_code(3), repetition_code(3))
        for m in enumerate_random_schedules(q, 5, seed=2):
            r = effective_distance(q, m, "X", 3)
            assert r.distance == 3
            assert witness_is_valid(q, "X", r)

    def test_k_zero_infinite(self):
        q = CssCode(BinMatrix.identity(3), BinMatrix([], 3))
        m = baseline_schedule(q, 0)
        assert effective_distance(q, m, "X", 4).distance == INF

    def test_bound_reported(self):
        q = hgp(repetition_code(3), repetition_code(3))
        m = baseline_schedule(q, 0)
        r = effective_distance(q, m, "X", 2)
        assert r.distance == INF and r.exact_up_to == 2

    def test_single_qubit_no_checks(self):
        q = CssCode(BinMatrix([], 1), BinMatrix([], 1))
        m = baseline_schedule(q, 0)
        assert effective_distance(q, m, "X", 2).distance == 1

    def test_generators_of_the_other_basis_raise(self):
        # searched as X faults, the Z generators would answer 1 through a Z
        # hook, though the X effective distance is 2
        q = surface_code_2x3()
        m = baseline_schedule(q, 0)
        x_gens, z_gens = enumerate_faults(q, m, "X"), enumerate_faults(q, m, "Z")
        for search in (effective_distance, oracle_effective_distance):
            assert search(q, m, "X", 4, generators=x_gens).distance == 2
            message = f"generator 0 of a basis-X search has basis Z: {z_gens[0]}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                search(q, m, "X", 4, generators=z_gens)
            # the first mismatch is named, here after every X generator
            with pytest.raises(ValueError, match=f"^generator {len(x_gens)} of a basis-X search has basis Z"):
                search(q, m, "X", 4, generators=x_gens + z_gens[::-1])

    def test_upper_bounded_by_code_distance(self):
        for q in corpus(53, 8, n_max=9):
            if q.k == 0:
                continue
            d = css_distance(q, "X")
            m = baseline_schedule(q, 6)
            r = effective_distance(q, m, "X", int(d))
            assert r.distance <= d


class TestOracleEquivalence:
    def test_steane_max_d_1(self):
        q = steane_code()
        m = baseline_schedule(q, 0)
        r = oracle_effective_distance(q, m, "X", 1)
        assert r.distance == INF

    def test_agreement_on_corpus(self):
        rng = random.Random(61)
        checked = 0
        while checked < 12:
            q = random_css(rng, n_max=8)
            if q.k == 0:
                continue
            m = baseline_schedule(q, rng.randrange(1, 1000))
            basis = rng.choice(["X", "Z"])
            fast = effective_distance(q, m, basis, 3)
            slow = oracle_effective_distance(q, m, basis, 3)
            assert fast.distance == slow.distance
            assert witness_is_valid(q, basis, fast)
            assert witness_is_valid(q, basis, slow)
            checked += 1

    def test_monotone_under_extra_generators(self):
        cases = [(steane_code(), 0)]
        rng = random.Random(71)
        while len(cases) < 6:
            q = random_css(rng, n_max=9)
            if q.k >= 1:
                cases.append((q, rng.randrange(1, 1000)))
        for q, seed in cases:
            m = baseline_schedule(q, seed)
            for basis in ("X", "Z"):
                deduped = enumerate_faults(q, m, basis)
                full = reference_enumerate_faults(q, m, basis, dedup=False)
                a = effective_distance(q, m, basis, 4, generators=deduped)
                b = effective_distance(q, m, basis, 4, generators=full)
                assert b.distance <= a.distance


class TestHookAudit:
    def test_weights(self):
        for weight, expect in ((5, 2), (3, 1), (2, 1)):
            hx = BinMatrix.from_rows([[1] * weight])
            q = CssCode(hx, BinMatrix([], weight))
            m = Schedule((Step("X", 0, tuple(range(weight))),))
            rep = hook_weight_audit(q, m)
            assert rep.ok
            assert rep.per_step_max[0] == expect

    def test_corpus_schedules(self):
        for q in corpus(67, 10):
            for seed in (0, 3):
                assert hook_weight_audit(q, baseline_schedule(q, seed)).ok


class TestWeightThreeCorollary:
    def test_effective_equals_code_distance(self):
        # all X checks of weight <= 3: hooks act like single data errors
        q = hgp(repetition_code(2), repetition_code(2))
        assert q.w_x <= 3 and q.w_z <= 3
        d_x, d_z = css_distance(q, "X"), css_distance(q, "Z")
        for m in enumerate_random_schedules(q, 20, seed=8):
            assert effective_distance(q, m, "X", int(d_x)).distance == d_x
            assert effective_distance(q, m, "Z", int(d_z)).distance == d_z


class TestComponentAudit:
    def test_thickened_surface(self):
        s = surface_code_2x3()
        st, bm = thicken(s, 3)
        m = balanced_schedule(baseline_schedule(s, 5), bm)
        faults = [g for basis in "XZ" for g in reference_enumerate_faults(st, m, basis, dedup=False)]
        rep = component_weight_audit(st, bm, faults)
        assert rep.ok and rep.checked > 0

    def test_hand_built_violations(self):
        st, bm = thicken(steane_code(), 3)
        a, b0 = bm.a_qubit, 1 << bm.n_a  # a(row, col) indexes a region-A bit; b0 is the first region-B bit

        def hook(residual, basis, row):
            return FaultGenerator("hook", basis, residual, step=0, row=row, cut=1)

        zb = bm.zb_row(0, 0)
        two_cols = (1 << a(0, 0)) | (1 << a(0, 2))
        two_rows = (1 << a(1, 1)) | (1 << a(4, 1))
        faults = [
            hook(two_cols, "X", 0),  # bad: X hook over two columns
            hook(two_rows | b0, "X", 1),  # one column, plus region B
            hook(two_cols, "Z", 0),  # bad: Z[T] hook over two columns
            hook(two_rows, "Z", bm.n_zt - 1),  # one Z[T] column
            hook(two_rows, "Z", zb),  # bad: Z[B] hook over two rows
            hook(two_cols | (1 << a(0, 1)), "Z", zb),  # one Z[B] row
            hook(b0 | (b0 << 3), "Z", zb),  # region B only
            hook(1 << a(6, 2), "X", 2),
            FaultGenerator("data", "X", two_rows | two_cols, qubit=0),  # not a hook: skipped
            hook((1 << a(6, 0)) | (1 << a(6, 2)), "Z", zb + 1),  # one Z[B] row, last row
            hook((1 << a(5, 2)) | (1 << a(6, 2)), "Z", zb + 1),  # bad: two rows ending at the last
        ]
        rep = component_weight_audit(st, bm, faults)
        assert rep.checked == 10
        assert rep.violations == (faults[0], faults[2], faults[4], faults[10])
        assert (rep.checked, rep.violations) == reference_component_audit(bm, faults)

    @pytest.mark.parametrize("dedup", [False, True])
    def test_matches_per_bit_reference(self, dedup):
        # every generator with its duplicates, or the fault list
        faults_of = enumerate_faults if dedup else lambda q, m, basis: reference_enumerate_faults(q, m, basis, False)
        cases = [(surface_code_2x3(), 3), (steane_code(), 2), (hgp(repetition_code(3), repetition_code(3)), 2)]
        for q, ell in cases:
            qt, bm = thicken(q, ell)
            for m in [balanced_schedule(baseline_schedule(q, 5), bm)] + enumerate_random_schedules(qt, 2, seed=4):
                faults = faults_of(qt, m, "X") + faults_of(qt, m, "Z")
                rep = component_weight_audit(qt, bm, faults)
                # a hook residual lies inside one check of the thickened code, so every schedule passes
                assert rep.ok and (rep.checked, rep.violations) == reference_component_audit(bm, faults)
                # residuals of two hooks from different steps may span rows and columns
                hooks = [g for g in faults if g.kind == "hook"]
                mixed = faults + [g._replace(residual=g.residual ^ h.residual) for g, h in zip(hooks, hooks[5:])]
                rep = component_weight_audit(qt, bm, mixed)
                assert not rep.ok and (rep.checked, rep.violations) == reference_component_audit(bm, mixed)

    def test_rejects_dual_map(self):
        from qwr.reduce import balance_z

        q = hgp(repetition_code(2), repetition_code(2))
        qb, bm = balance_z(q, repetition_code(2))
        with pytest.raises(ValueError):
            component_weight_audit(qb, bm, [])


def steane_case():
    q = steane_code()
    return q, baseline_schedule(q, 0)


@pytest.mark.parametrize("call, exc, message", [
    (lambda: effective_distance(*steane_case(), "X", 0), ValueError, "max_d must be >= 1"),
    # 2^30 - 1 subsets of 30 generators: refused before any is enumerated
    (lambda: oracle_effective_distance(*steane_case(), "X", 30, generators=[FaultGenerator("data", "X", 1, 0)] * 30),
     CapExceeded, "1073741823 combinations exceed the oracle cap"),
])
def test_bad_requests_raise(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


def test_witness_of_the_wrong_length_is_invalid():
    q, m = steane_case()
    found = effective_distance(q, m, "X", 3)
    assert witness_is_valid(q, "X", found)
    assert not witness_is_valid(q, "X", found._replace(witness=found.witness[:-1]))


@pytest.mark.parametrize("basis", ["Y", "x"])
@pytest.mark.parametrize("call", [
    lambda q, m, basis: css_search(q, basis),
    lambda q, m, basis: effective_distance(q, m, basis, 4),
    lambda q, m, basis: enumerate_faults(q, m, basis),
])
@pytest.mark.parametrize("q", [surface_code_2x3(), CssCode(BinMatrix([0b11], 2), BinMatrix([0b11], 2))], ids=["k1", "k0"])
def test_unknown_basis_raises(call, basis, q):
    # not answered as either basis: data faults would carry the label and the search would flip it to 'Z'
    message = f"basis must be 'X' or 'Z', got {basis!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(q, baseline_schedule(q, 0), basis)
