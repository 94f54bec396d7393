import re

import pytest

from qwr.codes import CssCode, repetition_code, ring_face_code, steane_code, surface_code_2x3
from qwr.cone import build_cone_parts, cellulate, cone_code
from qwr.f2la import BinMatrix
from qwr.hgp import hgp
from qwr.reduce import balance_x, balance_z, choose_heights, copy_code, gauge_code, kept_z_rows, thicken
from qwr.schedule import (
    balanced_schedule,
    baseline_schedule,
    cone_schedule,
    copied_schedule,
    enumerate_random_schedules,
    format_schedule,
    gauged_schedule,
    parse_schedule,
    prune_z_steps,
    Schedule,
    Step,
)

from helpers import corpus


class TestBaseline:
    def test_seed_zero_canonical(self):
        q = steane_code()
        m = baseline_schedule(q, 0)
        assert [s.basis for s in m.steps] == ["X"] * 3 + ["Z"] * 3
        assert all(s.order == tuple(sorted(s.order)) for s in m.steps)
        m.validate(q)

    def test_determinism(self):
        q = steane_code()
        assert baseline_schedule(q, 99) == baseline_schedule(q, 99)

    def test_random_seeds_valid(self):
        q = hgp(repetition_code(3), repetition_code(3))
        for seed in (1, 2, 77):
            baseline_schedule(q, seed).validate(q)


class TestEnumerateRandom:
    def test_count_zero(self):
        assert enumerate_random_schedules(steane_code(), 0) == []

    def test_all_valid(self):
        q = hgp(repetition_code(2), repetition_code(2))
        for m in enumerate_random_schedules(q, 10, seed=5):
            m.validate(q)

    def test_neighboring_seeds_differ(self):
        q = hgp(repetition_code(3), repetition_code(3))
        a = enumerate_random_schedules(q, 1, seed=3)[0]
        b = enumerate_random_schedules(q, 1, seed=4)[0]
        assert a != b


class TestCopiedSchedule:
    def test_half_interleaving(self):
        # q_X = 4, Z row over two qubits: copies split 2 + 2 per group
        hx = BinMatrix.from_rows([[1, 1], [1, 1], [1, 1], [1, 1]])
        hz = BinMatrix([], 2)
        q = CssCode(hx, hz)
        qc, cm = copy_code(q)
        hz2 = BinMatrix([(1 << 8) - 1], 8)  # all copies of both qubits
        qc2 = CssCode(qc.h_x, hz2)
        m = baseline_schedule(q, 0)
        from qwr.schedule import Schedule, Step

        m = Schedule(m.steps + (Step("Z", 0, (0, 1)),))
        mc = copied_schedule(m, cm)
        z_step = [s for s in mc.steps if s.basis == "Z"][0]
        assert z_step.order == (0, 1, 4, 5, 2, 3, 6, 7)
        mc.validate(qc2)

    def test_qx_one_isomorphic(self):
        hx = BinMatrix.from_rows([[1, 1, 0, 0]])
        hz = BinMatrix.from_rows([[0, 0, 1, 1]])
        q = CssCode(hx, hz)
        qc, cm = copy_code(q)
        m = baseline_schedule(q, 11)
        mc = copied_schedule(m, cm)
        assert [s.order for s in mc.steps] == [s.order for s in m.steps]

    def test_copied_steane_valid(self):
        q = steane_code()
        qc, cm = copy_code(q)
        for seed in (0, 5):
            copied_schedule(baseline_schedule(q, seed), cm).validate(qc)


class TestGaugedSchedule:
    def test_structure_on_copied_steane(self):
        q = steane_code()
        qc, cm = copy_code(q)
        qg, gm = gauge_code(qc)
        for seed in (0, 9):
            m = copied_schedule(baseline_schedule(q, seed), cm)
            mg = gauged_schedule(m, gm, cm)
            mg.validate(qg)

    def test_split_rows_consecutive(self):
        q = steane_code()
        qc, cm = copy_code(q)
        qg, gm = gauge_code(qc)
        m = copied_schedule(baseline_schedule(q, 0), cm)
        mg = gauged_schedule(m, gm, cm)
        x_rows = [s.row for s in mg.steps if s.basis == "X"]
        for r, rows in gm.split_rows.items():
            if len(rows) > 1:
                i = x_rows.index(rows[0])
                assert tuple(x_rows[i:i + len(rows)]) == rows

    def test_gauge_qubit_halves(self):
        # Z row over one 4-copy group and 2 gauge qubits: (g g v g g v)
        hx = BinMatrix.from_rows([[1, 1], [1, 1], [1, 1], [1, 1]])
        q = CssCode(hx, BinMatrix([], 2))
        qc, cm = copy_code(q)
        from qwr.schedule import Schedule, Step

        hz2 = BinMatrix([(1 << 8) - 1], 8)
        qc2 = CssCode(qc.h_x, hz2)
        qg, gm = gauge_code(qc2)
        patch = gm.z_patch.get(0, ())
        m = Schedule(
            tuple(Step("X", r, tuple(qc2.h_x.row_support(r))) for r in range(qc2.n_x))
            + (Step("Z", 0, tuple(range(8))),)
        )
        mg = gauged_schedule(m, gm, cm)
        z = [s for s in mg.steps if s.basis == "Z"][0]
        b = len(patch)
        copies_first = z.order[: 2 * 2]
        assert all(qb < 8 for qb in copies_first)
        assert z.order[4 : 4 + b // 2] == patch[: b // 2]

    def test_keeps_given_z_order(self):
        """A hand-ordered Z step keeps its order; the first half of its gauge
        qubits goes in after the first half-pass over the copy groups."""
        q = steane_code()
        qc, cm = copy_code(q)
        qg, gm = gauge_code(qc)
        m = copied_schedule(baseline_schedule(q, 0), cm)
        z = next(s for s in m.steps if s.basis == "Z" and gm.z_patch.get(s.row))
        cut = len(z.order) // cm.q_x * (cm.q_x // 2)
        order = z.order[:cut] + z.order[cut:cut + 2][::-1] + z.order[cut + 2:]  # one group's second half reversed
        assert order != z.order and sorted(order) == sorted(z.order)
        m = Schedule(tuple(Step("Z", s.row, order) if s is z else s for s in m.steps))
        mg = gauged_schedule(m, gm, cm)
        mg.validate(qg)
        patch = gm.z_patch[z.row]
        b = len(patch) // 2
        assert next(s for s in mg.steps if s.basis == "Z" and s.row == z.row).order == (
            order[:cut] + patch[:b] + order[cut:] + patch[b:]
        )

    def test_without_copy_map_first_half_leads(self):
        q = steane_code()
        qg, gm = gauge_code(q)
        m = baseline_schedule(q, 3)
        mg = gauged_schedule(m, gm)
        mg.validate(qg)
        for s, g in zip([s for s in m.steps if s.basis == "Z"], [s for s in mg.steps if s.basis == "Z"]):
            patch = gm.z_patch.get(s.row, ())
            b = len(patch) // 2
            assert g.order == patch[:b] + s.order + patch[b:]

    def test_no_split_matches_copied(self):
        # all rows at weight <= 3 already
        q = surface_code_2x3()
        qc, cm = copy_code(q)
        qg, gm = gauge_code(qc)
        assert all(len(rows) == 1 for rows in gm.split_rows.values())
        m = copied_schedule(baseline_schedule(q, 3), cm)
        mg = gauged_schedule(m, gm, cm)
        assert [s.order for s in mg.steps if s.basis == "Z"] == [
            s.order for s in m.steps if s.basis == "Z"
        ]


class TestBalancedSchedule:
    def test_trivial_classical(self):
        from qwr.codes import ClassicalCode

        q = steane_code()
        c = ClassicalCode(BinMatrix([], 1))
        qb, bm = balance_x(q, c)
        m = baseline_schedule(q, 0)
        mb = balanced_schedule(m, bm)
        assert len(mb.steps) == len(m.steps)
        mb.validate(qb)

    def test_step_count(self):
        q = hgp(repetition_code(2), repetition_code(2))
        qt, bm = thicken(q, 2)
        m = baseline_schedule(q, 4)
        mb = balanced_schedule(m, bm)
        assert len(mb.steps) == 2 * len(m.steps) + bm.n_zb
        mb.validate(qt)

    def test_balance_z_valid(self):
        q = hgp(repetition_code(2), repetition_code(2))
        qb, bm = balance_z(q, repetition_code(2))
        m = baseline_schedule(q, 4)
        mb = balanced_schedule(m, bm)
        mb.validate(qb)

    def test_validates_on_hgp_product(self):
        q = hgp(repetition_code(3), repetition_code(3))
        qt, bm = thicken(q, 2)
        balanced_schedule(baseline_schedule(q, 8), bm).validate(qt)


class TestPruneZSteps:
    def test_heights_pruning(self):
        s = surface_code_2x3()
        st, bm = thicken(s, 3)
        heights = [1, 2, 3]
        pruned_code = choose_heights(st, bm, heights)
        m = balanced_schedule(baseline_schedule(s, 0), bm)
        mp = prune_z_steps(m, set(kept_z_rows(bm, heights)))
        mp.validate(pruned_code)


class TestConeSchedule:
    def test_no_parts_identity(self):
        q = steane_code()
        parts, f, _ = build_cone_parts(q)
        m = baseline_schedule(q, 0)
        assert cone_schedule(m, parts, f) == m

    def test_parent_order_respected(self):
        r = ring_face_code(6)
        parts, f, _ = build_cone_parts(r)
        cparts = cellulate(parts)
        qc = cone_code(r, cparts, f)
        m = baseline_schedule(r, 21)
        mc = cone_schedule(m, cparts, f)
        mc.validate(qc)
        parent = next(s for s in m.steps if (s.basis, s.row) == ("Z", 0))
        new_z = [s for s in mc.steps if s.basis == "Z"]
        part = cparts[0]
        expected_rows = [
            len([zr for zr in range(r.n_z) if zr not in {p.parent_z_row for p in cparts}])
            + part.one_cells.index(qb)
            for qb in parent.order
        ]
        assert [s.row for s in new_z] == expected_rows

    def test_x_steps_extended(self):
        r = ring_face_code(6)
        parts, f, _ = build_cone_parts(r)
        cparts = cellulate(parts)
        qc = cone_code(r, cparts, f)
        m = baseline_schedule(r, 0)
        mc = cone_schedule(m, cparts, f)
        for s in mc.steps:
            if s.basis == "X" and s.row < r.n_x:
                pre = next(p for p in m.steps if (p.basis, p.row) == ("X", s.row)).order
                assert s.order[: len(pre)] == pre
                assert all(qb >= r.n for qb in s.order[len(pre):])


class TestSerialization:
    def test_roundtrip(self):
        q = hgp(repetition_code(3), repetition_code(3))
        for seed in (0, 13):
            m = baseline_schedule(q, seed)
            assert parse_schedule(format_schedule(m)) == m

    def test_format_shape(self):
        q = steane_code()
        text = format_schedule(baseline_schedule(q, 0))
        first = text.splitlines()[0]
        assert first.startswith("X 1 : ")
        assert "0" not in first.split(":")[1]  # 1-based qubits

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_schedule("Y 1 : 2\n")
        with pytest.raises(ValueError, match="1-based"):
            parse_schedule("X 1 : 0\n")


class TestInvariantsOnCorpus:
    def test_constructed_schedules_validate(self):
        for q in corpus(41, 12):
            m = baseline_schedule(q, 1)
            m.validate(q)
            if q.q_x >= 1:
                qc, cm = copy_code(q)
                mc = copied_schedule(m, cm)
                mc.validate(qc)
                qg, gm = gauge_code(qc)
                gauged_schedule(mc, gm, cm).validate(qg)
            qt, bm = thicken(q, 2)
            balanced_schedule(m, bm).validate(qt)
            parts, f, _ = build_cone_parts(q)
            cparts = cellulate(parts)
            qcone = cone_code(q, cparts, f)
            cone_schedule(m, cparts, f).validate(qcone)


def schedule_past_the_map(build):
    """A schedule whose one X step names row 99, adapted through the copy
    (or copy-then-gauge) map of Steane."""
    qc, cm = copy_code(steane_code())
    m = Schedule((Step("X", 99, (0,)),))
    return copied_schedule(m, cm) if build == "copy" else gauged_schedule(m, gauge_code(qc)[1], cm)


@pytest.mark.parametrize("build, message", [
    ("copy", "CopyMap does not cover X row 99: (99, 0)"),
    ("gauge", "GaugeMap does not cover X row 99"),
])
def test_uncovered_rows_raise(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        schedule_past_the_map(build)
