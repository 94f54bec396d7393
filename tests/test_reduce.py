import random
import re

import pytest

from qwr.codes import (
    CssCode,
    css_distance,
    hamming_7_4,
    repetition_code,
    steane_code,
    surface_code_2x3,
)
from qwr.f2la import BinMatrix, bit_indices, echelon, reduce_vector
from qwr.hgp import hgp
from qwr.reduce import (
    balance_x,
    balance_z,
    choose_heights,
    copy_code,
    gauge_code,
    greedy_heights,
    thicken,
)

from helpers import (
    assert_copy_lemma,
    assert_gauge_lemma,
    assert_thicken_lemma,
    corpus,
    random_classical,
    random_css,
    reference_balance_x,
)


class TestCopy:
    def test_single_qubit_four_checks(self):
        # one qubit in 4 X checks becomes 4 copies linked by 3 gluing checks
        hx = BinMatrix.from_rows([[1, 1], [1, 0], [1, 0], [1, 0]])
        hz = BinMatrix([], 2)
        q = CssCode(hx, hz)
        qc, cm = copy_code(q)
        assert qc.n == 8
        assert len([g for g in cm.glue_rows if g[1] == 0]) == 3
        assert qc.q_x == 3

    def test_steane_counts(self):
        q = steane_code()
        qc, cm = copy_code(q)
        assert_copy_lemma(q, qc, cm)
        assert (qc.n, qc.k, qc.n_x) == (21, 1, 17)

    def test_qx_one_is_relabeling(self):
        hx = BinMatrix.from_rows([[1, 1, 0, 0]])
        hz = BinMatrix.from_rows([[0, 0, 1, 1]])
        q = CssCode(hx, hz)
        qc, cm = copy_code(q)
        assert qc.n == q.n
        assert not cm.glue_rows
        assert qc.h_x == q.h_x and qc.h_z == q.h_z

    def test_distances_multiply(self):
        q = steane_code()
        qc, _ = copy_code(q)
        assert css_distance(qc, "X") == 3
        assert css_distance(qc, "Z") == 9

    def test_stabilizer_group_equivalence(self):
        # rs(H'_X) equals rs(H_X x e1^T stacked with I_n x H_R)
        q = steane_code()
        qc, cm = copy_code(q)
        alt_rows = []
        for r in range(q.n_x):
            v = 0
            for i in q.h_x.row_support(r):
                v |= 1 << cm.new_qubit(i, 0)
            alt_rows.append(v)
        for i in range(q.n):
            for j in range(q.q_x - 1):
                alt_rows.append((1 << cm.new_qubit(i, j)) | (1 << cm.new_qubit(i, j + 1)))
        alt = echelon(alt_rows)
        ours = echelon(qc.h_x.rows)
        assert all(reduce_vector(v, alt) == 0 for v in qc.h_x.rows)
        assert all(reduce_vector(v, ours) == 0 for v in alt_rows)


class TestGauge:
    def test_weight_four_split_pattern(self):
        # a single weight-4 X row becomes the 4x7 chain with 3 new qubits
        hx = BinMatrix.from_rows([[1, 1, 1, 1]])
        q = CssCode(hx, BinMatrix([], 4))
        qg, gm = gauge_code(q)
        assert qg.h_x.to_lists() == [
            [1, 0, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 1, 1, 0],
            [0, 0, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 0, 0, 1],
        ]

    def test_weight_three_kept(self):
        hx = BinMatrix.from_rows([[1, 1, 1, 0]])
        hz = BinMatrix.from_rows([[0, 1, 1, 0]])
        q = CssCode(hx, hz)
        qg, gm = gauge_code(q)
        assert qg.n == q.n
        assert qg.h_x == q.h_x

    def test_copied_steane(self):
        q, cm = copy_code(steane_code())
        qg, gm = gauge_code(q)
        assert_gauge_lemma(q, qg, gm)
        assert qg.w_x <= 3 and qg.q_x <= 3 and qg.k == 1

    def test_z_repair_rule(self):
        # prefix-anticommutation toggles exactly the recorded patch qubits
        q, _ = copy_code(steane_code())
        qg, gm = gauge_code(q)
        for zr, patch in gm.z_patch.items():
            row = qg.h_z.rows[zr]
            high = row >> q.n
            assert set(bit_indices(high << q.n)) == set(patch)


class TestThicken:
    def test_figure_instance(self):
        s = surface_code_2x3()
        st, _ = thicken(s, 3)
        assert css_distance(st, "X") == 6
        assert css_distance(st, "Z") == 3

    def test_length_one_identity(self):
        q = steane_code()
        qt, bm = thicken(q, 1)
        assert qt.n == q.n and bm.n_x * bm.n_checks == 0
        assert qt.h_x == q.h_x

    def test_counts(self):
        q = surface_code_2x3()
        for ell in (2, 3):
            qt, _ = thicken(q, ell)
            assert_thicken_lemma(q, qt, ell)


class TestBalance:
    def test_k_multiplies(self):
        q = hgp(repetition_code(3), repetition_code(3))
        qb, _ = balance_x(q, hamming_7_4())
        assert qb.k == 4 * q.k

    def test_repetition_specializes_to_thicken(self):
        q = surface_code_2x3()
        qt, _ = thicken(q, 3)
        qb, _ = balance_x(q, repetition_code(3))
        assert qt.h_x == qb.h_x and qt.h_z == qb.h_z

    def test_distances(self):
        q = hgp(repetition_code(3), repetition_code(3))
        qb, _ = balance_x(q, repetition_code(2))
        assert css_distance(qb, "X") == 6
        assert css_distance(qb, "Z") == 3

    def test_balance_z_dual(self):
        q = hgp(repetition_code(3), repetition_code(3))
        qb, bm = balance_z(q, repetition_code(2))
        assert bm.dual
        assert css_distance(qb, "Z") == 6
        assert css_distance(qb, "X") == 3
        assert qb.k == q.k
        alt, _ = balance_x(q.transposed(), repetition_code(2))
        assert qb.h_x == alt.h_z and qb.h_z == alt.h_x

    def test_matches_block_reference_on_corpus(self):
        rng = random.Random(31)
        for q in corpus(37, 30):
            for c in (random_classical(rng), repetition_code(rng.randrange(1, 4))):
                want = reference_balance_x(q, c)
                got, bm = balance_x(q, c)
                assert (got.h_x, got.h_z) == (want.h_x, want.h_z)
                assert bm.n_a + bm.n_x * bm.n_checks == got.n and bm.n_zt + bm.n_zb == got.n_z
                dual = reference_balance_x(q.transposed(), c)
                got, _ = balance_z(q, c)
                assert (got.h_x, got.h_z) == (dual.h_z, dual.h_x)
            for ell in (1, 2, 3):
                want = reference_balance_x(q, repetition_code(ell))
                got, _ = thicken(q, ell)
                assert (got.h_x, got.h_z) == (want.h_x, want.h_z)

    def test_rank_deficient_classical_rejected(self):
        from qwr.codes import ClassicalCode

        bad = ClassicalCode(BinMatrix.from_rows([[1, 1, 0], [1, 1, 0]]))
        with pytest.raises(ValueError, match="full row rank"):
            balance_x(steane_code(), bad)


class TestChooseHeights:
    def test_surface_staircase(self):
        s = surface_code_2x3()
        st, bm = thicken(s, 3)
        pruned = choose_heights(st, bm, [1, 2, 3])
        assert pruned.k == st.k
        assert pruned.n_z == st.n_z - 2 * s.n_z
        assert css_distance(pruned, "X") == css_distance(st, "X")
        assert css_distance(pruned, "Z") == css_distance(st, "Z")

    def test_length_one_noop(self):
        q = steane_code()
        qt, bm = thicken(q, 1)
        pruned = choose_heights(qt, bm, [1] * q.n_z)
        assert pruned.n_z == qt.n_z

    def test_bad_heights(self):
        st, bm = thicken(surface_code_2x3(), 3)
        with pytest.raises(ValueError):
            choose_heights(st, bm, [1, 2])
        with pytest.raises(ValueError):
            choose_heights(st, bm, [1, 2, 4])

    def test_requires_repetition_factor(self):
        qb, bm = balance_x(steane_code(), hamming_7_4())
        with pytest.raises(ValueError, match="repetition"):
            choose_heights(qb, bm, [1, 2, 3])

    @pytest.mark.parametrize("q", [steane_code(), surface_code_2x3()], ids=["steane", "surface"])
    def test_balance_z_map_rejected(self, q):
        # a balance_z map describes the transposed layout, which neither reads
        qb, bm = balance_z(q, repetition_code(3))
        with pytest.raises(ValueError, match="balance_z"):
            greedy_heights(qb, bm, 1)
        with pytest.raises(ValueError, match="balance_z"):
            choose_heights(qb, bm, [1] * bm.n_z)


class TestGreedyHeights:
    def test_extreme_spread(self):
        q = steane_code()
        qt, bm = thicken(q, q.n_z)
        hr = greedy_heights(qt, bm, 1)
        assert hr.achieved_max <= 1

    def test_single_z_row(self):
        r = CssCode(BinMatrix([], 3), BinMatrix.from_rows([[1, 1, 1]]))
        qt, bm = thicken(r, 2)
        hr = greedy_heights(qt, bm, 5)
        assert hr.heights == [1]

    def test_surface_achieved(self):
        s = surface_code_2x3()
        st, bm = thicken(s, 3)
        hr = greedy_heights(st, bm, s.q_z)
        assert hr.achieved_max <= s.q_z
        pruned = choose_heights(st, bm, hr.heights)
        assert pruned.k == st.k

    def test_infeasible_reports(self):
        s = surface_code_2x3()
        st, bm = thicken(s, 2)
        hr = greedy_heights(st, bm, 1)
        assert hr.achieved_max >= 1  # reported, not hidden


class TestCorpusAudit:
    def test_parameter_lemmas_on_corpus(self):
        for q in corpus(17, 40):
            if q.q_x >= 1:
                qc, cm = copy_code(q)
                assert_copy_lemma(q, qc, cm)
                qg, gm = gauge_code(qc)
                assert_gauge_lemma(qc, qg, gm)
            qt, bm = thicken(q, 2)
            assert qt.k == q.k
            hr = greedy_heights(qt, bm, max(1, q.q_z))
            pruned = choose_heights(qt, bm, hr.heights)
            assert pruned.k == q.k

    def test_copy_distance_equalities_within_caps(self):
        rng = random.Random(23)
        done = 0
        while done < 6:
            q = random_css(rng, n_max=8)
            if q.k < 1 or q.q_x < 1:
                continue
            qc, _ = copy_code(q)
            assert css_distance(qc, "X") == css_distance(q, "X")
            assert css_distance(qc, "Z") == q.q_x * css_distance(q, "Z")
            done += 1

    def test_thicken_distance_equalities_within_caps(self):
        rng = random.Random(29)
        done = 0
        while done < 6:
            q = random_css(rng, n_max=7)
            if q.k < 1 or q.n_x == 0:
                continue
            qt, _ = thicken(q, 2)
            assert css_distance(qt, "X") == 2 * css_distance(q, "X")
            assert css_distance(qt, "Z") == css_distance(q, "Z")
            done += 1


def thickened_steane_heights(target_w):
    qt, bm = thicken(steane_code(), 2)
    return greedy_heights(qt, bm, target_w)


@pytest.mark.parametrize("call, message", [
    (lambda: copy_code(CssCode(BinMatrix.zeros(1, 2), BinMatrix.zeros(1, 2))),
     "copy_code needs q_X >= 1 (some qubit in an X check)"),
    (lambda: thicken(steane_code(), 0), "thickening length must be >= 1"),
    (lambda: thickened_steane_heights(0), "target weight must be >= 1"),
])
def test_malformed_input_raises(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
