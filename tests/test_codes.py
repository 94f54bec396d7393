import random

import pytest
from hypothesis import given, settings, strategies as st

from qwr import codes, f2la
from qwr.codes import (
    INF,
    CapExceeded,
    ChainComplex,
    ClassicalCode,
    CssCode,
    classical_distance,
    css_distance,
    css_search,
    css_to_complex,
    hamming_7_4,
    logical_basis,
    logical_signatures,
    min_logical_search,
    repetition_code,
    ring_face_code,
    steane_code,
    surface_code_2x3,
)
from qwr.f2la import BinMatrix, mat_mul, mat_vec, rank, transpose
from qwr.hgp import hgp

from helpers import complex_to_css, quotient_dim, random_css


class TestRepetition:
    def test_chain_structure(self):
        c = repetition_code(3)
        assert c.h.to_lists() == [[1, 1, 0], [0, 1, 1]]
        assert c.k == 1

    def test_degenerate(self):
        c = repetition_code(1)
        assert c.h.shape == (0, 1)
        assert c.k == 1

    @pytest.mark.parametrize("length", range(1, 9))
    def test_distance_is_length(self, length):
        assert classical_distance(repetition_code(length)) == length

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            repetition_code(0)


class TestClassicalDistance:
    def test_hamming(self):
        assert classical_distance(hamming_7_4()) == 3

    def test_zero_code(self):
        c = ClassicalCode(BinMatrix.identity(4))
        assert classical_distance(c) == INF

    def test_cap(self):
        c = ClassicalCode(BinMatrix.zeros(0, 30))
        with pytest.raises(CapExceeded):
            classical_distance(c)

    def test_k_boundary(self):
        # one all-ones check: k = n - 1, d = 2.  2^28 codewords fit in the
        # walk cap (100 x the 4,000,000 table cap) and are enumerated; 2^29 do not
        assert classical_distance(ClassicalCode(BinMatrix([(1 << 29) - 1], 29))) == 2
        with pytest.raises(CapExceeded, match=r"^the 2\^29 codewords exceed the walk cap 400000000$"):
            classical_distance(ClassicalCode(BinMatrix([(1 << 30) - 1], 30)))


class TestCssConstruction:
    def test_steane_parameters(self):
        q = steane_code()
        assert (q.n, q.k) == (7, 1)
        assert q.w_x == 4 and q.q_x == 3

    def test_no_checks(self):
        q = CssCode(BinMatrix([], 5), BinMatrix([], 5))
        assert q.k == 5

    def test_anticommuting_rejected(self):
        # odd overlap between the X and Z rows
        hx = BinMatrix.from_rows([[1, 1]])
        hz = BinMatrix.from_rows([[1, 0]])
        with pytest.raises(ValueError, match="X row 0 vs Z row 0"):
            CssCode(hx, hz)

    def test_first_anticommuting_pair_named(self):
        # anticommuting (X row, Z row) pairs: (1, 1), (1, 2), (2, 1)
        hx = BinMatrix.from_rows([[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 1]])
        hz = BinMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
        flip = lambda m: BinMatrix(list(reversed(m.rows)), m.ncols)
        with pytest.raises(ValueError, match="X row 1 vs Z row 1$"):
            CssCode(hx, hz)
        with pytest.raises(ValueError, match="X row 1 vs Z row 0$"):  # (1, 0), (1, 1), (2, 1)
            CssCode(hx, flip(hz))
        with pytest.raises(ValueError, match="X row 0 vs Z row 1$"):  # (0, 1), (1, 0), (1, 1)
            CssCode(flip(hx), flip(hz))

    def test_even_overlap_accepted(self):
        h = BinMatrix.from_rows([[1, 1]])
        assert CssCode(h, h).k == 0


class TestComplexes:
    def test_steane_roundtrip(self):
        q = steane_code()
        c = css_to_complex(q)
        assert [b.shape for b in c.boundaries] == [(7, 3), (3, 7)]
        assert complex_to_css(c, 1) == q

    def test_empty_code(self):
        q = CssCode(BinMatrix([], 0), BinMatrix([], 0))
        c = css_to_complex(q)
        assert c.dims == (0, 0, 0)

    def test_level_out_of_range(self):
        c = css_to_complex(steane_code())
        with pytest.raises(ValueError):
            complex_to_css(c, 2)

    def test_nonvanishing_composition_rejected(self):
        with pytest.raises(ValueError, match="composition"):
            ChainComplex((BinMatrix.identity(2), BinMatrix.identity(2)))

    def test_map_free_complex_rejected(self):
        with pytest.raises(ValueError, match="at least one boundary map"):
            ChainComplex(())


class TestLogicalBasis:
    def test_steane_weight_three(self):
        lb = logical_basis(steane_code(), "X")
        assert lb.nrows == 1
        assert lb.rows[0].bit_count() == 3

    def test_zero_k(self):
        q = CssCode(BinMatrix.identity(2), BinMatrix([], 2))
        assert logical_basis(q, "X").nrows == 0

    def test_toric_two_logicals(self):
        ring = ClassicalCode(BinMatrix.from_support([(i, (i + 1) % 3) for i in range(3)], 3))
        toric = hgp(ring, ring)
        assert toric.k == 2
        for basis in ("X", "Z"):
            lb = logical_basis(toric, basis)
            assert lb.nrows == 2
            opp = toric.h_z if basis == "X" else toric.h_x
            for v in lb.rows:
                assert mat_vec(opp, v) == 0
                assert toric.is_logical(v, basis)

    def test_pairing_full_rank(self):
        for q in (steane_code(), surface_code_2x3(), hgp(repetition_code(3), repetition_code(3))):
            pairing = mat_mul(logical_basis(q, "X"), transpose(logical_basis(q, "Z")))
            assert rank(pairing) == q.k


class TestCssDistance:
    def test_steane(self):
        assert css_distance(steane_code(), "X") == 3
        assert css_distance(steane_code(), "Z") == 3

    def test_hgp_13_1_3(self):
        q = hgp(repetition_code(3), repetition_code(3))
        assert css_distance(q, "X") == 3
        assert css_distance(q, "Z") == 3

    def test_zero_k(self):
        q = CssCode(BinMatrix.identity(3), BinMatrix([], 3))
        assert css_distance(q, "X") == INF

    def test_surface_figure_instance(self):
        s = surface_code_2x3()
        assert css_distance(s, "X") == 2
        assert css_distance(s, "Z") == 3

    def test_each_check_matrix_eliminated_once(self, monkeypatch):
        """k reads the ranks off the cached pivots instead of eliminating again."""
        calls = []
        real = f2la.echelon

        def counted(rows):
            calls.append(1)
            return real(rows)

        monkeypatch.setattr(f2la, "echelon", counted)
        monkeypatch.setattr(codes, "echelon", counted)
        css_search(steane_code(), "X")
        assert len(calls) <= 4

    def test_mitm_route_agrees(self):
        for q, basis in ((hgp(repetition_code(3), repetition_code(3)), "X"), (surface_code_2x3(), "Z")):
            sigs, k = logical_signatures(q, basis, [1 << j for j in range(q.n)])
            assert min_logical_search(sigs, k, q.n).distance == 3 == css_distance(q, basis)

    def test_ring_face(self):
        r = ring_face_code(6)
        assert css_distance(r, "X") == 1
        assert css_distance(r, "Z") == 5


class TestCodeInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_css_structure(self, seed):
        q = random_css(random.Random(seed))
        assert q.q_x <= q.n_x and q.w_x <= q.n
        assert q.k == quotient_dim(q.h_z, q.h_x) == quotient_dim(q.h_x, q.h_z)
        assert complex_to_css(css_to_complex(q), 1) == q

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_css_distance_positive(self, seed):
        q = random_css(random.Random(seed), n_max=9)
        if q.k >= 1:
            assert css_distance(q, "X") >= 1
            assert css_distance(q, "Z") >= 1
