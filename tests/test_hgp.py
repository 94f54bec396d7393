import random

import pytest

from qwr.codes import (
    INF,
    ClassicalCode,
    css_distance,
    hamming_7_4,
    repetition_code,
)
from qwr.f2la import BinMatrix
from qwr.hgp import (
    ProductSpec,
    higher_dim_hgp,
    hgp,
    kunneth_distance_predictor,
    one_complex,
    tensor_complex,
)
from qwr.reduce import thicken

from helpers import quotient_dim, random_classical, reference_kunneth_distance_predictor


class TestTensorComplex:
    def test_two_by_two_layout(self):
        c1, c2 = repetition_code(3), repetition_code(3)
        t = tensor_complex(one_complex(c1), one_complex(c2, dualized=True))
        # (dim level 0, dim level 1, dim level 2): checks x bits, qubits, bits x checks
        assert t.dims == (2 * 3, 3 * 3 + 2 * 2, 3 * 2)
        assert t.dim(1) == 13

    def test_associativity_up_to_regrouping(self):
        # The two fold orders list each level's basis differently (the left
        # fold is block-major, the right fold interleaves the first factor),
        # so equality holds under the explicit regrouping permutation.
        rng = random.Random(3)
        for _ in range(4):
            a = one_complex(random_classical(rng, 3, 4))
            b = one_complex(random_classical(rng, 3, 4), dualized=True)
            c = one_complex(random_classical(rng, 3, 4), dualized=True)
            left = tensor_complex(tensor_complex(a, b), c)
            right = tensor_complex(a, tensor_complex(b, c))
            assert left.dims == right.dims

            def tuples(level):
                out = []
                for i in range(min(level, 1), -1, -1):
                    for j in range(1, -1, -1):
                        r = level - i - j
                        if not 0 <= r <= 1:
                            continue
                        for xa in range(a.dim(i)):
                            for xb in range(b.dim(j)):
                                for xc in range(c.dim(r)):
                                    out.append((i, j, r, xa, xb, xc))
                return out

            def pos(level, key):
                ordering = sorted(tuples(level), key=key)
                return {t: p for p, t in enumerate(ordering)}

            key_left = lambda t: (t[2], -t[0], t[3], t[4], t[5])
            key_right = lambda t: (-t[0], t[3], t[2], t[4], t[5])
            for lvl in range(1, left.length + 1):
                lb, rb = left.boundary(lvl), right.boundary(lvl)
                pl_row, pr_row = pos(lvl - 1, key_left), pos(lvl - 1, key_right)
                pl_col, pr_col = pos(lvl, key_left), pos(lvl, key_right)
                for t_row in tuples(lvl - 1):
                    for t_col in tuples(lvl):
                        l_bit = (lb.rows[pl_row[t_row]] >> pl_col[t_col]) & 1
                        r_bit = (rb.rows[pr_row[t_row]] >> pr_col[t_col]) & 1
                        assert l_bit == r_bit


class TestHgp:
    def test_13_1_3(self):
        q = hgp(repetition_code(3), repetition_code(3))
        assert (q.n, q.k) == (13, 1)
        assert css_distance(q, "X") == 3 and css_distance(q, "Z") == 3

    def test_smallest_surface(self):
        q = hgp(repetition_code(2), repetition_code(2))
        assert (q.n, q.k) == (5, 1)
        assert css_distance(q, "X") == 2

    def test_zero_code_factor(self):
        zero = ClassicalCode(BinMatrix.identity(3))
        q = hgp(zero, repetition_code(2))
        assert q.k == 0
        assert css_distance(q, "X") == INF


class TestHigherDim:
    def test_d2_matches_hgp(self):
        spec = ProductSpec((repetition_code(3), repetition_code(3)), level=1)
        code, _ = higher_dim_hgp(spec)
        plain = hgp(repetition_code(3), repetition_code(3))
        assert code.h_x == plain.h_x and code.h_z == plain.h_z

    def test_d3_rep2(self):
        spec = ProductSpec((repetition_code(2),) * 3, level=1)
        code, layout = higher_dim_hgp(spec)
        assert code.n == 12 and code.k == 1
        assert quotient_dim(code.h_z, code.h_x) == 1
        assert sum(size for _, size in layout.qubit_blocks) == code.n

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            ProductSpec((repetition_code(2),) * 3, level=3)

    def test_level_two(self):
        spec = ProductSpec((repetition_code(2),) * 3, level=2)
        code, _ = higher_dim_hgp(spec)
        assert code.k == 1
        pred = kunneth_distance_predictor(spec)
        assert css_distance(code, "X") == pred.d_x
        assert css_distance(code, "Z") == pred.d_z

    def test_thicken_is_three_factor_product(self):
        q = hgp(repetition_code(2), repetition_code(2))
        qt, _ = thicken(q, 3)
        spec = ProductSpec((repetition_code(2), repetition_code(2), repetition_code(3)), level=1)
        code, _ = higher_dim_hgp(spec)
        assert qt.h_x == code.h_x and qt.h_z == code.h_z


class TestPredictor:
    def test_thicken_case(self):
        base = ProductSpec((repetition_code(2), repetition_code(2)), level=1)
        thick = ProductSpec(
            (repetition_code(2), repetition_code(2), repetition_code(3)), level=1
        )
        p0 = kunneth_distance_predictor(base)
        p1 = kunneth_distance_predictor(thick)
        assert p1.d_x == 3 * p0.d_x
        assert p1.d_z == p0.d_z

    def test_matches_exact_on_full_grid(self):
        # every product of rep(2)/rep(3)/Hamming factors up to D=3 with
        # n <= 120, at every level, except the n = 109, d = 9 classes: their
        # logical space (dim 46) is too big to enumerate and MITM level 8
        # exceeds the table cap
        from itertools import product

        factors = [repetition_code(2), repetition_code(3), hamming_7_4()]
        checked = 0
        for d in (2, 3):
            for combo in product(factors, repeat=d):
                for level in range(1, d):
                    spec = ProductSpec(tuple(combo), level=level)
                    code, _ = higher_dim_hgp(spec)
                    if code.n > 120:
                        continue
                    pred = kunneth_distance_predictor(spec)
                    assert pred.exact
                    for basis, expect in (("X", pred.d_x), ("Z", pred.d_z)):
                        if code.n >= 109 and expect == 9:
                            continue
                        assert css_distance(code, basis) == expect, (spec, basis)
                        checked += 1
        assert checked >= 94

    def test_infinite_absorbs(self):
        zero = ClassicalCode(BinMatrix.identity(3))
        spec = ProductSpec((zero, repetition_code(2)), level=1)
        pred = kunneth_distance_predictor(spec)
        assert pred.d_x == INF or pred.d_z == INF

    def test_k_matches_kunneth_on_random(self):
        rng = random.Random(9)
        for _ in range(4):
            c1 = random_classical(rng, 3, 4)
            c2 = random_classical(rng, 3, 4)
            code, _ = higher_dim_hgp(ProductSpec((c1, c2), level=1))
            assert code.k == c1.k * c2.k


class TestKunnethStep:
    def test_matches_reference_fold(self):
        # every product of two to four rep(2)/rep(3)/Hamming factors, at every
        # level, with the default dualization and with every flag flipped
        from itertools import product

        factors = [repetition_code(2), repetition_code(3), hamming_7_4()]
        checked = infinite = 0
        for d in (2, 3, 4):
            for combo in product(factors, repeat=d):
                for level in range(1, d):
                    default = ProductSpec(tuple(combo), level=level)
                    flipped = ProductSpec(tuple(combo), level=level, dualized=tuple(not f for f in default.dualized))
                    for spec in (default, flipped):
                        pred = kunneth_distance_predictor(spec)
                        assert pred == reference_kunneth_distance_predictor(spec), spec
                        checked += 1
                        infinite += INF in (pred.d_x, pred.d_z)
        assert checked == 2 * (9 + 27 * 2 + 81 * 3) and 0 < infinite < checked
