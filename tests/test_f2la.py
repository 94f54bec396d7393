import re

import pytest
from hypothesis import given, settings, strategies as st

from qwr.codes import CssCode
from qwr.f2la import (
    BinMatrix,
    kernel_basis,
    kron,
    mat_mul,
    mat_vec,
    rank,
    solve,
    transpose,
    vstack,
)

from helpers import hstack, quotient_dim, rowspace_contains


def mat(rows):
    return BinMatrix.from_rows(rows)


@st.composite
def bin_matrices(draw, max_rows=6, max_cols=7, no_cols=False):
    """Random matrices; 0 x c shapes always, r x 0 ones only with no_cols."""
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(0 if r == 0 or no_cols else 1, max_cols))
    rows = draw(st.lists(st.integers(0, (1 << c) - 1), min_size=r, max_size=r))
    return BinMatrix(rows, c)


def first_bad_row_message(rows, ncols):
    """The message of the row-by-row check BinMatrix made before it checked
    min and max, or None when every row is in range."""
    for r in rows:
        if r < 0:
            return "negative row bitset"
        if r >> ncols:
            return f"row has bits beyond column {ncols}"
    return None


class TestRowChecks:
    @pytest.mark.parametrize("rows, message", [
        ([0b11, -1, 0b1000], "negative row bitset"),
        ([0b11, 0b1000, -1], "row has bits beyond column 3"),
    ])
    def test_first_bad_row_names_the_error(self, rows, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BinMatrix(rows, 3)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-4, 40), max_size=6), st.integers(0, 5))
    def test_matches_the_row_by_row_check(self, rows, ncols):
        message = first_bad_row_message(rows, ncols)
        if message is None:
            assert BinMatrix(rows, ncols).rows == tuple(rows)
        else:
            with pytest.raises(ValueError, match=f"^{message}$"):
                BinMatrix(rows, ncols)

    def test_from_rows_packs_low_bits_through_from_support(self):
        assert BinMatrix.from_rows([[1, 0, 3], [2, 1, 1]]) == BinMatrix([0b101, 0b110], 3)
        with pytest.raises(ValueError, match="^ragged row: expected 3 entries, got 2$"):
            BinMatrix.from_rows([[1, 0, 1], [1, 0]])


class TestTransposeCache:
    @settings(max_examples=100, deadline=None)
    @given(bin_matrices(no_cols=True))
    def test_transpose_matches_the_lists(self, a):
        lists = a.to_lists()
        t = transpose(a)
        assert t.shape == (a.ncols, a.nrows)
        assert t.to_lists() == [[row[j] for row in lists] for j in range(a.ncols)]

    @settings(max_examples=100, deadline=None)
    @given(bin_matrices(no_cols=True))
    def test_transpose_twice_is_the_matrix(self, a):
        assert transpose(transpose(a)) is a
        assert transpose(a) is transpose(a)

    @settings(max_examples=100, deadline=None)
    @given(bin_matrices(no_cols=True))
    def test_cached_transpose_keeps_equality_and_hash(self, a):
        t = transpose(a)
        for m in (a, t):
            copy = BinMatrix(m.rows, m.ncols)
            assert m == copy and hash(m) == hash(copy)

    @settings(max_examples=100, deadline=None)
    @given(bin_matrices(no_cols=True))
    def test_col_weights_count_each_column(self, a):
        lists = a.to_lists()
        assert a.col_weights() == [sum(row[j] for row in lists) for j in range(a.ncols)]

    def test_commutation_check_uses_a_cached_transpose(self):
        # X row 0 meets Z row 1 on qubit 1 only; the transpose of h_z exists first
        h_x = mat([[1, 1, 0, 0], [0, 0, 1, 0]])
        h_z = mat([[1, 1, 0, 0], [0, 1, 1, 0]])
        transpose(h_z)
        with pytest.raises(ValueError, match=r"^stabilizers anticommute: X row 0 vs Z row 1$"):
            CssCode(h_x, h_z)


class TestMatMul:
    def test_identity(self):
        a = mat([[1, 1], [0, 1]])
        assert mat_mul(a, BinMatrix.identity(2)) == a

    def test_f2_cancellation(self):
        assert mat_mul(mat([[1, 1]]), mat([[1], [1]])) == mat([[0]])

    def test_steane_commutation(self):
        from qwr.codes import hamming_7_4

        h = hamming_7_4().h
        assert mat_mul(h, transpose(h)).is_zero()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            mat_mul(mat([[1, 0]]), mat([[1, 0]]))


class TestRank:
    def test_two_independent_rows(self):
        assert rank(mat([[1, 1, 0], [0, 1, 1]])) == 2

    def test_identity(self):
        assert rank(BinMatrix.identity(7)) == 7

    def test_zero(self):
        assert rank(BinMatrix.zeros(4, 6)) == 0

    def test_input_unmodified(self):
        a = mat([[1, 1], [1, 1]])
        rank(a)
        assert a == mat([[1, 1], [1, 1]])


class TestKernel:
    def test_parity(self):
        assert kernel_basis(mat([[1, 1]])) == mat([[1, 1]])

    def test_identity_empty(self):
        assert kernel_basis(BinMatrix.identity(3)).nrows == 0

    def test_repetition(self):
        k = kernel_basis(mat([[1, 1, 0], [0, 1, 1]]))
        assert k == mat([[1, 1, 1]])

    def test_zero_rows_matrix(self):
        k = kernel_basis(BinMatrix([], 4))
        assert k == BinMatrix.identity(4)


class TestRowspace:
    def test_sum_of_rows(self):
        a = mat([[1, 1, 0], [0, 1, 1]])
        assert rowspace_contains(a, 0b101)

    def test_not_contained(self):
        assert not rowspace_contains(mat([[1, 1, 0]]), 0b100)

    def test_zero_vector(self):
        assert rowspace_contains(mat([[1, 1, 0]]), 0)

    def test_length_check(self):
        with pytest.raises(ValueError):
            rowspace_contains(mat([[1, 0]]), 0b100)


class TestQuotientDim:
    def test_steane(self):
        from qwr.codes import hamming_7_4

        h = hamming_7_4().h
        assert quotient_dim(h, h) == 1

    def test_identity(self):
        i3 = BinMatrix.identity(3)
        with pytest.raises(ValueError):
            quotient_dim(i3, i3)  # rs(I) is not inside ker(I)

    def test_empty_empty(self):
        e = BinMatrix([], 5)
        assert quotient_dim(e, e) == 5

    def test_containment_checked(self):
        with pytest.raises(ValueError, match="kernel"):
            quotient_dim(mat([[1, 0]]), mat([[1, 0]]))


class TestKron:
    def test_row_with_identity(self):
        assert kron(mat([[1, 1]]), BinMatrix.identity(2)) == mat(
            [[1, 0, 1, 0], [0, 1, 0, 1]]
        )

    def test_unit(self):
        a = mat([[1, 0, 1], [0, 1, 1]])
        assert kron(a, BinMatrix.identity(1)) == a

    def test_identities(self):
        assert kron(BinMatrix.identity(2), BinMatrix.identity(3)) == BinMatrix.identity(6)


class TestStacking:
    def test_hstack(self):
        assert hstack(mat([[1]]), mat([[0]])) == mat([[1, 0]])

    def test_vstack(self):
        v = vstack(BinMatrix.identity(2), BinMatrix.zeros(1, 2))
        assert v.shape == (3, 2)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            hstack(BinMatrix.identity(2), BinMatrix.identity(3))


class TestSolve:
    def test_solvable(self):
        a = mat([[1, 1, 0], [0, 1, 1]])
        x = solve(a, 0b11)
        assert x is not None and mat_vec(a, x) == 0b11

    def test_unsolvable(self):
        # columns span only the even-weight vectors of F^3
        a = mat([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert solve(a, 0b010) is None


@settings(max_examples=80, deadline=None)
@given(bin_matrices(), st.integers(0, 127), st.integers(0, 127))
def test_solve_consistent_and_inconsistent(a, x, b):
    x &= (1 << a.ncols) - 1
    sol = solve(a, mat_vec(a, x))
    assert sol is not None and sol >> a.ncols == 0
    assert mat_vec(a, sol) == mat_vec(a, x)
    b &= (1 << a.nrows) - 1
    in_span = rank(BinMatrix(transpose(a).rows + (b,), a.nrows)) == rank(a)
    sol = solve(a, b)
    assert (sol is not None) == in_span
    if sol is not None:
        assert mat_vec(a, sol) == b


@settings(max_examples=60, deadline=None)
@given(bin_matrices())
def test_rank_transpose_invariant(a):
    assert rank(a) == rank(transpose(a))


@settings(max_examples=60, deadline=None)
@given(bin_matrices())
def test_kernel_annihilates(a):
    k = kernel_basis(a)
    assert k.nrows == a.ncols - rank(a)
    assert mat_mul(a, transpose(k)).is_zero()


@settings(max_examples=40, deadline=None)
@given(bin_matrices(max_rows=3, max_cols=3), bin_matrices(max_rows=3, max_cols=3),
       bin_matrices(max_rows=3, max_cols=3))
def test_kron_associative(a, b, c):
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


@settings(max_examples=60, deadline=None)
@given(bin_matrices(), st.integers(0, 63))
def test_rowspace_membership_vs_solve(a, seed):
    import random

    rng = random.Random(seed)
    v = 0
    for r in a.rows:
        if rng.random() < 0.5:
            v ^= r
    assert rowspace_contains(a, v)


@pytest.mark.parametrize("call, message", [
    (lambda: BinMatrix([], -1), "negative column count -1"),
    (lambda: BinMatrix.from_rows([]), "ncols required for a matrix with no rows"),
    (lambda: BinMatrix.from_support([[0, 3]], 3), "column index 3 out of range for 3 columns"),
    (lambda: solve(BinMatrix.identity(2), 0b100), "right-hand side has bits beyond the row count"),
    (lambda: vstack(BinMatrix.zeros(1, 2), BinMatrix.zeros(1, 3)), "column mismatch: (1, 2) vs (1, 3)"),
])
def test_malformed_input_raises(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
