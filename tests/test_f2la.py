import pytest
from hypothesis import given, settings, strategies as st

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
def bin_matrices(draw, max_rows=6, max_cols=7):
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(0 if r == 0 else 1, max_cols))
    if c == 0:
        return BinMatrix([], 0)
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
