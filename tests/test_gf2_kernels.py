"""f2la's masked elimination kernels and the column-packed signatures give
exactly the outputs of the loops they replaced (kept in helpers.py)."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from qwr.codes import CssCode, hamming_7_4, logical_basis, logical_signatures, repetition_code
from qwr.cone import build_cone_parts, cellulate, cone_code, thicken_cone
from qwr.f2la import BinMatrix, echelon, kernel_basis, kernel_vectors, mat_vec, reduce_vector, solve, transpose
from qwr.hgp import hgp
from qwr.reduce import copy_code, gauge_code, thicken

from helpers import (
    random_css,
    reference_echelon,
    reference_kernel_basis,
    reference_logical_basis,
    reference_logical_signatures,
    reference_reduce_vector,
    reference_col_weights,
    reference_solve,
    rowspace_contains,
)


@st.composite
def gf2_matrices(draw, max_rows=40, max_cols=96):
    """Up to max_rows x max_cols, 0-row and 0-column shapes included, at a
    drawn density, with some rows repeating or summing earlier ones."""
    ncols = draw(st.integers(0, max_cols))
    nrows = draw(st.integers(0, max_rows))
    density = draw(st.sampled_from([0.02, 0.1, 0.3, 0.5, 0.9]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(nrows):
        kind = rng.random() if rows else 1.0
        if kind < 0.15:
            rows.append(rng.choice(rows))
        elif kind < 0.3:
            v = 0
            for r in rng.sample(rows, rng.randint(1, len(rows))):
                v ^= r
            rows.append(v)
        else:
            rows.append(sum(1 << j for j in range(ncols) if rng.random() < density))
    return BinMatrix(rows, ncols)


def assert_kernels_match(a: BinMatrix, rng: random.Random) -> None:
    assert sorted((low.bit_length() - 1, row) for low, row in echelon(a.rows).rows.items()) == reference_echelon(a.rows)
    assert kernel_basis(a) == reference_kernel_basis(a)
    pivots, ref_pivots = echelon(a.rows), reference_echelon(a.rows)
    assert tuple(kernel_vectors(pivots, a.ncols)) == reference_kernel_basis(a).rows
    for _ in range(4):
        v = rng.getrandbits(a.ncols)
        in_span = 0
        for r in a.rows:
            in_span ^= r if rng.random() < 0.5 else 0
        for w in (v, in_span):
            assert reduce_vector(w, pivots) == reference_reduce_vector(w, ref_pivots)
            assert rowspace_contains(a, w) == (reference_reduce_vector(w, ref_pivots) == 0)
    for b in (mat_vec(a, rng.getrandbits(a.ncols)), rng.getrandbits(a.nrows)):
        assert solve(a, b) == reference_solve(a, b)


FULL_ROW_RANK = BinMatrix([0b100111, 0b011010, 0b110001], 6)


@settings(max_examples=150, deadline=None)
@given(gf2_matrices(), st.integers(0, 2**16))
@example(BinMatrix([], 0), 0)
@example(BinMatrix([], 5), 0)
@example(BinMatrix.zeros(3, 5), 0)
@example(BinMatrix.identity(6), 0)
@example(FULL_ROW_RANK, 0)
def test_elimination_matches_reference(a, seed):
    assert_kernels_match(a, random.Random(seed))


@settings(max_examples=60, deadline=None)
@given(gf2_matrices(), st.integers(0, 2**16))
@example(BinMatrix.zeros(3, 5), 0)
@example(FULL_ROW_RANK, 0)  # transposed: full column rank
def test_tall_elimination_matches_reference(a, seed):
    assert_kernels_match(transpose(a), random.Random(seed))


@settings(max_examples=100, deadline=None)
@given(gf2_matrices())
@example(BinMatrix([], 0))
@example(BinMatrix([], 5))
@example(BinMatrix.zeros(3, 5))
def test_col_weights_with_and_without_a_cached_transpose(a):
    fresh = BinMatrix(a.rows, a.ncols)
    assert fresh.col_weights() == reference_col_weights(a)
    assert fresh._t is None  # counted over the row supports, no transpose built
    transpose(fresh)
    assert fresh.col_weights() == reference_col_weights(a)


def assert_code_outputs_match(q: CssCode, rng: random.Random) -> None:
    """logical_basis holds the reference's representatives up to stabilizers,
    row for row (the reference weight-reduces them); the packed signatures
    equal the reference's on the same pairing rows, and with no vectors
    those of the single qubits."""
    vectors = [1 << j for j in range(q.n)] + [rng.getrandbits(q.n) for _ in range(8)] + [0]
    for basis in "XZ":
        ours, ref = logical_basis(q, basis), reference_logical_basis(q, basis)
        assert ours.nrows == ref.nrows == q.k
        assert all(rowspace_contains(q.h(basis), a ^ b) for a, b in zip(ours.rows, ref.rows))
        pair_rows = logical_basis(q, "Z" if basis == "X" else "X")
        assert logical_signatures(q, basis, vectors) == reference_logical_signatures(q, basis, vectors, pair_rows)
        # no vectors: the single-qubit signatures, read off the signature columns
        assert logical_signatures(q, basis) == logical_signatures(q, basis, vectors[:q.n])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 40))
def test_code_outputs_match_reference(seed, n_max):
    rng = random.Random(seed)
    assert_code_outputs_match(random_css(rng, n_min=4, n_max=n_max), rng)


@pytest.fixture(scope="module")
def stage_codes():
    """A small HGP and the codes of its copy -> gauge -> thicken(2) and
    cone -> thicken_cone(2) chains."""
    q = hgp(hamming_7_4(), hamming_7_4())
    qg, _ = gauge_code(copy_code(q)[0])
    parts, fmap, _ = build_cone_parts(q, 5)
    qk = cone_code(q, cellulate(parts), fmap)
    return {"input": q, "gauge": qg, "thicken": thicken(qg, 2)[0], "cone": qk, "thicken_cone": thicken_cone(qk, 2)}


@pytest.mark.parametrize("stage", ["input", "gauge", "thicken", "cone", "thicken_cone"])
def test_stage_matrices_match_reference(stage_codes, stage):
    q = stage_codes[stage]
    rng = random.Random(stage)
    for h in (q.h_x, q.h_z):
        assert_kernels_match(h, rng)
    assert_code_outputs_match(q, rng)
