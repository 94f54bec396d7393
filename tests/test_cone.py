import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qwr import cone
from qwr.codes import CapExceeded, ClassicalCode, CssCode, css_distance, ring_face_code, steane_code, surface_code_2x3
from qwr.cone import (
    ChainMapF,
    ConeComplexPart,
    _part_boundaries,
    build_cone_parts,
    cellulate,
    cone_code,
    soundness_lambda,
    thicken_cone,
    thicken_cone_detail,
)
from qwr.f2la import BinMatrix, mat_mul, rank
from qwr.hgp import hgp
from qwr.schedule import baseline_schedule, cone_schedule

from helpers import (
    corpus,
    reference_fundamental_cycles,
    reference_part_lambda,
    reference_walk_cycle,
    soundness_lambda_bruteforce,
)
from test_construction import load_gf2_layers


def hexagon_parts():
    r = ring_face_code(6)
    parts, f, retained = build_cone_parts(r)
    return r, parts, f, retained


class TestBuildParts:
    def test_below_threshold_noop(self):
        q = steane_code()
        parts, f, retained = build_cone_parts(q)
        assert not parts
        assert retained == [0, 1, 2]
        assert cone_code(q, parts, f) == q

    def test_hexagon_face(self):
        r, parts, f, retained = hexagon_parts()
        assert len(parts) == 1 and retained == []
        part = parts[0]
        assert len(part.one_cells) == 6
        assert all(xr is not None for xr, _, _ in part.zero_cells)
        for t, (_, qa, qb) in enumerate(part.zero_cells):
            assert qa != qb

    def test_minus_cells_match_homology(self):
        _, parts, _, _ = hexagon_parts()
        part = parts[0]
        b1, _ = _part_boundaries(part)
        pre_h0 = b1.nrows - rank(b1)
        assert len(part.minus_one_cells) == pre_h0

    def test_composition_vanishes(self):
        _, parts, _, _ = hexagon_parts()
        for part in parts:
            b1, b0 = _part_boundaries(part)
            assert mat_mul(b0, b1).is_zero()

    def test_h0_trivial_after_augmentation(self):
        _, parts, _, _ = hexagon_parts()
        for part in parts:
            n_edges = len(part.zero_cells)
            b1, b0 = _part_boundaries(part)
            assert n_edges - rank(b0) == rank(b1)

    def test_disconnected_kept_direct(self):
        # two triangles sharing no vertex under one weight-6 Z row
        x_rows = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        hx = BinMatrix.from_support(x_rows, 6)
        hz = BinMatrix.from_support([range(6)], 6)
        q = CssCode(hx, hz)
        parts, f, retained = build_cone_parts(q)
        assert not parts and retained == [0]
        assert f.skipped_rows == (0,)

    def test_threshold_parameter(self):
        r = ring_face_code(6)
        parts, _, retained = build_cone_parts(r, weight_threshold=6)
        assert not parts and retained == [0]


class TestConeCode:
    def test_hexagon_cone(self):
        r, parts, f, _ = hexagon_parts()
        qc = cone_code(r, parts, f)
        assert qc.k == r.k
        assert qc.n == r.n + len(parts[0].zero_cells)
        assert qc.n_z == 6
        assert qc.w_z <= r.q_x + 1

    def test_k_preserved_on_corpus(self):
        for q in corpus(31, 30):
            parts, f, _ = build_cone_parts(q)
            qc = cone_code(q, parts, f)
            assert qc.k == q.k
            rparts = cellulate(parts)
            qr = cone_code(q, rparts, f)
            assert qr.k == q.k

    def test_chain_map_validated(self):
        # the broken chain-map condition at a qubit makes the cone code's X
        # row anticommute with that qubit's 1-cell Z row
        r, parts, f, _ = hexagon_parts()
        broken = parts[0].zero_cells[:-1] + ((2, parts[0].zero_cells[-1][1], parts[0].zero_cells[-1][2]),)
        bad = ConeComplexPart(parts[0].parent_z_row, parts[0].one_cells, broken, parts[0].minus_one_cells)
        with pytest.raises(ValueError, match="^stabilizers anticommute: X row 2 vs Z row 4$"):
            cone_code(r, (bad,), f)

    @pytest.mark.parametrize("shift", [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)])
    def test_chain_map_of_another_shape_raises(self, shift):
        # f.n places the cone qubits: with n + 1 the code gained an idle qubit
        # and k = 2 from the hexagon's k = 1, and raised nothing
        r, parts, f, _ = hexagon_parts()
        wrong = ChainMapF(f.n + shift[0], f.n_x + shift[1], f.n_z + shift[2])
        dims = (r.n, r.n_x, r.n_z)
        moved = tuple(d + s for d, s in zip(dims, shift))
        message = re.escape(f"chain map (n, n_x, n_z) {moved} differs from the code's {dims}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            cone_code(r, parts, wrong)

    def test_zero_cell_outside_the_x_rows_raises(self):
        # an added 0-cell naming X row n_x enters two 1-cell Z rows and no X
        # row, so the code would commute: the numbering itself refuses it
        r, parts, f, _ = hexagon_parts()
        _, qa, qb = parts[0].zero_cells[-1]
        extra = parts[0].zero_cells + ((r.n_x, qa, qb),)
        bad = (ConeComplexPart(parts[0].parent_z_row, parts[0].one_cells, extra, parts[0].minus_one_cells),)
        message = f"^part for Z row 0: a 0-cell names X row {r.n_x}, but the code has {r.n_x} X rows$"
        with pytest.raises(ValueError, match=message):
            cone_code(r, bad, f)
        with pytest.raises(ValueError, match=message):
            cone_schedule(baseline_schedule(r, 0), bad, f)


class TestCellulate:
    def test_short_cycles_untouched(self):
        r = ring_face_code(4)
        parts, f, _ = build_cone_parts(r, weight_threshold=3)
        assert cellulate(parts) == parts

    def test_hexagon_split(self):
        _, parts, _, _ = hexagon_parts()
        cparts = cellulate(parts)
        part = cparts[0]
        assert all(len(c) <= 4 for c in part.minus_one_cells)
        b1, b0 = _part_boundaries(part)
        assert mat_mul(b0, b1).is_zero()
        # homology unchanged: H0 still trivial, cycle ranks consistent
        assert len(part.zero_cells) - rank(b0) == rank(b1)

    def test_octagon_split(self):
        r = ring_face_code(8)
        parts, f, _ = build_cone_parts(r)
        cparts = cellulate(parts)
        part = cparts[0]
        assert all(len(c) <= 4 for c in part.minus_one_cells)
        qc = cone_code(r, cparts, f)
        assert qc.k == r.k and qc.w_x <= 4

    def test_chords_map_to_zero(self):
        _, parts, _, _ = hexagon_parts()
        cparts = cellulate(parts)
        chords = [t for t in cparts[0].zero_cells if t[0] is None]
        assert chords  # a 6-cycle needs at least one chord


class TestThickenCone:
    def test_length_one_noop(self):
        r, parts, f, _ = hexagon_parts()
        qc = cone_code(r, cellulate(parts), f)
        assert thicken_cone(qc, 1) == qc

    def test_dual_thickening_multiplies_z(self):
        r, parts, f, _ = hexagon_parts()
        qc = cone_code(r, cellulate(parts), f)
        qt = thicken_cone(qc, 2)
        assert qt.k == qc.k
        assert css_distance(qt, "Z") == 2 * css_distance(qc, "Z")
        assert css_distance(qt, "X") == css_distance(qc, "X")

    def test_region_a_qx_bounded(self):
        # height-chosen rows plus at most two repetition checks per column
        r, parts, f, _ = hexagon_parts()
        qc = cone_code(r, cellulate(parts), f)
        for ell in (2, 3):
            qt, bm, hr = thicken_cone_detail(qc, ell)
            cols = qt.h_x.col_weights()
            for qb in range(qc.n):
                for col in range(ell):
                    assert cols[qb * ell + col] <= hr.achieved_max + 2


class TestSoundness:
    def test_singleton_ratio(self):
        # a 3-cycle filled only by single vertices: lambda = min(1, |u|/|v|)
        r = ring_face_code(3)
        parts, f, _ = build_cone_parts(r, weight_threshold=2)
        lam = soundness_lambda(parts)
        assert lam == soundness_lambda_bruteforce(parts)

    def test_empty_parts(self):
        assert soundness_lambda(()) == Fraction(1)

    def test_matches_bruteforce(self):
        for ring in (4, 5, 6, 7, 8):
            r = ring_face_code(ring)
            parts, f, _ = build_cone_parts(r, weight_threshold=3)
            cparts = cellulate(parts)
            assert soundness_lambda(parts) == soundness_lambda_bruteforce(parts)
            assert soundness_lambda(cparts) == soundness_lambda_bruteforce(cparts)

    def test_budget(self, monkeypatch):
        # the ring-12 face part has cycle dimension 11 and filling dimension
        # 1: 2^12 lookups against a span of 2 fillings.  A table cap of 41
        # allows 4,100 lookups, 40 only 4,000, and 1 holds no 2 fillings
        (part,), _, _ = build_cone_parts(ring_face_code(12), weight_threshold=3)
        lam = soundness_lambda((part,))
        monkeypatch.setattr(cone, "MITM_TABLE_CAP", 41)
        assert soundness_lambda((part,)) == lam
        monkeypatch.setattr(cone, "MITM_TABLE_CAP", 40)
        with pytest.raises(CapExceeded, match=r"2\^11 cycles x 2\^1 fillings exceed the walk cap 4000$"):
            soundness_lambda((part,))
        monkeypatch.setattr(cone, "MITM_TABLE_CAP", 1)
        with pytest.raises(CapExceeded, match=r"the 2\^1 fillings exceed table_cap 1$"):
            soundness_lambda((part,))

    def test_in_unit_interval(self):
        for q in corpus(37, 20):
            parts, f, _ = build_cone_parts(q)
            if any(len(p.one_cells) > 16 for p in parts):
                continue
            lam = soundness_lambda(cellulate(parts))
            assert 0 < lam <= 1


class TestReducedConeDistanceBound:
    @pytest.mark.parametrize("ring", [6, 7, 8])
    def test_z_distance_bound(self, ring):
        r = ring_face_code(ring)
        d_z = css_distance(r, "Z")
        parts, f, _ = build_cone_parts(r)
        cparts = cellulate(parts)
        qc = cone_code(r, cparts, f)
        lam = soundness_lambda(cparts)
        ell = 2
        qt = thicken_cone(qc, ell)
        assert css_distance(qt, "Z") >= d_z * ell * lam
        assert css_distance(qt, "X") >= css_distance(r, "X")


def seeded_5x8_hgps(seed: int = 13, count: int = 3) -> list[CssCode]:
    """Hypergraph products of two random full-rank 5 x 8 checks whose rows have weight 4."""
    rng = random.Random(seed)

    def factor() -> ClassicalCode:
        while True:
            h = BinMatrix.from_support([rng.sample(range(8), 4) for _ in range(5)], 8)
            if rank(h) == 5:
                return ClassicalCode(h)

    return [hgp(factor(), factor()) for _ in range(count)]


CYCLE_CODES = [ring_face_code(n) for n in range(3, 11)] + [steane_code(), surface_code_2x3()]
CYCLE_CODES += corpus(11, 50) + seeded_5x8_hgps()

# multigraphs on 1..9 vertices: parallel edges, self-loops, isolated vertices and several components
multigraphs = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14)))


class TestPartLambda:
    def test_matches_the_fraction_walk(self):
        # the integer-ratio walk gives the reference's Fraction on every part
        # of the cycle corpus and of the transform_build input, raw and
        # cellulated, at each threshold (712 parts, none over the budget)
        stage_input = load_gf2_layers().build_chain(0)[0][1]
        for q in CYCLE_CODES + [stage_input]:
            for threshold in (3, 5):
                parts = build_cone_parts(q, threshold)[0]
                for part in parts + cellulate(parts):
                    assert soundness_lambda((part,)) == reference_part_lambda(part)


class TestCycleLoops:
    @pytest.mark.parametrize("threshold", [2, 3, 5])
    def test_cone_parts_match_the_reference_loops(self, threshold, monkeypatch):
        # every spanning-tree cycle basis that build_cone_parts takes, and the
        # walk of every cycle in it, equals the reference loop's
        real_cycles, real_walk = cone._fundamental_cycles, cone._walk_cycle
        seen = {"cycles": 0, "walks": 0}

        def cycles(n_vertices, edges):
            out = real_cycles(n_vertices, edges)
            assert out == reference_fundamental_cycles(n_vertices, edges)
            seen["cycles"] += len(out[0])
            return out

        def walk(part, cyc):
            out = real_walk(part, cyc)
            assert out == reference_walk_cycle(part, cyc)
            seen["walks"] += 1
            return out

        monkeypatch.setattr(cone, "_fundamental_cycles", cycles)
        monkeypatch.setattr(cone, "_walk_cycle", walk)
        for q in CYCLE_CODES:
            parts = build_cone_parts(q, threshold)[0]
            cellulate(parts)
            for part in parts:  # the short cycles too, which cellulate leaves alone
                for cyc in part.minus_one_cells:
                    walk(part, cyc)
        assert seen["cycles"] > 500 and seen["walks"] > 500

    @settings(max_examples=200, deadline=None)
    @given(multigraphs)
    def test_multigraphs_match_the_reference_loops(self, graph):
        n, edges = graph
        found = cone._fundamental_cycles(n, edges)
        assert found == reference_fundamental_cycles(n, edges)
        labels = [3 * v + 1 for v in range(n)][::-1]  # one_cells need not be ascending
        part = SimpleNamespace(one_cells=labels, zero_cells=[(None, labels[a], labels[b]) for a, b in edges])
        for cyc in found[0]:
            assert cone._walk_cycle(part, cyc) == reference_walk_cycle(part, cyc)
            if len(cyc) > 1:  # drop an edge: a path is no closed walk
                for walker in (cone._walk_cycle, reference_walk_cycle):
                    with pytest.raises(ValueError, match="not a simple closed walk"):
                        walker(part, cyc[1:])


# two chords joining the same two qubits: the 0-cycle on one chord alone is
# not a boundary, since d_1 gives both chords the same row
UNFILLABLE = ConeComplexPart(0, (0, 1), ((None, 0, 1), (None, 0, 1)), ())


@pytest.mark.parametrize("call, message", [
    (lambda: build_cone_parts(steane_code(), 0), "weight threshold must be >= 1"),
    (lambda: soundness_lambda((UNFILLABLE,)), "0-cycle has no filling; zeroth homology is not trivial"),
])
def test_malformed_input_raises(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
