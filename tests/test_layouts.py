"""The cone, balanced-schedule and gauge-patch layouts against the scanning
constructions kept in tests/helpers.py: equal matrices, equal chain-map
messages and equal schedule text, with and without cellulation, at
schedule seeds 0 and 3."""

import random

import pytest

from helpers import (
    corpus,
    gauge_chain_qubits,
    random_hgp,
    reference_balanced_schedule,
    reference_cone_code,
    reference_cone_schedule,
    reference_gauge_patches,
)
from qwr.codes import hamming_7_4, repetition_code, ring_face_code, steane_code, surface_code_2x3
from qwr.cone import ConeComplexPart, build_cone_parts, cellulate, cone_code
from qwr.hgp import hgp
from qwr.reduce import balance_x, balance_z, choose_heights, copy_code, gauge_code, greedy_heights, kept_z_rows, thicken
from qwr.schedule import (
    balanced_schedule,
    baseline_schedule,
    carry,
    cone_schedule,
    copied_schedule,
    dual_schedule,
    format_schedule,
    gauged_schedule,
    prune_z_steps,
)

SMALL = [ring_face_code(n) for n in range(3, 11)] + [steane_code(), surface_code_2x3()]
HGPS = [
    hgp(hamming_7_4(), hamming_7_4()),
    hgp(hamming_7_4(), repetition_code(3)),
    random_hgp(random.Random(8), n_max=6),
]
CONE_CODES = SMALL + corpus(11, 50) + HGPS
CLASSICAL = [repetition_code(2), repetition_code(3), hamming_7_4()]
SEEDS = (0, 3)


@pytest.mark.parametrize("cellulated", [False, True], ids=["plain", "cellulated"])
@pytest.mark.parametrize("threshold", [2, 3, 5])
def test_cone_layout_matches_reference(threshold, cellulated):
    for q in CONE_CODES:
        parts, f, _ = build_cone_parts(q, threshold)
        if cellulated:
            parts = cellulate(parts)
        assert cone_code(q, parts, f) == reference_cone_code(q, parts, f)
        for seed in SEEDS:
            m = baseline_schedule(q, seed)
            assert format_schedule(cone_schedule(m, parts, f)) == format_schedule(reference_cone_schedule(m, parts, f))


@pytest.mark.parametrize("cone_ell", [2, 3])
def test_cone_thickening_carrier_matches_reference(cone_ell):
    """carry("cone", cone_ell > 1) equals the scanning cone layout thickened
    in the dual basis by hand, heights greedy at load 1."""
    for q in SMALL + corpus(11, 15):
        for seed in SEEDS:
            m = baseline_schedule(q, seed)
            new, carried, _, _ = carry("cone", q, m, cone_threshold=3, cone_ell=cone_ell)
            parts, f, _ = build_cone_parts(q, 3)
            parts = cellulate(parts)
            thick, bm = thicken(reference_cone_code(q, parts, f).transposed(), cone_ell)
            heights = greedy_heights(thick, bm, 1).heights
            inner = reference_balanced_schedule(dual_schedule(reference_cone_schedule(m, parts, f)), bm)
            assert new == choose_heights(thick, bm, heights).transposed()
            want = dual_schedule(prune_z_steps(inner, set(kept_z_rows(bm, heights))))
            assert format_schedule(carried) == format_schedule(want)


def test_chain_map_messages_match_reference():
    """A part whose 0-cell names the wrong X row fails at the same qubit with
    the same message."""
    rng = random.Random(4)
    broken_count = 0
    for q in SMALL + corpus(13, 20):
        parts, f, _ = build_cone_parts(q, 3)
        for _ in range(3 if parts else 0):
            i = rng.randrange(len(parts))
            part = parts[i]
            t = rng.randrange(len(part.zero_cells))
            xr, qa, qb = part.zero_cells[t]
            wrong = rng.choice([None] + [r for r in range(q.n_x) if r != xr])
            zero_cells = part.zero_cells[:t] + ((wrong, qa, qb),) + part.zero_cells[t + 1:]
            bad = ConeComplexPart(part.parent_z_row, part.one_cells, zero_cells, part.minus_one_cells)
            broken = parts[:i] + (bad,) + parts[i + 1:]
            with pytest.raises(ValueError, match="chain-map") as got:
                cone_code(q, broken, f)
            with pytest.raises(ValueError) as want:
                reference_cone_code(q, broken, f)
            assert str(got.value) == str(want.value)
            broken_count += 1
    assert broken_count == 45


@pytest.mark.parametrize("transform", [balance_x, balance_z])
def test_balanced_schedule_matches_reference(transform):
    for q in SMALL + corpus(11, 15):
        for c in CLASSICAL:
            _, bm = transform(q, c)
            for seed in SEEDS:
                m = baseline_schedule(q, seed)
                assert format_schedule(balanced_schedule(m, bm)) == format_schedule(reference_balanced_schedule(m, bm))


def test_thickened_chain_schedule_matches_reference():
    """The copy -> gauge -> thicken(2) chain of hgp(H7, H7), n = 956."""
    q = HGPS[0]
    qc, cm = copy_code(q)
    qg, gm = gauge_code(qc)
    m = gauged_schedule(copied_schedule(baseline_schedule(q, 3), cm), gm, cm)
    _, bm = thicken(qg, 2)
    assert format_schedule(balanced_schedule(m, bm)) == format_schedule(reference_balanced_schedule(m, bm))


def test_gauge_patches_match_reference():
    for q in CONE_CODES + corpus(12, 40):
        for code in (q, copy_code(q)[0]):
            qg, gm = gauge_code(code)
            z_rows, z_patch = reference_gauge_patches(code, gauge_chain_qubits(gm))
            assert list(qg.h_z.rows) == z_rows
            assert gm.z_patch == z_patch
