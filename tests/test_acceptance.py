"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
Every tolerance is exact (integer/rational equality); search bounds are
derived from the values under test, never loosened to fit.
"""

import json
import random
import time

from qwr.codes import (
    INF,
    CssCode,
    css_distance,
    hamming_7_4,
    repetition_code,
    ring_face_code,
    steane_code,
    surface_code_2x3,
)
from qwr.cone import build_cone_parts, cellulate, cone_code, soundness_lambda, thicken_cone
from qwr.f2la import BinMatrix, mat_mul, transpose
from qwr.faultdist import (
    component_weight_audit,
    effective_distance,
    hook_weight_audit,
    oracle_effective_distance,
    witness_is_valid,
)
from qwr.hgp import ProductSpec, hgp, higher_dim_hgp
from qwr.reduce import (
    balance_x,
    balance_z,
    choose_heights,
    copy_code,
    gauge_code,
    greedy_heights,
    kept_z_rows,
    thicken,
)
from qwr.schedule import (
    balanced_schedule,
    baseline_schedule,
    cone_schedule,
    copied_schedule,
    enumerate_random_schedules,
    gauged_schedule,
    prune_z_steps,
)

from helpers import (
    assert_copy_lemma,
    assert_gauge_lemma,
    assert_thicken_lemma,
    corpus,
    random_css,
    reference_enumerate_faults,
    soundness_lambda_bruteforce,
)


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def curated_codes():
    return [
        steane_code(),
        surface_code_2x3(),
        hgp(repetition_code(2), repetition_code(2)),
        hgp(repetition_code(3), repetition_code(3)),
    ]


def quantum_hamming_15_7():
    h = hamming_15_11()
    return CssCode(h, h)


def hamming_15_11():
    rows = [[(c >> b) & 1 for c in range(1, 16)] for b in range(4)]
    return BinMatrix.from_rows(rows, 15)


ELL_CONE = 2


def reduced_cone(q, threshold=5):
    parts, f, retained = build_cone_parts(q, threshold)
    cparts = cellulate(parts)
    return cone_code(q, cparts, f), cparts, f


def validated(q):
    assert mat_mul(q.h_x, transpose(q.h_z)).is_zero()
    return q


def test_criterion_1_css_validity_and_k():
    t0 = time.monotonic()
    codes = corpus(101, 200, n_max=16) + curated_codes()
    assert len(codes) >= 204
    checked = 0
    for i, q in enumerate(codes):
        k = q.k
        if q.q_x >= 1:
            qc, cm = copy_code(q)
            assert validated(qc).k == k
            qg, _ = gauge_code(qc)
            assert validated(qg).k == k
        qt, bm = thicken(q, 2)
        assert validated(qt).k == k
        hr = greedy_heights(qt, bm, max(1, q.q_z))
        assert validated(choose_heights(qt, bm, hr.heights)).k == k
        c = hamming_7_4() if i % 10 == 0 else repetition_code(2)
        qb, _ = balance_x(q, c)
        assert validated(qb).k == k * c.k
        qbz, _ = balance_z(q, c)
        assert validated(qbz).k == k * c.k
        parts, f, _ = build_cone_parts(q)
        assert validated(cone_code(q, parts, f)).k == k
        qr, cparts, f2 = reduced_cone(q)
        assert validated(qr).k == k
        assert validated(thicken_cone(qr, ELL_CONE)).k == k
        checked += 1
    dt = time.monotonic() - t0
    report(1, checked == len(codes) and dt < 120,
           f"CSS validity and k preservation on {checked} codes in {dt:.1f}s (< 120s)")


def test_criterion_2_parameter_lemmas():
    t0 = time.monotonic()
    codes = corpus(103, 60, n_max=14) + curated_codes()
    cone_margin = 0
    for q in codes:
        if q.q_x >= 1:
            qc, cm = copy_code(q)
            assert_copy_lemma(q, qc, cm)
            qg, gm = gauge_code(qc)
            assert_gauge_lemma(qc, qg, gm)
        for ell in (2, 3):
            qt, _ = thicken(q, ell)
            assert_thicken_lemma(q, qt, ell)
        qr, cparts, _ = reduced_cone(q)
        if cparts:
            assert qr.w_z <= q.q_x + 8
            cone_margin = max(cone_margin, qr.w_z - q.q_x)
    # distance equalities/inequalities on instances within brute-force caps
    rng = random.Random(107)
    dist_checked = 0
    while dist_checked < 8:
        q = random_css(rng, n_max=8)
        if q.k < 1 or q.q_x < 1 or q.n_x == 0:
            continue
        dx, dz = css_distance(q, "X"), css_distance(q, "Z")
        qc, _ = copy_code(q)
        assert css_distance(qc, "Z") == q.q_x * dz
        assert css_distance(qc, "X") == dx
        qt, _ = thicken(q, 2)
        assert css_distance(qt, "X") == 2 * dx
        assert css_distance(qt, "Z") == dz
        qg, _ = gauge_code(qc)
        if qg.n <= 24:
            assert css_distance(qg, "X") >= dx / (q.w_x / 2 + 1)
            assert css_distance(qg, "Z") >= q.q_x * dz
        dist_checked += 1
    dt = time.monotonic() - t0
    report(2, dt < 300,
           f"parameter lemmas on {len(codes)} codes, {dist_checked} distance instances, "
           f"reduced-cone w_z <= q_x + {cone_margin} in {dt:.1f}s (< 300s)")


def test_criterion_3_thickening_figure():
    t0 = time.monotonic()
    s = surface_code_2x3()
    assert css_distance(s, "X") == 2 and css_distance(s, "Z") == 3
    st, _ = thicken(s, 3)
    dx, dz = css_distance(st, "X"), css_distance(st, "Z")
    dt = time.monotonic() - t0
    report(3, dx == 6 and dz == 3 and dt < 60,
           f"surface patch thickened at ell=3 has d_X={dx}, d_Z={dz} in {dt:.1f}s (< 60s)")


def test_criterion_4_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(109)
    agree = 0
    while agree < 50:
        q = random_css(rng, n_max=8)
        if q.k < 1:
            continue
        m = baseline_schedule(q, rng.randrange(1, 10 ** 6))
        basis = rng.choice(["X", "Z"])
        fast = effective_distance(q, m, basis, 3)
        slow = oracle_effective_distance(q, m, basis, 3)
        assert fast.distance == slow.distance
        assert witness_is_valid(q, basis, fast)
        agree += 1
    deep = 0
    while deep < 10:
        q = random_css(rng, n_max=7)
        if q.k < 1:
            continue
        m = baseline_schedule(q, rng.randrange(1, 10 ** 6))
        basis = rng.choice(["X", "Z"])
        fast = effective_distance(q, m, basis, 4)
        slow = oracle_effective_distance(q, m, basis, 4)
        assert fast.distance == slow.distance
        deep += 1
    dt = time.monotonic() - t0
    report(4, dt < 600,
           f"search == oracle on 50 triples at max_d=3 and 10 at max_d=4 in {dt:.1f}s (< 600s)")


def test_criterion_5_fault_propagation():
    t0 = time.monotonic()
    audited = 0
    for q in corpus(113, 40, n_max=14) + curated_codes():
        for seed in (0, 1):
            assert hook_weight_audit(q, baseline_schedule(q, seed)).ok
            audited += 1
    # weight-<=3 corollary instances, both all-X and all-Z sides
    qg, _ = gauge_code(copy_code(steane_code())[0])
    instances = [
        (hgp(repetition_code(2), repetition_code(2)), ("X", "Z")),
        (hgp(repetition_code(3), repetition_code(3)), ()),  # w = 4 rows: skip
        (qg, ("X",)),
    ]
    corollary = 0
    for q, bases in instances:
        for basis in bases:
            assert q.h(basis).max_row_weight() <= 3
            d = css_distance(q, basis)
            for m in enumerate_random_schedules(q, 20, seed=11):
                r = effective_distance(q, m, basis, int(d))
                assert r.distance == d
                corollary += 1
    dt = time.monotonic() - t0
    report(5, corollary >= 60 and dt < 600,
           f"hook audit on {audited} schedules; weight<=3 corollary on {corollary} "
           f"schedule runs in {dt:.1f}s")


def _codes_with_qx3(count, seed, n_max=9):
    out = [steane_code(), quantum_hamming_15_7()]
    rng = random.Random(seed)
    while len(out) < count:
        q = random_css(rng, n_max=n_max)
        if q.k >= 1 and q.q_x >= 3 and q.n_x >= 2:
            out.append(q)
    return out


N_SCHED = 20


def test_criterion_6_copied_suite():
    t0 = time.monotonic()
    codes = _codes_with_qx3(5, 127)
    runs = 0
    for q in codes:
        qc, cm = copy_code(q)
        for m in enumerate_random_schedules(q, N_SCHED, seed=13):
            mc = copied_schedule(m, cm)
            pre_x = effective_distance(q, m, "X", 6).distance
            assert pre_x != INF
            post_x = effective_distance(qc, mc, "X", int(pre_x)).distance
            assert post_x == pre_x
            pre_z = effective_distance(q, m, "Z", 6).distance
            assert pre_z != INF
            if pre_z > 1:
                below = effective_distance(qc, mc, "Z", int(pre_z) - 1).distance
                assert below == INF
            runs += 1
    dt = time.monotonic() - t0
    report(6, runs == 5 * N_SCHED and dt < 900,
           f"copied schedules preserve eff d_X and never lower eff d_Z "
           f"({runs} schedule runs, {dt:.1f}s < 900s)")


def test_criterion_7_gauged_suite():
    t0 = time.monotonic()
    codes = _codes_with_qx3(5, 131)
    runs = 0
    for q in codes:
        qc, cm = copy_code(q)
        qg, gm = gauge_code(qc)
        d_gauged_x = css_distance(qg, "X")
        for m in enumerate_random_schedules(q, N_SCHED, seed=17):
            mc = copied_schedule(m, cm)
            mg = gauged_schedule(mc, gm, cm)
            post_x = effective_distance(qg, mg, "X", int(d_gauged_x)).distance
            assert post_x == d_gauged_x
            # any violation of eff d_Z(gauged) >= eff d_Z(copied) visible
            # within the search bound would make the right side smaller
            bound = 4
            pre_z = effective_distance(qc, mc, "Z", bound).distance
            post_z = effective_distance(qg, mg, "Z", bound).distance
            assert post_z >= pre_z or post_z > bound
            runs += 1
    dt = time.monotonic() - t0
    report(7, runs == 5 * N_SCHED and dt < 900,
           f"gauged schedules reach css d_X and never lower eff d_Z "
           f"({runs} schedule runs, {dt:.1f}s < 900s)")


def test_criterion_8_balanced_suite():
    t0 = time.monotonic()
    quantum = [hgp(repetition_code(2), repetition_code(2)),
               hgp(repetition_code(3), repetition_code(3))]
    classical = [repetition_code(2), repetition_code(3), hamming_7_4()]
    max_target = 6  # effective-distance search cap; combos beyond are skipped
    combos = skipped = 0
    for q in quantum:
        for c in classical:
            d_c = 2 if c.n == 2 else 3
            qb, bm = balance_x(q, c)
            for seed in (1, 2):
                m = baseline_schedule(q, seed)
                pre_x = effective_distance(q, m, "X", 6).distance
                pre_z = effective_distance(q, m, "Z", 6).distance
                target = d_c * int(pre_x)
                if target > max_target:
                    skipped += 1
                    continue
                mb = balanced_schedule(m, bm)
                post_x = effective_distance(qb, mb, "X", target).distance
                assert post_x == target, (q.n, c.n, seed)
                post_z = effective_distance(qb, mb, "Z", int(pre_z)).distance
                assert post_z == pre_z
                faults = reference_enumerate_faults(qb, mb, "X", dedup=False) + reference_enumerate_faults(
                    qb, mb, "Z", dedup=False
                )
                assert component_weight_audit(qb, bm, faults).ok
                combos += 1
    # the cheap combo gets a full 20-schedule pass
    q = quantum[0]
    c = classical[0]
    qb, bm = balance_x(q, c)
    for m in enumerate_random_schedules(q, 20, seed=29):
        pre_x = effective_distance(q, m, "X", 6).distance
        pre_z = effective_distance(q, m, "Z", 6).distance
        mb = balanced_schedule(m, bm)
        assert effective_distance(qb, mb, "X", 2 * int(pre_x)).distance == 2 * pre_x
        assert effective_distance(qb, mb, "Z", int(pre_z)).distance == pre_z
        combos += 1
    # choosing heights never lowers either effective distance
    heights_checked = 0
    q = quantum[0]
    qt, bm = thicken(q, 2)
    hr = greedy_heights(qt, bm, max(1, q.q_z))
    qh = choose_heights(qt, bm, hr.heights)
    keep = set(kept_z_rows(bm, hr.heights))
    for m in enumerate_random_schedules(q, 10, seed=31):
        mt = balanced_schedule(m, bm)
        mh = prune_z_steps(mt, keep)
        for basis in ("X", "Z"):
            before = effective_distance(qt, mt, basis, 4).distance
            bound = 4 if before == INF else int(before)
            after = effective_distance(qh, mh, basis, bound).distance
            assert after == INF or after >= before
            heights_checked += 1
    for q in quantum:
        for ell in (2, 3):
            qt, bm = thicken(q, ell)
            hr = greedy_heights(qt, bm, max(1, q.q_z))
            qh = choose_heights(qt, bm, hr.heights)
            m = baseline_schedule(q, 3)
            mt = balanced_schedule(m, bm)
            mh = prune_z_steps(mt, set(kept_z_rows(bm, hr.heights)))
            for basis in ("X", "Z"):
                before = effective_distance(qt, mt, basis, 6).distance
                bound = 6 if before == INF else int(before)
                after = effective_distance(qh, mh, basis, bound).distance
                assert after == INF or after >= before
                heights_checked += 1
    dt = time.monotonic() - t0
    report(8, combos >= 8 and heights_checked >= 8 and dt < 1200,
           f"balanced schedules multiply eff d_X and preserve eff d_Z on {combos} runs "
           f"({skipped} beyond caps skipped); heights never lower ({heights_checked} checks); "
           f"{dt:.1f}s < 1200s")


def test_criterion_9_hgp_no_hook_errors():
    t0 = time.monotonic()
    d3, _ = higher_dim_hgp(ProductSpec((repetition_code(2),) * 3, level=1))
    instances = [
        hgp(repetition_code(2), repetition_code(2)),
        hgp(repetition_code(3), repetition_code(3)),
        d3,
    ]
    runs = 0
    for q in instances:
        dx, dz = css_distance(q, "X"), css_distance(q, "Z")
        for m in enumerate_random_schedules(q, 50, seed=19):
            assert effective_distance(q, m, "X", int(dx)).distance == dx
            assert effective_distance(q, m, "Z", int(dz)).distance == dz
            runs += 1
    # oracle confirmation on the two smallest instances
    for q in instances[:2]:
        dx = css_distance(q, "X")
        for m in enumerate_random_schedules(q, 3, seed=23):
            assert oracle_effective_distance(q, m, "X", int(dx)).distance == dx
    dt = time.monotonic() - t0
    report(9, runs == 150 and dt < 1200,
           f"effective == code distance in both bases over {runs} random schedules "
           f"on 2D and 3D products ({dt:.1f}s < 1200s)")


def test_criterion_10_cone_suite():
    t0 = time.monotonic()
    instances = [ring_face_code(6), ring_face_code(7), ring_face_code(8),
                 balance_x(ring_face_code(6), repetition_code(2))[0]]
    assert all(any(w in (6, 7, 8) for w in q.h_z.row_weights()) for q in instances)
    checked = bounds = 0
    for q in instances:
        qr, cparts, f = reduced_cone(q)
        lam = soundness_lambda(cparts)
        assert lam == soundness_lambda_bruteforce(cparts)
        for seed in (1, 2, 3, 4, 5):
            m = baseline_schedule(q, seed)
            mc = cone_schedule(m, cparts, f)
            pre_x = effective_distance(q, m, "X", 6).distance
            assert pre_x != INF
            post_x = effective_distance(qr, mc, "X", int(pre_x)).distance
            assert post_x == pre_x
        if q.n <= 12:  # exact distances of the dual-thickened code stay feasible
            d_z = css_distance(q, "Z")
            qt = thicken_cone(qr, ELL_CONE)
            assert css_distance(qt, "Z") >= d_z * ELL_CONE * lam
            assert css_distance(qt, "X") >= css_distance(q, "X")
            bounds += 1
        checked += 1
    dt = time.monotonic() - t0
    report(10, checked == 4 and bounds == 3 and dt < 900,
           f"reduced-cone schedules preserve eff d_X on {checked} codes with a weight 6-8 "
           f"Z check; d_Z' >= d_Z*ell*lambda on {bounds} ({dt:.1f}s < 900s)")


def test_criterion_11_determinism(tmp_path, monkeypatch):
    from qwr.cli import PipelineConfig, format_matrix, run_pipeline

    q = steane_code()
    hx = tmp_path / "hx.mtxf2"
    hz = tmp_path / "hz.mtxf2"
    hx.write_text(format_matrix(q.h_x))
    hz.write_text(format_matrix(q.h_z))
    cfg = PipelineConfig(
        hx_path=str(hx), hz_path=str(hz), transforms=["copy", "gauge"],
        schedule="derived", basis="both", max_d=3, seed=4,
    )

    def run():
        rep = run_pipeline(cfg)
        rep.pop("timing_s")
        return json.dumps(rep, sort_keys=True).encode()

    monkeypatch.setenv("QWR_THREADS", "1")
    first = run()
    second = run()
    monkeypatch.setenv("QWR_THREADS", "4")
    third = run()
    ok = first == second == third
    report(11, ok, "pipeline reports byte-identical across runs and QWR_THREADS in {1, 4}")
