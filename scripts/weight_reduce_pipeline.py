#!/usr/bin/env python3
"""Walk the Steane code through copy -> gauge -> thicken, tracking parameters,
exact distances, and circuit-level effective distances at each stage."""

import sys

from qwr.codes import css_distance, steane_code
from qwr.faultdist import effective_distance
from qwr.reduce import greedy_heights
from qwr.schedule import baseline_schedule, carry

SEED = int(sys.argv[1]) if len(sys.argv) > 1 else 0
MAX_D = 4


def show(stage, q, m):
    dx = effective_distance(q, m, "X", MAX_D).distance
    dz = effective_distance(q, m, "Z", MAX_D).distance
    print(
        f"{stage:<18} n={q.n:<4} k={q.k} w_X={q.w_x} q_X={q.q_x} "
        f"w_Z={q.w_z:<3} q_Z={q.q_z}  eff d_X={dx} eff d_Z={dz} (max_d={MAX_D})"
    )


def main():
    q = steane_code()
    m = baseline_schedule(q, SEED)
    print(f"code distances: d_X={css_distance(q, 'X')} d_Z={css_distance(q, 'Z')}")
    show("steane", q, m)

    qc, mc, cm, _ = carry("copy", q, m)
    show("copied", qc, mc)

    qg, mg, gm, _ = carry("gauge", qc, mc, cm)
    show("copied+gauged", qg, mg)

    ell = 2
    qt, mt, bm, _ = carry("thicken", qg, mg, gm, ell=ell)
    show(f"thickened ell={ell}", qt, mt)

    hr = greedy_heights(qt, bm, max(1, qg.q_z))
    qh, mh, _, _ = carry("thicken", qg, mg, gm, ell=ell, heights=lambda *_: hr.heights)
    show("heights chosen", qh, mh)
    print(f"greedy heights: {hr.heights} (max per-qubit Z[T] load {hr.achieved_max})")


if __name__ == "__main__":
    main()
