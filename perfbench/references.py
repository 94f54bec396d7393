#!/usr/bin/env python3
"""Record the effective_deep reference answers and time the ROADMAP baseline cases.

    python3 perfbench/references.py

Run once from the repository root; it rewrites ``perfbench/references.json``.
Each effective-distance reference is cross-checked against
``faultdist.oracle_effective_distance`` (brute force over generator subsets):
the oracle must find nothing below a finite answer, whose witness must be
valid, and nothing at all up to max_d for an infinite one.  Checks needing
more than ``ORACLE_LIMIT`` subsets are skipped and marked unchecked.  The baseline
section times the thickened-Steane Z searches at max_d 5 and 6 and the
2^26-vector exhaustive X distance of the thickened hexagon cone.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from qwr import codes, faultdist  # noqa: E402
from qwr.codes import INF  # noqa: E402

import run  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import effective_cases  # noqa: E402

ORACLE_LIMIT = 3_000_000


def main() -> int:
    path = os.path.join(HERE, "references.json")
    tr = NullTracer()
    cases = effective_cases(tr)
    refs, oracle, baseline = {}, {}, {}
    for qid, q, m, basis, max_d in cases:
        gens = faultdist.enumerate_faults(q, m, basis)
        res = faultdist.effective_distance(q, m, basis, max_d, generators=gens)
        value = "inf" if res.distance == INF else res.distance
        refs[qid] = value
        # the oracle only needs to rule out every smaller set
        depth = max_d if res.distance == INF else res.distance - 1
        subsets = sum(comb(len(gens), t) for t in range(1, depth + 1))
        entry = {"generators": len(gens), "oracle_subsets": subsets, "oracle_agrees": None}
        if subsets <= ORACLE_LIMIT:
            # no smaller set exists, and the witness shows the found one does
            smaller = depth and faultdist.oracle_effective_distance(q, m, basis, depth, generators=gens)
            entry["oracle_agrees"] = (not smaller or smaller.distance == INF) and faultdist.witness_is_valid(
                q, basis, res
            )
            if not entry["oracle_agrees"]:
                print(f"{qid}: the oracle disagrees with the search's {value}", file=sys.stderr)
                return 1
        oracle[qid] = entry
        print(qid, value, entry, flush=True)

    # ROADMAP baseline cases
    _, steane, steane_m, _, _ = cases[0]
    for max_d in (5, 6):
        start = time.perf_counter()
        res = faultdist.effective_distance(steane, steane_m, "Z", max_d)
        baseline[f"thickened Steane Z effective_distance max_d={max_d}"] = {
            "s": time.perf_counter() - start,
            "value": "inf" if res.distance == INF else res.distance,
            "peak_rss_mb_so_far": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    hexagon = next(q for qid, q, *_ in cases if qid.startswith("hexagon"))
    start = time.perf_counter()
    d = codes.css_distance(hexagon, "X")
    baseline["thickened hexagon cone X css_distance (dim 26, exhaustive)"] = {
        "s": time.perf_counter() - start, "value": d,
    }
    print(baseline, flush=True)

    out = {
        "effective_deep": refs,
        "oracle_cross_check": oracle,
        "baseline": baseline,
        "provenance": run.provenance(0),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
