#!/usr/bin/env python3
"""Sample random single-ancilla schedules on product codes and report how the
effective distance compares with the code distance (it should never drop for
products of 1-complexes)."""

import sys

from qwr.codes import css_distance, repetition_code, steane_code
from qwr.faultdist import effective_distance
from qwr.hgp import ProductSpec, hgp, higher_dim_hgp
from qwr.schedule import enumerate_random_schedules

SAMPLES = int(sys.argv[1]) if len(sys.argv) > 1 else 25


def survey(name, q):
    dx, dz = css_distance(q, "X"), css_distance(q, "Z")
    worst = {"X": dx, "Z": dz}
    for m in enumerate_random_schedules(q, SAMPLES, seed=1):
        for basis, d in (("X", dx), ("Z", dz)):
            eff = effective_distance(q, m, basis, int(d)).distance
            worst[basis] = min(worst[basis], eff)
    print(
        f"{name:<22} d=({dx},{dz})  worst effective over {SAMPLES} schedules: "
        f"({worst['X']},{worst['Z']})"
    )


def main():
    survey("steane (not a product)", steane_code())
    survey("hgp(rep2,rep2)", hgp(repetition_code(2), repetition_code(2)))
    survey("hgp(rep3,rep3)", hgp(repetition_code(3), repetition_code(3)))
    d3, _ = higher_dim_hgp(ProductSpec((repetition_code(2),) * 3, level=1))
    survey("rep2 x rep2 x rep2", d3)
    d4, _ = higher_dim_hgp(ProductSpec((repetition_code(2),) * 4, level=2))
    survey("rep2^4 at level 2", d4)


if __name__ == "__main__":
    main()
