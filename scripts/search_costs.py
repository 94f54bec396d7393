#!/usr/bin/env python3
"""Time the exact code-distance search on the rep/Hamming product grid.

The grid is every product of two or three rep(2), rep(3) and Hamming [7,4]
factors, at every level, in both bases, with n <= 140.  One product stands
for each (n, dim, d) class, dim being the dimension of the logical space
and d the Kunneth prediction.  For each class it prints the route and level
that answered codes.css_search, the kernel's work counts (probes: table
lookups; table_entries: subsets put into tables) and the best-of-N
perf_counter time in milliseconds.  A class whose logical space of 2^dim
vectors fits in the walk cap, 100 x table_cap, is enumerated instead: route
"exhaustive", level d and no kernel counts, and its time is css_search's.
Any other class is timed on its kernel run, all the work css_search does
before it returns the kernel's record or raises CapExceeded, and its row
comes from that record.  A class that exceeds a cap prints route "capped"
with the level the cap stopped at.  The last column names what stopped the
kernel: "table" (over table_cap entries) or "walk" (over the walk cap); "-"
when nothing did.

With --spread it asks the X distance of seeded random codes whose logical
space, of dimension dim = 20, 22, ..., 28, is spread over n = 3 dim qubits
(spread_code, five per dim), and prints the same columns with k.

With --faults it times the effective-distance search instead: Steane and
surface 2x3, each carried through copy -> gauge -> thicken(2) with the
seed-0 baseline schedule, in both bases at max_d 5, then surface 2x3 Z at
max_d 6, the one case that hits on a connected level and so runs the
witness pass.  Per case it prints the fault generators, then the distance,
the level that answered (max_d when the distance is inf) and the same work
counts from the record of faultdist.effective_distance, and its best-of-N
time (generators given, so fault enumeration is not timed).

    PYTHONPATH=src python scripts/search_costs.py [--repeat N] [--faults | --spread]
"""

import argparse
import random
import time
from functools import reduce
from itertools import product
from operator import xor

from qwr.codes import (
    MITM_PROBE_FACTOR,
    MITM_TABLE_CAP,
    CssCode,
    Signatures,
    css_search,
    hamming_7_4,
    logical_signatures,
    min_logical_search,
    repetition_code,
    steane_code,
    surface_code_2x3,
)
from qwr.f2la import BinMatrix, kernel_basis, rank
from qwr.faultdist import effective_distance, enumerate_faults
from qwr.hgp import ProductSpec, higher_dim_hgp, kunneth_distance_predictor
from qwr.schedule import baseline_schedule, carry

FACTORS = {"r2": repetition_code(2), "r3": repetition_code(3), "h7": hamming_7_4()}
MAX_N = 140


def grid_classes():
    """(name, level, basis, code, dim, d) for the first product of each class."""
    seen = set()
    for count in (2, 3):
        for names in product(FACTORS, repeat=count):
            for level in range(1, count):
                spec = ProductSpec(tuple(FACTORS[f] for f in names), level=level)
                q, _ = higher_dim_hgp(spec)
                if q.n > MAX_N:
                    continue
                pred = kunneth_distance_predictor(spec)
                for basis, d in (("X", pred.d_x), ("Z", pred.d_z)):
                    dim = q.k + (q.rank_x if basis == "X" else q.rank_z)
                    if (q.n, dim, d) not in seen:
                        seen.add((q.n, dim, d))
                        yield "".join(names), level, basis, q, dim, d


def kernel_search(q, basis):
    """The kernel run of a css_search whose 2^dim vectors exceed the walk
    cap, so that no enumeration answers it: css_search returns this record,
    or raises CapExceeded when a cap stopped the kernel (distance None)."""
    return min_logical_search(Signatures.of(*logical_signatures(q, basis)), q.n, witness=False)


def timed_search(q, basis, dim: int, repeat: int):
    """(Search, best wall time in ms over `repeat` calls) of css_search, or
    of its kernel run when that is what css_search would do."""
    search = kernel_search if q.k and 1 << dim > MITM_PROBE_FACTOR * MITM_TABLE_CAP else css_search
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        found = search(q, basis)
        best = min(best, time.perf_counter() - t0)
    return found, 1e3 * best


SPREAD_DIMS = range(20, 29, 2)
SPREAD_PER_DIM = 5


def spread_code(rng, dim: int, n: int, k0: bool = False) -> CssCode:
    """Random CSS code on n qubits whose X logical space ker(h_z) has
    dimension dim: n - dim random Z checks of full rank, and X checks drawn
    from their kernel, all dim of them when k0 (so k = 0), else at least
    dim - 12 (so a Gray-code pass over the logicals and all but ten checks
    walks at most 2^(dim - 10) vectors)."""
    while True:
        hz = BinMatrix([rng.getrandbits(n) for _ in range(n - dim)], n)
        if rank(hz) == n - dim:
            break
    ker = kernel_basis(hz).rows
    hx = []
    while rank(BinMatrix(hx, n)) < (dim if k0 else rng.randint(max(0, dim - 12), dim)):
        hx.append(reduce(xor, (row for row in ker if rng.random() < 0.5), 0))
    return CssCode(BinMatrix(hx or [0], n), hz)


def spread_costs(repeat: int) -> None:
    """One row per seeded spread code; see the module docstring."""
    print(f"{'dim':>3}{'n':>5}{'k':>4}{'d':>4}  {'route':<10}{'level':>5}{'probes':>10}{'table_entries':>15}"
          f"{'ms':>10}  cap")
    rng = random.Random(0)
    for dim in SPREAD_DIMS:
        for _ in range(SPREAD_PER_DIM):
            q = spread_code(rng, dim, 3 * dim)
            found, ms = timed_search(q, "X", dim, repeat)
            print(f"{dim:>3}{q.n:>5}{q.k:>4}{found.distance:>4}  {found.route:<10}{found.level:>5}{found.probes:>10}"
                  f"{found.table_entries:>15}{ms:>10.2f}  {found.stop[0] if found.stop else '-'}")


FAULT_CODES = {"steane": steane_code, "surface2x3": surface_code_2x3}
FAULT_MAX_D = 5
FAULT_CASES = [(name, basis, FAULT_MAX_D) for name in FAULT_CODES for basis in ("X", "Z")] + [("surface2x3", "Z", 6)]


def carried_thickening(q):
    """copy -> gauge -> thicken(2) with the seed-0 baseline schedule carried along."""
    qc, mc, cm, _ = carry("copy", q, baseline_schedule(q, 0))
    qg, mg, gm, _ = carry("gauge", qc, mc, cm)
    qt, mt, _, _ = carry("thicken", qg, mg, gm, ell=2)
    return qt, mt


def fault_costs(repeat: int) -> None:
    """One row per (code, basis, max_d) effective search; see the module docstring."""
    print(f"{'code':<11}{'b':>1}{'gens':>6}{'d':>5}{'level':>6}{'probes':>10}{'table_entries':>15}{'ms':>10}")
    carried = {name: carried_thickening(build()) for name, build in FAULT_CODES.items()}
    for name, basis, max_d in FAULT_CASES:
        q, m = carried[name]
        gens = enumerate_faults(q, m, basis)
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            found = effective_distance(q, m, basis, max_d, generators=gens)
            best = min(best, time.perf_counter() - t0)
        print(f"{name:<11}{basis:>1}{len(gens):>6}{found.distance:>5}{found.level:>6}{found.probes:>10}"
              f"{found.table_entries:>15}{1e3 * best:>10.2f}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5, help="calls per timing; the least is printed")
    runs = ap.add_mutually_exclusive_group()
    runs.add_argument("--faults", action="store_true",
                      help=f"time effective searches on carried schedules at max_d {FAULT_MAX_D} (and surface Z at 6)")
    runs.add_argument("--spread", action="store_true",
                      help="time the X distance of seeded random codes with dim 20-28 and n = 3 dim")
    args = ap.parse_args(argv)
    print(f"ms, best of {args.repeat} calls")
    if args.faults:
        fault_costs(args.repeat)
        return
    if args.spread:
        spread_costs(args.repeat)
        return
    print(f"{'product':<8}{'L':>2} {'b':>1}{'n':>5}{'dim':>5}{'d':>3}  {'route':<10}{'level':>5}"
          f"{'probes':>10}{'table_entries':>15}{'ms':>10}  cap")
    for name, level, basis, q, dim, d in grid_classes():
        found, ms = timed_search(q, basis, dim, args.repeat)
        route = found.route if found.distance is not None else "capped"
        print(f"{name:<8}{level:>2} {basis:>1}{q.n:>5}{dim:>5}{d:>3}  {route:<10}{found.level:>5}"
              f"{found.probes:>10}{found.table_entries:>15}{ms:>10.2f}  {found.stop[0] if found.stop else '-'}")


if __name__ == "__main__":
    main()
