#!/usr/bin/env python3
"""Time the GF(2) and construction layers on each stage of a weight-reduction chain.

The chain starts from the hypergraph product of two seeded 5 x 8 classical
codes with row weight 4 (n = 89) and runs copy -> gauge -> thicken(2) on one
branch and cone -> thicken_cone(2) on the other, carrying a seeded baseline
schedule through every stage.  For every stage it prints the best-of-N
perf_counter time, in milliseconds, of rank, kernel_basis and solve on both
check matrices, of logical_signatures over the unit vectors in both bases,
of component_weight_audit over the hook faults (thickened stage only), of
enumerate_faults in both bases, of Schedule.validate, and of the
construction that builds the stage (input: hgp; copy: copy_code; gauge:
gauge_code; cone: cone_code on the cellulated parts; thicken and
thicken_cone: reduce.thicken), of transpose on both check matrices, of
hook_weight_audit on the stage's schedule, and of col_weights on both check
matrices.  rank, kernel_basis, solve, transpose and col_weights run on fresh
copies of the matrices, made outside the timing (so col_weights counts the
row supports, with no transpose cached), and logical_signatures on a fresh
CssCode of such copies: a matrix keeps its transpose once computed and a
code its pivots, so a copy reused across repeats would time a cache hit.

    PYTHONPATH=src python scripts/gf2_layers.py [--seed S] [--repeat N]
"""

import argparse
import random
import time

from qwr.codes import ClassicalCode, CssCode, logical_signatures
from qwr.cone import build_cone_parts, cellulate, cone_code
from qwr.f2la import BinMatrix, kernel_basis, mat_vec, rank, solve, transpose
from qwr.faultdist import component_weight_audit, enumerate_faults, hook_weight_audit
from qwr.hgp import hgp
from qwr.reduce import copy_code, gauge_code, thicken
from qwr.schedule import baseline_schedule, carry

LAYERS = (
    "rank", "kernel_basis", "solve", "logical_signatures", "component_weight_audit",
    "enumerate_faults", "validate", "product", "transpose", "hook_weight_audit", "col_weights",
)


def regular_classical(rng: random.Random, n: int, r: int, row_weight: int) -> ClassicalCode:
    """Random full-rank r x n checks of equal row weight and near-equal column weights."""
    stubs_total = r * row_weight
    degrees = [stubs_total // n + (j < stubs_total % n) for j in range(n)]
    while True:
        stubs = [j for j, d in enumerate(degrees) for _ in range(d)]
        rng.shuffle(stubs)
        rows = [set(stubs[i * row_weight:(i + 1) * row_weight]) for i in range(r)]
        if all(len(s) == row_weight for s in rows):
            h = BinMatrix.from_support(rows, n)
            if rank(h) == r:
                return ClassicalCode(h)


def build_chain(seed: int) -> list[tuple]:
    """(stage, code, schedule, audit arguments or None, stage build) for each
    stage of the chain."""
    rng = random.Random(seed)
    c1, c2 = regular_classical(rng, 8, 5, 4), regular_classical(rng, 8, 5, 4)
    q = hgp(c1, c2)
    m = baseline_schedule(q, seed)
    qc, mc, cm, _ = carry("copy", q, m)
    qg, mg, gm, _ = carry("gauge", qc, mc, cm)
    qt, mt, bm, _ = carry("thicken", qg, mg, gm, ell=2)
    faults = enumerate_faults(qt, mt, "X") + enumerate_faults(qt, mt, "Z")
    qk, mk, _, _ = carry("cone", q, m)
    qkt, mkt, _, _ = carry("cone", q, m, cone_ell=2)
    parts, fmap, _ = build_cone_parts(q)
    parts = cellulate(parts)
    return [
        ("input", q, m, None, lambda: hgp(c1, c2)),
        ("copy", qc, mc, None, lambda: copy_code(q)),
        ("gauge", qg, mg, None, lambda: gauge_code(qc)),
        ("thicken", qt, mt, [bm, faults], lambda: thicken(qg, 2)),
        ("cone", qk, mk, None, lambda: cone_code(q, parts, fmap)),
        ("thicken_cone", qkt, mkt, None, lambda: thicken(qk.transposed(), 2)),
    ]


def best_of(repeat: int, fn, make=lambda: None) -> float:
    """Least wall time of fn(make()) over `repeat` calls, in milliseconds;
    make() runs outside the timing."""
    best = float("inf")
    for _ in range(repeat):
        arg = make()
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def layer_times(q: CssCode, m, audit, product, repeat: int, rng: random.Random) -> list[float | None]:
    mats = (q.h_x, q.h_z)
    rhs = [mat_vec(h, rng.getrandbits(q.n)) for h in mats]
    units = [1 << j for j in range(q.n)]

    def copies():
        return [BinMatrix(h.rows, h.ncols) for h in mats]

    return [
        best_of(repeat, lambda hs: [rank(h) for h in hs], copies),
        best_of(repeat, lambda hs: [kernel_basis(h) for h in hs], copies),
        best_of(repeat, lambda hs: [solve(h, b) for h, b in zip(hs, rhs)], copies),
        # a fresh CssCode on fresh copies per call, so no cached pivots or transposes carry over
        best_of(repeat, lambda c: [logical_signatures(c, b, units) for b in "XZ"], lambda: CssCode(*copies())),
        None if audit is None else best_of(repeat, lambda _: component_weight_audit(q, *audit)),
        best_of(repeat, lambda _: [enumerate_faults(q, m, b) for b in "XZ"]),
        best_of(repeat, lambda _: m.validate(q)),
        best_of(repeat, lambda _: product()),
        best_of(repeat, lambda hs: [transpose(h) for h in hs], copies),
        best_of(repeat, lambda _: hook_weight_audit(q, m)),
        best_of(repeat, lambda hs: [h.col_weights() for h in hs], copies),
    ]


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0, help="seed of the classical codes and schedule")
    ap.add_argument("--repeat", type=int, default=5, help="calls per timing; the least is printed")
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    print(f"ms, best of {args.repeat} calls")
    print(f"{'stage':<13}{'n':>6}" + "".join(f"  {name}" for name in LAYERS))
    for stage, q, m, audit, product in build_chain(args.seed):
        cells = ["-" if t is None else f"{t:.2f}" for t in layer_times(q, m, audit, product, args.repeat, rng)]
        print(f"{stage:<13}{q.n:>6}" + "".join(f"  {c:>{len(name)}}" for c, name in zip(cells, LAYERS)))


if __name__ == "__main__":
    main()
