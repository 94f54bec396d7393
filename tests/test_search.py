"""The exact search kernel against the original meet-in-the-middle search,
the brute-force oracle, and css_search's exhaustive route, whose
Brouwer-Zimmermann enumeration is checked against the Gray-code pass it
replaced and against brute force."""

import random
import re
from functools import reduce
from itertools import combinations, product
from math import comb
from operator import xor

import pytest
from hypothesis import given, settings, strategies as st

from qwr import codes
from qwr.cli import _entry
from qwr.codes import (
    INF,
    CapExceeded,
    Signatures,
    classical_distance,
    css_search,
    exhaustive_min_weight,
    hamming_7_4,
    logical_basis,
    logical_signatures,
    min_logical_search,
    repetition_code,
    steane_code,
    surface_code_2x3,
)
from qwr.f2la import BinMatrix, kernel_basis, mat_vec
from qwr.faultdist import effective_distance, enumerate_faults, oracle_effective_distance, witness_is_valid
from qwr.hgp import ProductSpec, hgp, higher_dim_hgp, kunneth_distance_predictor
from qwr.reduce import balance_x, copy_code, gauge_code
from qwr.schedule import baseline_schedule, carry

from helpers import (
    brute_force_min_weight,
    corpus,
    load_script,
    random_classical,
    random_css,
    reference_enumerate_faults,
    reference_exhaustive_min_weight,
    reference_logical_basis,
    reference_logical_signatures,
    reference_min_logical,
    reference_signatures,
)

FACTORS = {"r2": repetition_code(2), "r3": repetition_code(3), "h7": hamming_7_4()}


def grid_code(names: str, level: int):
    """Product of the named rep(2)/rep(3)/Hamming factors at one level."""
    spec = ProductSpec(tuple(FACTORS[names[i:i + 2]] for i in range(0, len(names), 2)), level=level)
    return higher_dim_hgp(spec)[0]


def kernel_search(q, basis):
    """The kernel alone on single-qubit supports, every level, whatever the
    size of the logical space."""
    return min_logical_search(Signatures.of(*logical_signatures(q, basis)), q.n, witness=False)


def enumerated_distance(q, basis):
    """The logical space enumerated from weight 1: css_search's exhaustive route alone."""
    stabs = q.stab_pivots(basis).rows.values()
    return exhaustive_min_weight(logical_basis(q, basis).rows, stabs)


def fault_cases(seed: int, count: int, n_max: int):
    """(code, schedule, basis) triples drawn as the acceptance suite draws them."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = random_css(rng, n_max=n_max)
        if q.k < 1:
            continue
        m = baseline_schedule(q, rng.randrange(1, 10 ** 6))
        out.append((q, m, rng.choice(["X", "Z"])))
    return out


def carried_thickening(q):
    """copy -> gauge -> thicken(2) with the seed-0 schedule carried along,
    as `qwr transform copy gauge thicken --schedule derived` builds it."""
    qc, mc, cm, _ = carry("copy", q, baseline_schedule(q, 0))
    qg, mg, gm, _ = carry("gauge", qc, mc, cm)
    qt, mt, _, _ = carry("thicken", qg, mg, gm, ell=2)
    return qt, mt


@st.composite
def signature_lists(draw):
    """Short signature lists over a few syndrome bits, so that syndromes
    collide and one syndrome often carries several pairings."""
    k = draw(st.integers(1, 3))
    syn_bits = draw(st.integers(1, 4))
    sigs = draw(st.lists(st.integers(0, (1 << (syn_bits + k)) - 1), min_size=1, max_size=9))
    return sigs, k


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed, n_max, max_d", [(109, 8, 3), (113, 7, 4)])
    def test_matches_reference_and_oracle_on_corpus(self, seed, n_max, max_d):
        for q, m, basis in fault_cases(seed, 25, n_max):
            # the deduplicated list, and every generator with its duplicates
            for gens in (enumerate_faults(q, m, basis), reference_enumerate_faults(q, m, basis, dedup=False)):
                sigs, k = logical_signatures(q, basis, [g.residual for g in gens])
                found = min_logical_search(Signatures.of(sigs, k), max_d)
                assert (found.distance, found.witness) == reference_min_logical(sigs, k, max_d)
                res = effective_distance(q, m, basis, max_d, generators=gens)
                slow = oracle_effective_distance(q, m, basis, max_d, generators=gens)
                assert res.distance == slow.distance
                assert witness_is_valid(q, basis, res)

    @pytest.mark.parametrize("build", [steane_code, surface_code_2x3])
    @pytest.mark.parametrize("basis", ["X", "Z"])
    def test_effective_distance_returns_the_kernel_record(self, build, basis):
        # the same distance, level and work counts; the witness as generators
        q, m = carried_thickening(build())
        gens = enumerate_faults(q, m, basis)
        sigs, k = logical_signatures(q, basis, [g.residual for g in gens])
        kernel = min_logical_search(Signatures.of(sigs, k), 5)
        res = effective_distance(q, m, basis, 5, generators=gens)
        assert (res.distance, res.level, res.probes, res.table_entries) == (
            kernel.distance, kernel.level, kernel.probes, kernel.table_entries)
        witness = None if kernel.witness is None else tuple(gens[i] for i in kernel.witness)
        assert res == kernel._replace(witness=witness)
        assert witness_is_valid(q, basis, res)

    @settings(max_examples=300, deadline=None)
    @given(signature_lists(), st.integers(1, 5))
    def test_matches_reference_on_random_signatures(self, case, max_t):
        sigs, k = case
        found = min_logical_search(Signatures.of(sigs, k), max_t)
        assert (found.distance, found.witness) == reference_min_logical(sigs, k, max_t)
        assert min_logical_search(Signatures.of(sigs, k), max_t, witness=False).distance == found.distance

    def test_multi_pairing_bucket_decides_the_witness(self):
        # syndromes 1, 2, 2, 1 with pairings 0, 0, 1, 1: the first probe that
        # has a partner is index 0, through syndrome 1's second pairing
        found = min_logical_search(Signatures.of([0b10, 0b100, 0b101, 0b11], 1), 2)
        assert (found.distance, found.witness) == (2, (0, 3))

    def test_cap_is_reported_at_its_level(self):
        sigs = [(1 << (i + 1)) for i in range(6)]  # independent syndromes: no logical
        found = min_logical_search(Signatures.of(sigs, 1), 6, table_cap=10)
        assert found.distance is None and found.level == 4  # C(6, 2) = 15 > 10
        assert found.stop == ("table", 15)
        assert min_logical_search(Signatures.of(sigs, 1), 3, table_cap=10).distance == INF


def assert_representatives_do_not_matter(q, basis, vectors, max_t, table_cap=codes.MITM_TABLE_CAP):
    """Signatures against the weight-reduced reference basis and against
    logical_basis share their syndromes and drive min_logical_search to
    equal records, with and without the witness: the kernel reads the
    pairing rows only through their classes."""
    sigs, k = logical_signatures(q, basis, vectors)
    ref, ref_k = reference_logical_signatures(q, basis, vectors)
    assert ref_k == k and [s >> k for s in sigs] == [s >> k for s in ref]
    for witness in (True, False):
        assert (min_logical_search(Signatures.of(sigs, k), max_t, table_cap, witness=witness)
                == min_logical_search(Signatures.of(ref, k), max_t, table_cap, witness=witness))


class TestRepresentativeInvariance:
    @pytest.mark.parametrize("seed, n_max, max_d", [(109, 8, 3), (113, 7, 4)])
    def test_fault_corpora(self, seed, n_max, max_d):
        for q, m, basis in fault_cases(seed, 25, n_max):
            for gens in (enumerate_faults(q, m, basis), reference_enumerate_faults(q, m, basis, dedup=False)):
                assert_representatives_do_not_matter(q, basis, [g.residual for g in gens], max_d)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([codes.MITM_TABLE_CAP, 6]))
    def test_random_codes(self, seed, table_cap):
        # every level up to n on single-qubit supports, and with a cap that stops the search early;
        # the exhaustive route enumerates the same span from either basis
        q = random_css(random.Random(seed), n_max=16)
        for basis in "XZ":
            assert_representatives_do_not_matter(q, basis, [1 << j for j in range(q.n)], q.n, table_cap)
            stabs = q.stab_pivots(basis).rows.values()
            assert (exhaustive_min_weight(reference_logical_basis(q, basis).rows, stabs)
                    == exhaustive_min_weight(logical_basis(q, basis).rows, stabs))


class TestExhaustiveRoute:
    def test_agrees_with_mitm_on_corpus(self):
        for q in corpus(131, 30, n_max=10):
            for basis in ("X", "Z"):
                mitm = kernel_search(q, basis)
                assert mitm.distance == enumerated_distance(q, basis) == css_search(q, basis).distance
                assert mitm.route == "mitm"

    def test_classical_distance_brute_force(self):
        rng = random.Random(17)
        for _ in range(20):
            c = random_classical(rng, 3, 8)
            words = [v for v in range(1, 1 << c.n) if mat_vec(c.h, v) == 0]
            assert classical_distance(c) == min((v.bit_count() for v in words), default=INF)

    def test_cap_falls_back_to_exhaustive(self):
        # n=80, dim 18, d=20: 2,622 is the least table cap whose walk cap,
        # 100 times it, holds the 2^18 = 262,144 vectors of the logical
        # space, so the space is enumerated and the kernel does not run.  One
        # entry less and the kernel runs: lex level 4 needs C(80, 2) = 3,160
        # > 2,621 table entries
        q = spread_code(random.Random(0), 18, 80)
        assert css_search(q, "X", table_cap=2622) == codes.Search(20, None, "exhaustive", 20)
        message = ("no logical below weight 4, where the search stopped; the 2^18 vectors of the "
                   "logical space exceed the walk cap 262100 (100 x table_cap)")
        with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
            css_search(q, "X", table_cap=2621)


# random CSS codes whose X logical space, of a given dimension, is spread over n qubits
spread_code = load_script("search_costs").spread_code


class TestBrouwerZimmermann:
    def test_matches_gray_code_and_brute_force(self):
        # per dim 11-18: a short code, whose second information set is
        # partial, and a long one, which usually has two or more full ones;
        # per dim 19-22 (where the reference walks 2^dim vectors) a long one
        rng = random.Random(71)
        shapes = {"one partial": 0, "two or more full": 0}
        for dim in range(11, 23):
            short = [rng.randint(dim + 3, 2 * dim - 1)] if dim <= 18 else []
            for n in short + [rng.randint(5 * dim // 2, 3 * dim)]:
                q = spread_code(rng, dim, n)
                logicals = list(logical_basis(q, "X").rows)
                stabs = list(q.x_pivots.rows.values())
                assert len(logicals) + len(stabs) == dim
                d = reference_exhaustive_min_weight(logicals, stabs)
                if dim <= 16:
                    assert brute_force_min_weight(logicals, stabs) == d
                assert exhaustive_min_weight(logicals, stabs) == d, (dim, n)
                ranks = [r for *_, r in codes._information_sets(logicals + stabs, [1] * dim)]
                full = ranks.count(dim)
                shapes["one partial"] += full == 1 and len(ranks) == 2
                shapes["two or more full"] += full >= 2
        assert min(shapes.values()) >= 5

    def test_partial_sets_run_their_lower_levels(self):
        # logical row e0|p and stabilizer rows e1|q, e2|p+q, e3 on 4 + 6
        # columns, p and q of weight 3 on columns 4-6 and 7-9: the lightest
        # logical is e0+e1+e2 (weight 3).  In ascending column order the
        # sets have ranks 4, 2, 2, 2, and that logical is a single row of the
        # second matrix, which joins at level 2: skipping its level 1 would
        # stop at weight 4 (as would a bound term of w + 2)
        p, q = 0b111 << 4, 0b111 << 7
        rows, lams = [1 | p, 2 | q, 4 | p | q, 8], [1, 0, 0, 0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codes, "_column_order", sorted)
            assert [r for *_, r in codes._information_sets(rows, lams)] == [4, 2, 2, 2]
            assert codes._bz_min_weight(rows, lams) == 3 == brute_force_min_weight(rows[:1], rows[1:])

    def test_no_logicals(self):
        rng = random.Random(73)
        for dim in (11, 16, 22):
            q = spread_code(rng, dim, 2 * dim, k0=True)
            stabs = list(q.x_pivots.rows.values())
            assert (q.k, len(stabs)) == (0, dim)
            assert exhaustive_min_weight([], stabs) == INF == reference_exhaustive_min_weight([], stabs)
            assert css_search(q, "X").distance == INF

    def test_no_nonzero_mask_weighs_inf(self):
        # exhaustive_min_weight never calls it so: with no logical row it returns first
        q = spread_code(random.Random(83), 11, 22, k0=True)
        rows = list(q.x_pivots.rows.values())
        assert len(rows) == 11 and codes._bz_min_weight(rows, [0] * len(rows)) == INF

    def test_classical_distance_beyond_the_table_pass(self):
        # k = 11-16 kernel rows: every nonzero codeword counts
        rng = random.Random(79)
        for _ in range(6):
            n = rng.randint(20, 28)
            h = BinMatrix([rng.getrandbits(n) for _ in range(n - rng.randint(11, 16))], n)
            rows = kernel_basis(h).rows
            assert classical_distance(codes.ClassicalCode(h)) == brute_force_min_weight(rows, [])

    def test_grid_matches_kunneth(self):
        # each (n, dim, d) class of the rep(2)/rep(3)/Hamming product grid
        # (n <= 140, as scripts/search_costs.py) with dim <= 28, whose 2^dim
        # vectors fit in the walk cap: css_search enumerates it, the kernel
        # does not run, and the uncapped kernel agrees
        seen = set()
        for count in (2, 3):
            for names in product(FACTORS, repeat=count):
                for level in range(1, count):
                    spec = ProductSpec(tuple(FACTORS[f] for f in names), level=level)
                    q, _ = higher_dim_hgp(spec)
                    if q.n > 140:
                        continue
                    pred = kunneth_distance_predictor(spec)
                    for basis, d in (("X", pred.d_x), ("Z", pred.d_z)):
                        dim = q.k + (q.rank_x if basis == "X" else q.rank_z)
                        if dim <= 28 and (q.n, dim, d) not in seen:
                            seen.add((q.n, dim, d))
                            assert css_search(q, basis) == codes.Search(d, None, "exhaustive", d), (names, level)
                            assert kernel_search(q, basis).distance == d, (names, level)
        assert len(seen) == 25


class TestRouteChoice:
    # each logical space fits in the walk cap and is enumerated from weight 1:
    # r3r3r3 in 2.1-2.3 ms, where the kernel alone takes 17-22 ms; r2r3h7 in
    # 0.37-0.42 ms against 0.88-0.98 ms (medians of 21 and 61 calls, 2-vCPU
    # VM, pinned CPU)
    @pytest.mark.parametrize(
        "name, build, basis, distance, route",
        [
            ("steane", steane_code, "X", 3, "exhaustive"),
            ("r3r3r3 level 1 (n=51, dim 19)", lambda: grid_code("r3r3r3", 1), "X", 9, "exhaustive"),
            ("r2r3h7 level 2 (n=63, dim 22)", lambda: grid_code("r2r3h7", 2), "Z", 6, "exhaustive"),
        ],
    )
    def test_cheaper_route_is_taken(self, name, build, basis, distance, route):
        q = build()
        found = css_search(q, basis)
        assert (found.distance, found.route) == (distance, route), name
        assert _entry(css_search, q, basis) == {"value": distance, "method": route, "bound": None}


def connected_only(mp):
    """Force the connected walk at every level that walks 3 or more
    signatures, the least that _connected_pays accepts (the plain lex walk
    still picks the witness on the level that hits)."""
    mp.setattr(codes, "_connected_pays", lambda n, r: r >= 3)


class TestConnectedRoute:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_walk_is_each_connected_subset_once(self, seed):
        rng = random.Random(seed)
        syn = [rng.randrange(1, 1 << 7) & rng.randrange(1, 1 << 7) or 1 for _ in range(11)]
        pair = [rng.randrange(4) for _ in syn]
        nbr, _ = codes._adjacency(syn, pair)

        def connected(sub):
            reached, todo = {sub[0]}, [sub[0]]
            while todo:
                i = todo.pop()
                for j in sub:
                    if j not in reached and syn[i] & syn[j]:
                        reached.add(j)
                        todo.append(j)
            return len(reached) == len(sub)

        for r in range(2, 5):
            walked = []
            for prefix, cands, ps, pp in codes._connected_walk(syn, pair, nbr, r):
                xs = xp = 0
                for i in prefix:
                    xs, xp = xs ^ syn[i], xp ^ pair[i]
                assert (ps, pp) == (xs, xp)
                walked += [tuple(sorted(prefix + (i,))) for i in cands]
            assert len(walked) == len(set(walked))
            assert sorted(walked) == [c for c in combinations(range(len(syn)), r) if connected(c)]

    @pytest.mark.parametrize("seed, n_max, max_d", [(109, 8, 3), (113, 7, 4)])
    def test_forced_route_matches_reference_and_oracle_on_corpus(self, seed, n_max, max_d):
        with pytest.MonkeyPatch.context() as mp:
            connected_only(mp)
            TestKernelEquivalence().test_matches_reference_and_oracle_on_corpus(seed, n_max, max_d)

    @settings(max_examples=300, deadline=None)
    @given(signature_lists(), st.integers(1, 5))
    def test_forced_route_matches_reference_on_random_signatures(self, case, max_t):
        sigs, k = case
        with pytest.MonkeyPatch.context() as mp:
            connected_only(mp)
            found = min_logical_search(Signatures.of(sigs, k), max_t)
            assert (found.distance, found.witness) == reference_min_logical(sigs, k, max_t)
            assert min_logical_search(Signatures.of(sigs, k), max_t, witness=False).distance == found.distance

    def test_witness_comes_from_the_lex_walk(self):
        # syndromes 1, 4, 3, 5, 2 with pairings 0, 1, 0, 0, 1: the lex-first
        # hitting pair (0, 1) is not connected, so the connected walk hits
        # first at (0, 2)
        sigs = [0b10, 0b1001, 0b110, 0b1010, 0b101]
        with pytest.MonkeyPatch.context() as mp:
            connected_only(mp)
            found = min_logical_search(Signatures.of(sigs, 1), 3)
        assert (found.distance, found.witness) == reference_min_logical(sigs, 1, 3) == (3, (0, 1, 3))

    def test_thickened_steane_probes_a_fifth_of_the_subsets(self):
        # Z at max_d 5 ends inf, so every level is walked to the end
        q, m = carried_thickening(steane_code())
        gens = enumerate_faults(q, m, "Z")
        sigs, k = logical_signatures(q, "Z", [g.residual for g in gens])
        assert (len(gens), len(set(sigs) - {0})) == (234, 198)
        first = min_logical_search(Signatures.of(sigs, k), 5)
        again = min_logical_search(Signatures.of(sigs, k), 5)
        assert first.distance == INF
        assert first.probes < comb(198, 3) // 5
        assert (again.probes, again.table_entries) == (first.probes, first.table_entries)

    def test_thickened_surface_z_witness_is_unchanged(self):
        q, m = carried_thickening(surface_code_2x3())
        res = effective_distance(q, m, "Z", 6)
        assert res.distance == 6
        assert [(g.kind, g.qubit) for g in res.witness] == [("data", qb) for qb in (8, 10, 12, 14, 16, 18)]


class TestSignatures:
    @pytest.mark.parametrize("packed, k", [
        ([0, 0b0110, 0b0110, 0, 0b1100, 0b0110, 0b1100, 0b1011, 0, 0b1011], 1),
        ([0b101, 0b11, 0b101, 0b10, 0b11, 0b1], 2),
        ([0, 0, 0], 1),
        ([], 1),
    ])
    def test_hand_made_lists(self, packed, k):
        assert Signatures.of(packed, k) == reference_signatures(packed, k)

    @pytest.mark.parametrize("build", [steane_code, surface_code_2x3, lambda: hgp(FACTORS["r3"], FACTORS["r3"])],
                             ids=["steane", "surface2x3", "hgp_r3_r3"])
    @pytest.mark.parametrize("basis", ["X", "Z"])
    def test_single_qubits_and_fault_generators(self, build, basis):
        q = build()
        lists = [logical_signatures(q, basis)]
        for seed in range(3):
            gens = enumerate_faults(q, baseline_schedule(q, seed), basis)
            lists.append(logical_signatures(q, basis, [g.residual for g in gens]))
        for packed, k in lists:
            assert Signatures.of(packed, k) == reference_signatures(packed, k)
        assert any(len(Signatures.of(*sigs).first) < len(sigs[0]) for sigs in lists)  # something is dropped


class TestDeduplication:
    def test_zero_and_repeated_signatures_are_skipped(self):
        # pairing bit 0, syndrome above it; the lex-first minimum set of the
        # full list uses first occurrences only
        a, b, c = 0b0110, 0b1100, 0b1011
        sigs = [0, a, a, 0, b, a, b, c, 0, c]
        for max_t in range(1, 5):
            found = min_logical_search(Signatures.of(sigs, 1), max_t)
            assert (found.distance, found.witness) == reference_min_logical(sigs, 1, max_t)
        assert min_logical_search(Signatures.of(sigs, 1), 3).witness == (1, 4, 7)
        assert min_logical_search(Signatures.of([0, 0, 0b01], 1), 1).witness == (2,)
        assert min_logical_search(Signatures.of([0, 0b10, 0b10], 1), 4).distance == INF

    def test_cap_counts_distinct_signatures(self):
        q = steane_code()
        gens = enumerate_faults(q, baseline_schedule(q, 0), "X")
        doubled = gens + gens
        sigs, k = logical_signatures(q, "X", [g.residual for g in doubled])
        distinct = len(set(sigs) - {0})
        assert distinct <= len(gens)
        found = min_logical_search(Signatures.of(sigs, k), 4, table_cap=distinct - 1)
        assert (found.distance, found.level, found.stop) == (None, 2, ("table", distinct))
        with pytest.raises(CapExceeded, match=f"t=2 needs {distinct} entries"):
            effective_distance(q, baseline_schedule(q, 0), "X", 4, generators=doubled, table_cap=distinct - 1)


class TestBudget:
    def test_logical_space_over_the_walk_cap_raises(self):
        # r2r2h7 level 1 X (n=41, dim 18, d=6) at the least table cap whose
        # walk cap does not hold its 2^18 vectors, one entry short of 2,622: the
        # kernel walks its connected level 5, stops at 6 (C(41, 3) = 10,660
        # table entries) and raises
        message = ("no logical below weight 6, where the search stopped; the 2^18 vectors of the "
                   "logical space exceed the walk cap 262100 (100 x table_cap)")
        with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
            css_search(grid_code("r2r2h7", 1), "X", table_cap=2621)

    def test_walk_side_is_a_hundred_table_caps(self):
        # 101 independent syndromes: level 1 walks 101 > 100 x 1 subsets
        sigs = [(1 << (i + 1)) for i in range(101)]
        found = min_logical_search(Signatures.of(sigs, 1), 3, table_cap=1)
        assert (found.distance, found.level, found.stop) == (None, 1, ("walk", 101))
        assert min_logical_search(Signatures.of(sigs[:100], 1), 1, table_cap=1).distance == INF


class TestEffectiveDistanceCaps:
    def test_probe_side_stops_first_with_many_generators(self):
        # thickened Steane Z has 198 distinct generators: with table_cap 1
        # level 1 already probes 198 > 100 x 1 subsets, one level before its
        # table side (198 entries at level 2) would stop it
        q, m = carried_thickening(steane_code())
        with pytest.raises(CapExceeded, match=r"^meet-in-the-middle probes for t=1 need 198 subsets"):
            effective_distance(q, m, "Z", 5, table_cap=1)


def lex_only(mp):
    """Force the lex walk at every level: no level is connected, so no table
    is ever short and nothing is anchored."""
    mp.setattr(codes, "_connected_pays", lambda n, r: False)


def odd_connected(mp):
    """Force the connected walk on odd subset sizes of 3 or more only, so
    that lex levels also meet tables one size short."""
    mp.setattr(codes, "_connected_pays", lambda n, r: r >= 3 and r % 2 == 1)


def count_anchored(mp):
    """Count the anchored probes, and those that ran over their budget, so
    that the level was searched again against the full table."""
    seen = {"calls": 0, "switched": 0}
    real = codes._anchored_probe

    def spy(*args):
        out = real(*args)
        seen["calls"] += 1
        seen["switched"] += out[0] is None and out[2] > args[5]
        return out

    mp.setattr(codes, "_anchored_probe", spy)
    return seen


def seeded_signatures(rng):
    """8-14 signatures over 5-9 syndrome bits, a fifth of them pairing with
    the logicals and a tenth repeating a pooled syndrome, so that minimum
    sets of 4-7 are common."""
    k = rng.randint(1, 2)
    width = rng.randint(5, 9)
    pool = [rng.randrange(1 << width) << k for _ in range(3)]
    sigs = []
    for _ in range(rng.randint(8, 14)):
        s = rng.choice(pool) if rng.random() < 0.1 else rng.randrange(1 << width) << k
        if rng.random() < 0.2:
            s |= rng.randrange(1, 1 << k)
        sigs.append(s)
    return sigs, k


@st.composite
def wide_signature_lists(draw):
    """Up to 14 signatures over up to 8 syndrome bits, drawn from a small pool
    as often as not, so that zero and repeated signatures and syndromes with
    several pairings (MULTI buckets) are common."""
    k = draw(st.integers(1, 3))
    width = draw(st.integers(2, 8)) + k
    pool = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=6))
    item = st.one_of(st.sampled_from(pool), st.integers(0, (1 << width) - 1))
    return draw(st.lists(item, min_size=1, max_size=14)), k


class TestAnchoredRoute:
    @pytest.mark.parametrize("force", [connected_only, odd_connected, lex_only])
    def test_matches_reference_on_seeded_signatures(self, force):
        rng = random.Random(41)
        with pytest.MonkeyPatch.context() as mp:
            force(mp)
            seen = count_anchored(mp)
            for _ in range(300):
                sigs, k = seeded_signatures(rng)
                found = min_logical_search(Signatures.of(sigs, k), 9)
                assert (found.distance, found.witness) == reference_min_logical(sigs, k, 9), sigs
                assert min_logical_search(Signatures.of(sigs, k), 9, witness=False).distance == found.distance
        if force is not lex_only:
            # both ends of the budget: levels finished by the anchor alone, and
            # levels whose walk ran over and that bought the full table
            assert seen["calls"] > seen["switched"] > 0
        else:
            assert seen["calls"] == 0

    @pytest.mark.parametrize("force", [connected_only, odd_connected, lex_only])
    @settings(max_examples=200, deadline=None)
    @given(case=wide_signature_lists(), max_t=st.integers(1, 7))
    def test_matches_reference_on_random_signatures(self, force, case, max_t):
        sigs, k = case
        with pytest.MonkeyPatch.context() as mp:
            force(mp)
            found = min_logical_search(Signatures.of(sigs, k), max_t)
            assert (found.distance, found.witness) == reference_min_logical(sigs, k, max_t)
            assert min_logical_search(Signatures.of(sigs, k), max_t, witness=False).distance == found.distance

    def test_anchor_hits_the_same_subsets_as_the_full_table(self):
        # on every level up to the first that hits, each subset hits through
        # the anchor against the table one size short iff it hits the full table
        rng = random.Random(43)
        levels = 0
        for _ in range(60):
            sigs, k = seeded_signatures(rng)
            distance = reference_min_logical(sigs, k, 7)[0]
            uniq = list(dict.fromkeys(s for s in sigs if s))
            syn, pair = [s >> k for s in uniq], [s & ((1 << k) - 1) for s in uniq]
            _, anchors = codes._adjacency(syn, pair)
            for t in range(2, min(distance, 7) + 1):
                small, big = t // 2, t - t // 2
                full = codes._fill(syn, pair, small)
                short = codes._fill(syn, pair, small - 1) if small > 1 else {0: 0}
                for prefix, cands, ps, pp in codes._lex_walk(syn, pair, big):
                    for i in cands:
                        one = [(prefix, [i], ps, pp)]
                        direct = codes._probe(syn, pair, full, iter(one), False)[0]
                        assert codes._anchored_probe(syn, pair, short, anchors, iter(one), INF)[0] == direct
                levels += 1
        assert levels > 100

    def test_connected_level_builds_no_table(self):
        # hgp(rep2, H7, H7) level 2, Z: n = 137, d = 6.  Level 5 is connected,
        # so level 6 meets the size-2 table through the anchor instead of a
        # table of all C(137, 3) = 419,220 3-subsets
        found = css_search(grid_code("r2h7h7", 2), "Z")
        assert (found.distance, found.route, found.level) == (6, "mitm", 6)
        assert found.table_entries == comb(137, 1) + comb(137, 2) < comb(137, 3)

    def test_witness_pass_fills_no_table(self):
        # thickened surface Z hits at level 6 after the connected level 5: the
        # lex walk that picks the witness probes through the anchor against
        # the size-2 table the level holds, and fills no size-3 table
        q, m = carried_thickening(surface_code_2x3())
        sigs, k = logical_signatures(q, "Z", [g.residual for g in enumerate_faults(q, m, "Z")])
        n = len(set(sigs) - {0})
        found = min_logical_search(Signatures.of(sigs, k), 6)
        assert (found.distance, found.witness) == (6, (8, 10, 12, 14, 16, 18))
        assert found.table_entries == comb(n, 1) + comb(n, 2)

    def test_capped_question_stops_where_it_did(self):
        # hgp(rep3, rep3, H7) level 1, X with a 100k-entry table: n = 109,
        # dim 46, so no enumeration; level 6 needs C(109, 3) = 209,934 entries
        q = grid_code("r3r3h7", 1)
        message = ("no logical below weight 6, where the search stopped; the 2^46 vectors of the "
                   "logical space exceed the walk cap 10000000 (100 x table_cap)")
        with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
            css_search(q, "X", table_cap=100_000)
        sigs, k = logical_signatures(q, "X", [1 << j for j in range(q.n)])
        found = min_logical_search(Signatures.of(sigs, k), q.n, 100_000, witness=False)
        assert (found.distance, found.route, found.level, found.stop) == (None, "mitm", 6, ("table", comb(109, 3)))

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_anchor_takes_the_bit_with_the_fewest_holders(self, seed):
        # each walked subset with syndrome x != 0 is looked up through the
        # holders of a set bit of x that no set bit of x undercuts, the
        # lowest such bit on a tie
        rng = random.Random(seed)
        width = rng.randint(5, 9)
        syn = [sum(1 << b for b in rng.sample(range(width), rng.randint(1, 3))) for _ in range(12)]
        pair = [rng.randrange(4) for _ in syn]
        _, anchors = codes._adjacency(syn, pair)
        fanned = 0
        for r in range(1, 5):
            for prefix, cands, ps, pp in codes._lex_walk(syn, pair, r):
                for i in cands:
                    x, table = ps ^ syn[i], Lookups()
                    codes._anchored_probe(syn, pair, table, anchors, one_subset(prefix, i, ps, pp), INF)
                    used = sorted(key ^ x for key in table.seen)
                    holders = [sorted(h for h in syn if h >> b & 1) for b in range(width) if x >> b & 1]
                    fewest = min(map(len, holders), default=0)
                    assert used == next((h for h in holders if len(h) == fewest), [])
                    fanned += bool(x) and len(used) < len(holders[0])  # rarer than the lowest bit
        assert fanned > 100

    def test_copied_balanced_gauged_rep3_square_stops_where_it_did(self):
        # copy -> balance_x(rep3) -> gauge on hgp(rep3, rep3), X: n = 221, 159
        # distinct signatures with 4-14 holders per syndrome bit.  The kernel
        # still stops at level 8 on its table side; anchored on the lowest
        # syndrome bit it made 1,137,690 lookups by then
        q = gauge_code(balance_x(copy_code(hgp(repetition_code(3), repetition_code(3)))[0], repetition_code(3))[0])[0]
        sigs, k = logical_signatures(q, "X", [1 << j for j in range(q.n)])
        found = min_logical_search(Signatures.of(sigs, k), q.n, witness=False)
        assert (q.n, len(set(sigs) - {0})) == (221, 159)
        assert (found.distance, found.level, found.stop) == (None, 8, ("table", comb(159, 4)))
        assert found.probes < 1_137_690

    def test_odd_level_buys_its_table_before_it_walks(self):
        # hgp(rep3, rep3, H7) level 2, Z (d = 9): level 7 finds the size-2
        # table short and level 8 will run, so it buys the size-3 table at
        # its top and walks its connected 3-subsets through the anchor; no
        # anchored walk runs over
        with pytest.MonkeyPatch.context() as mp:
            seen = count_anchored(mp)
            found = kernel_search(grid_code("r3r3h7", 2), "Z")
        assert (found.distance, found.probes, found.table_entries) == (9, 138_090, 161_799)
        assert seen == {"calls": 5, "switched": 0}

    def test_level_that_runs_over_is_searched_again(self):
        # copy -> gauge on Steane, seed-0 schedule, Z up to 6 (72 distinct
        # generators, 72 + C(72, 2) + C(72, 3) table entries): level 6 stops
        # once its anchored walk has made more than C(72, 3) extra lookups.
        # The size-3 table it then buys holds no MULTI bucket and answers the
        # level
        q = steane_code()
        qc, mc, cm, _ = carry("copy", q, baseline_schedule(q, 0))
        qg, mg, _, _ = carry("gauge", qc, mc, cm)
        with pytest.MonkeyPatch.context() as mp:
            seen = count_anchored(mp)
            found = effective_distance(qg, mg, "Z", 6)
        assert (found.distance, found.probes, found.table_entries) == (INF, 83_244, 62_268)
        assert seen == {"calls": 2, "switched": 1}


def count_small_side(mp):
    """Count the odd connected levels that walk their small side through the
    anchor (the only anchored probes with no budget), and those that hit."""
    seen = {"levels": 0, "hits": 0}
    real = codes._anchored_probe

    def spy(*args):
        out = real(*args)
        if args[5] == INF:
            seen["levels"] += 1
            seen["hits"] += out[0] is not None
        return out

    mp.setattr(codes, "_anchored_probe", spy)
    return seen


def one_subset(prefix, i, ps, pp):
    """A walk of the single subset prefix + (i,)."""
    return iter([(prefix, [i], ps, pp)])


class Lookups(dict):
    """An empty table that records the syndromes looked up in it."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def get(self, key, default=None):
        self.seen.append(key)
        return default


def planted_cycle(rng):
    """A cycle of 5 or 7 signatures whose syndromes XOR to zero, one of them
    pairing with the logical, among 3-6 random weight-2 and weight-3
    syndromes, so that minimum sets of 5 and 7 are common."""
    t = rng.choice([5, 7])
    width = t + rng.randint(0, 3)
    sigs = [(1 << j | 1 << (j + 1) % t) << 1 | (j == 0) for j in range(t)]
    for _ in range(rng.randint(3, 6)):
        syn = sum(1 << b for b in rng.sample(range(width), rng.randint(2, 3)))
        sigs.append(syn << 1 | (rng.random() < 0.15))
    rng.shuffle(sigs)
    return sigs, 1


class TestSmallSideRoute:
    @pytest.mark.parametrize("force", [connected_only, odd_connected])
    def test_matches_reference_on_seeded_signatures(self, force):
        rng = random.Random(41)
        with pytest.MonkeyPatch.context() as mp:
            force(mp)
            seen = count_small_side(mp)
            for draw in [seeded_signatures] * 300 + [planted_cycle] * 100:
                sigs, k = draw(rng)
                found = min_logical_search(Signatures.of(sigs, k), 9)
                assert (found.distance, found.witness) == reference_min_logical(sigs, k, 9), sigs
                assert min_logical_search(Signatures.of(sigs, k), 9, witness=False).distance == found.distance
        assert seen["levels"] > seen["hits"] > 0

    @pytest.mark.parametrize("force", [connected_only, odd_connected])
    @settings(max_examples=200, deadline=None)
    @given(case=wide_signature_lists(), max_t=st.integers(5, 9))
    def test_matches_reference_on_random_signatures(self, force, case, max_t):
        sigs, k = case
        with pytest.MonkeyPatch.context() as mp:
            force(mp)
            found = min_logical_search(Signatures.of(sigs, k), max_t)
            assert (found.distance, found.witness) == reference_min_logical(sigs, k, max_t)
            assert min_logical_search(Signatures.of(sigs, k), max_t, witness=False).distance == found.distance

    def test_small_side_hits_where_the_big_side_does(self):
        # on every odd level t = 2s + 1 >= 5 (the odd levels that can be
        # connected) up to the first that hits, a connected s-subset hits
        # through the anchor against the full size-s table iff it lies in a
        # connected (s+1)-subset that hits that table directly
        rng = random.Random(47)
        levels, hits = 0, {2: 0, 3: 0}  # hitting levels by s
        for draw in [seeded_signatures] * 200 + [planted_cycle] * 100:
            sigs, k = draw(rng)
            distance = reference_min_logical(sigs, k, 7)[0]
            uniq = list(dict.fromkeys(s for s in sigs if s))
            syn, pair = [s >> k for s in uniq], [s & ((1 << k) - 1) for s in uniq]
            nbr, anchors = codes._adjacency(syn, pair)
            for s in range(2, 4):
                if 2 * s + 1 > min(distance, 7):
                    break
                full = codes._fill(syn, pair, s)
                big = set()
                for prefix, cands, ps, pp in codes._connected_walk(syn, pair, nbr, s + 1):
                    for i in cands:
                        if codes._probe(syn, pair, full, one_subset(prefix, i, ps, pp), False)[0] is not None:
                            big.add(frozenset(prefix + (i,)))
                for prefix, cands, ps, pp in codes._connected_walk(syn, pair, nbr, s):
                    for i in cands:
                        small = codes._anchored_probe(syn, pair, full, anchors, one_subset(prefix, i, ps, pp), INF)[0]
                        assert (small is not None) == any(set(prefix + (i,)) < b for b in big)
                levels += 1
                hits[s] += bool(big)
        assert levels > 100 and min(hits.values()) > 5

    def test_thickened_steane_level_5_walks_pairs(self):
        # Z at max_d 5 ends inf.  Level 5 walks the 4,141 connected pairs
        # through the anchor against the size-2 table: 38,546 lookups where
        # the connected 3-subsets took 132,763
        q, m = carried_thickening(steane_code())
        sigs, k = logical_signatures(q, "Z", [g.residual for g in enumerate_faults(q, m, "Z")])
        found = min_logical_search(Signatures.of(sigs, k), 5)
        assert (found.distance, found.level) == (INF, 5)
        assert (found.probes, found.table_entries) == (58_247, 19_701) == (
            min_logical_search(Signatures.of(sigs, k), 4).probes + 38_546, comb(198, 1) + comb(198, 2))
        uniq = list(dict.fromkeys(s for s in sigs if s))
        syn, pair = [s >> k for s in uniq], [s & ((1 << k) - 1) for s in uniq]
        nbr, _ = codes._adjacency(syn, pair)
        walks = {r: sum(len(c) for _, c, _, _ in codes._connected_walk(syn, pair, nbr, r)) for r in (2, 3)}
        assert walks == {2: 4_141, 3: 132_763}


def lex_first_split(syn, pair, t):
    """By brute force: the lex-first ceil(t/2)-subset whose syndrome some
    floor(t/2)-subset shares with another pairing, and all such subsets."""
    def xor(sub):
        s = p = 0
        for i in sub:
            s, p = s ^ syn[i], p ^ pair[i]
        return s, p

    table = {}
    for b in combinations(range(len(syn)), t // 2):
        table.setdefault(xor(b)[0], []).append(b)
    for a in combinations(range(len(syn)), t - t // 2):
        s, p = xor(a)
        partners = [b for b in table.get(s, []) if xor(b)[1] != p]
        if partners:
            return a, partners
    return None


def log_kernel_calls(mp):
    """Log, in call order, each probe's hit (or None) and each table fill."""
    log = []
    for name in ("_probe", "_anchored_probe", "_fill"):
        real = getattr(codes, name)

        def spy(*args, real=real, name=name):
            out = real(*args)
            log.append((name, None if name == "_fill" else out[0]))
            return out

        mp.setattr(codes, name, spy)
    return log


def deduplicated(sigs, k):
    """The distinct nonzero signatures in order of first occurrence (the
    kernel's own indices) and their syndromes and pairings."""
    uniq = list(dict.fromkeys(s for s in sigs if s))
    return uniq, [s >> k for s in uniq], [s & ((1 << k) - 1) for s in uniq]


class TestWitnessPass:
    @pytest.mark.parametrize("force", [connected_only, odd_connected])
    def test_lex_first_hitter_starts_at_the_root_of_the_first_hit(self, force):
        # on a connected level that hits, the first hit's least index starts
        # the lex-first hitter, and no table is filled after that hit
        rng = random.Random(53)
        roots = {"big side": 0, "small side": 0}
        with pytest.MonkeyPatch.context() as mp:
            force(mp)
            log = log_kernel_calls(mp)
            for draw in [seeded_signatures] * 300 + [planted_cycle] * 100:
                sigs, k = draw(rng)
                uniq, syn, pair = deduplicated(sigs, k)
                log.clear()
                t = min_logical_search(Signatures.of(uniq, k), 9).distance
                if t == INF or not codes._connected_pays(len(uniq), t - t // 2):
                    continue
                first = next(j for j, (name, hit) in enumerate(log) if name != "_fill" and hit is not None)
                hit = log[first][1]
                assert lex_first_split(syn, pair, t)[0][0] == min(hit)
                assert all(name != "_fill" for name, _ in log[first:])
                roots["small side" if len(hit) < t - t // 2 else "big side"] += 1
        assert min(roots.values()) > 5

    @pytest.mark.parametrize("force", [connected_only, odd_connected])
    def test_partners_lie_above_the_lex_first_hitter(self, force):
        # every partner of the lex-first hitter starts above its last index,
        # and the witness is the hitter plus its lex-first partner
        rng = random.Random(59)
        next_up = 0  # cases whose first partner holds max(hitter) + 1
        with pytest.MonkeyPatch.context() as mp:
            force(mp)
            for draw in [seeded_signatures] * 300 + [planted_cycle] * 100:
                sigs, k = draw(rng)
                uniq, syn, pair = deduplicated(sigs, k)
                found = min_logical_search(Signatures.of(uniq, k), 9)
                if found.distance == INF:
                    continue
                hitter, partners = lex_first_split(syn, pair, found.distance)
                assert all(i > max(hitter) for b in partners for i in b)
                assert found.witness == hitter + min(partners)
                next_up += min(partners)[:1] == (max(hitter) + 1,)
        assert next_up > 5

    @pytest.mark.parametrize("force", [connected_only, odd_connected, lex_only])
    def test_partner_walk_starts_right_above_the_hitter(self, force):
        # the last _probe of a search that finds a witness of weight t >= 2
        # walks the partners against a one-entry table, from max(hitter) + 1 on
        rng = random.Random(61)
        starts, tables = [], []  # per _probe call, the least index of its first walked group; its table
        real = codes._probe

        def spy(syn, pair, table, walk, grow):
            def watched():
                for prefix, cands, ps, pp in walk:
                    if starts[at] is None:
                        starts[at] = prefix[0] if prefix else cands[0]
                    yield prefix, cands, ps, pp

            at = len(starts)
            starts.append(None)
            tables.append(dict(table))
            return real(syn, pair, table, watched(), grow)

        checked = 0
        with pytest.MonkeyPatch.context() as mp:
            force(mp)
            mp.setattr(codes, "_probe", spy)
            for draw in [seeded_signatures] * 200 + [planted_cycle] * 50:
                sigs, k = draw(rng)
                uniq, syn, pair = deduplicated(sigs, k)
                starts.clear()
                tables.clear()
                found = min_logical_search(Signatures.of(uniq, k), 9)
                if found.distance == INF or found.distance < 2:
                    continue
                hitter = found.witness[:found.distance - found.distance // 2]  # partners lie above it
                assert starts[-1] == max(hitter) + 1
                assert tables[-1] == {reduce(xor, (syn[i] for i in hitter)): reduce(xor, (pair[i] for i in hitter))}
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("basis", ["X", "Z"])
    def test_product_of_repetition_codes_keeps_its_distance(self, basis):
        # the paper's corollary: hgp(rep5, rep5) (n = 41, d = 5), a product
        # of 1-complexes, keeps d under single-ancilla schedules.  With no
        # route forced, level 5 is connected and hits on its small side, and
        # the witness pass picks the lex-first witness (under 1 ms a search)
        q = hgp(repetition_code(5), repetition_code(5))
        assert css_search(q, basis).distance == 5
        for seed in range(3):
            m = baseline_schedule(q, seed)
            with pytest.MonkeyPatch.context() as mp:
                seen = count_small_side(mp)
                found = effective_distance(q, m, basis, 5)
            assert (found.distance, found.level, seen) == (5, 5, {"levels": 1, "hits": 1})
            assert witness_is_valid(q, basis, found)
            with pytest.MonkeyPatch.context() as mp:
                lex_only(mp)
                assert effective_distance(q, m, basis, 5).witness == found.witness


def even_levels_read_the_table(sigs, k, max_t):
    """On each even level t = 2s <= max_t that no lighter logical precedes,
    check that walking every s-subset, or every connected one for s >= 2,
    against the full size-s table hits iff the table holds MULTI, iff the
    least logical weighs 2s.  Returns the levels checked and those that hit."""
    distance = reference_min_logical(sigs, k, max_t)[0]
    _, syn, pair = deduplicated(sigs, k)
    nbr, _ = codes._adjacency(syn, pair)
    levels = hits = 0
    for s in range(1, max_t // 2 + 1):
        if distance < 2 * s:
            break
        table = codes._fill(syn, pair, s)
        multi = codes.MULTI in table.values()
        walks = [codes._lex_walk(syn, pair, s)]
        if s > 1:
            walks.append(codes._connected_walk(syn, pair, nbr, s))
        for walk in walks:
            assert (codes._probe(syn, pair, table, walk, False)[0] is not None) == multi == (distance == 2 * s)
        levels, hits = levels + 1, hits + multi
    return levels, hits


class TestEvenLevel:
    def test_multi_bucket_decides_the_level(self):
        rng = random.Random(71)
        levels = hits = 0
        for draw in [seeded_signatures] * 200 + [planted_cycle] * 100:
            sigs, k = draw(rng)
            more, hit = even_levels_read_the_table(sigs, k, 8)
            levels, hits = levels + more, hits + hit
        assert levels > 400 and hits > 50

    @settings(max_examples=300, deadline=None)
    @given(case=wide_signature_lists(), max_t=st.integers(2, 8))
    def test_multi_bucket_decides_the_level_on_random_signatures(self, case, max_t):
        even_levels_read_the_table(*case, max_t)

    @pytest.mark.parametrize("force", [lex_only, connected_only, odd_connected])
    def test_levels_answered_by_the_table(self, force):
        # an even level t that starts with the full table and does not hit
        # makes no lookups: the search up to t probes as much as the search up
        # to t - 1.  Connected levels leave the table one size short, so under
        # connected_only every even level from 6 on is probed through the anchor
        rng = random.Random(73)
        answered, even_hits = dict.fromkeys(range(2, 10, 2), 0), 0
        with pytest.MonkeyPatch.context() as mp:
            force(mp)
            for draw in [seeded_signatures] * 200 + [planted_cycle] * 100:
                sigs, k = draw(rng)
                n = len(set(sigs) - {0})
                record = Signatures.of(sigs, k)
                for t in range(2, min(n, 9) + 1, 2):
                    below, found = min_logical_search(record, t - 1), min_logical_search(record, t)
                    if below.distance != INF:
                        break
                    assert (found.distance, found.witness) == reference_min_logical(sigs, k, t), sigs
                    answered[t] += found.distance == INF and found.probes == below.probes
                    even_hits += found.distance == t
        late = answered[6] + answered[8]
        assert even_hits > 50 and sum(answered.values()) > 50
        assert late == 0 if force is connected_only else late > 25


class TestLevelBound:
    @pytest.mark.parametrize("force", [connected_only, odd_connected, lex_only])
    def test_no_level_above_the_distinct_signatures(self, force):
        # three distinct signatures whose syndromes and pairings all XOR to
        # zero: no logical, and no set of four distinct signatures to search
        sigs = [0b10, 0b110, 0b100, 0, 0b110]
        with pytest.MonkeyPatch.context() as mp:
            force(mp)
            up_to_n = min_logical_search(Signatures.of(sigs, 1), 3)
            for max_t in (4, 10 ** 6):
                found = min_logical_search(Signatures.of(sigs, 1), max_t)
                assert found == up_to_n._replace(level=max_t)
                assert found[:4] == (INF, None, "mitm", max_t)

    def test_no_signatures(self):
        found = min_logical_search(Signatures.of([0, 0], 1), 10 ** 6)
        assert found == codes.Search(INF, None, "mitm", level=10 ** 6, probes=0, table_entries=0, stop=None)
