"""Classical codes, CSS codes, chain complexes, and exact distances.

Distances are exact at desk scale, and every exponential search works within
one budget set by table_cap: it holds at most table_cap items and walks or
enumerates at most W = MITM_PROBE_FACTOR * table_cap.  One
meet-in-the-middle kernel serves the code and effective distances and stops
at the level where either limit would be exceeded; Search, the record that
every exact search returns, names both.  When the 2^dim vectors of the
logical space fit in W, css_search enumerates that space instead, above ten
rows by Brouwer-Zimmermann over disjoint information sets, which stops once
its lower bound meets the best logical found; otherwise it runs the kernel,
and a stopped kernel raises CapExceeded.  classical_distance enumerates its
2^k codewords under the same test.  The kernel searches one item per
distinct nonzero signature (Signatures) and, on wide levels, probes only
subsets connected through shared syndrome bits.  Such a level builds no
table for the next ones: they meet a table one size short through an
anchor, the rarest set bit of the probe's syndrome, whose holders supply the
missing item.  A level buys the full table at its top only, when it is odd
and the next level will run or once the anchor's extra lookups have cost as
much; a walk that runs over that cost is cut short and its level searched
again.  An odd connected level that holds the full table walks its smaller
half through the same anchor; an even one is answered by it, walked only
when it hits.  Infinite distance is the float ``inf`` sentinel so that
``min()`` treats it as absorbing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import islice
from math import comb
from operator import or_
from typing import Iterator, NamedTuple

from .f2la import (
    BinMatrix,
    Pivots,
    add_pivot,
    bit_indices,
    echelon,
    kernel_basis,
    kernel_vectors,
    mat_mul,
    mat_vec,
    rank,
    reduce_vector,
    transpose,
    vstack,
)

INF = math.inf

MITM_TABLE_CAP = 4_000_000
MITM_PROBE_FACTOR = 100  # a search walks or enumerates at most this many times its table cap
BZ_SEED = 0  # seeds the column order of the Brouwer-Zimmermann information sets


class CapExceeded(RuntimeError):
    """An exact search would exceed its table or walk budget."""


@dataclass(frozen=True)
class ClassicalCode:
    """Linear code given by a parity check matrix (checks x bits)."""

    h: BinMatrix

    @property
    def n(self) -> int:
        return self.h.ncols

    @property
    def k(self) -> int:
        return self.n - rank(self.h)

    @property
    def full_row_rank(self) -> bool:
        return rank(self.h) == self.h.nrows


def repetition_code(length: int) -> ClassicalCode:
    """[length, 1, length] repetition code; row j checks bits j, j+1."""
    if length < 1:
        raise ValueError("repetition code length must be >= 1")
    h = BinMatrix.from_support([(j, j + 1) for j in range(length - 1)], length)
    return ClassicalCode(h)


def hamming_7_4() -> ClassicalCode:
    """[7,4,3] Hamming code; column j+1 is the binary expansion of j+1."""
    rows = [[(c >> b) & 1 for c in range(1, 8)] for b in range(3)]
    return ClassicalCode(BinMatrix.from_rows(rows, 7))


def classical_distance(code: ClassicalCode) -> int | float:
    """Minimum weight of a nonzero codeword; inf when the code is zero.
    The 2^k codewords are enumerated only when they fit in the walk budget
    MITM_PROBE_FACTOR * MITM_TABLE_CAP."""
    basis = kernel_basis(code.h)
    k = basis.nrows
    walk_cap = MITM_PROBE_FACTOR * MITM_TABLE_CAP
    if 1 << k > walk_cap:
        raise CapExceeded(f"the 2^{k} codewords exceed the walk cap {walk_cap}")
    return exhaustive_min_weight(basis.rows, [])  # every nonzero codeword counts


class CssCode:
    """CSS code (h_x, h_z) with h_x . h_z^T = 0, checked at construction."""

    def __init__(self, h_x: BinMatrix, h_z: BinMatrix):
        if h_x.ncols != h_z.ncols:
            raise ValueError(f"qubit count mismatch: h_x has {h_x.ncols} columns, h_z has {h_z.ncols}")
        # the first nonzero row and its lowest bit: the lex-first anticommuting pair
        for i, r in enumerate(mat_mul(h_x, transpose(h_z)).rows):
            if r:
                raise ValueError(f"stabilizers anticommute: X row {i} vs Z row {(r & -r).bit_length() - 1}")
        self.h_x, self.h_z = h_x, h_z

    @classmethod
    def _implied(cls, h_x: BinMatrix, h_z: BinMatrix, x_pivots=None, z_pivots=None) -> "CssCode":
        """A code whose commutation a checked code implies, built with no product; it shares that code's echelons."""
        code = cls.__new__(cls)
        code.h_x, code.h_z = h_x, h_z
        vars(code).update((k, p) for k, p in (("x_pivots", x_pivots), ("z_pivots", z_pivots)) if p is not None)
        return code

    @property
    def n(self) -> int:
        return self.h_x.ncols

    @property
    def n_x(self) -> int:
        return self.h_x.nrows

    @property
    def n_z(self) -> int:
        return self.h_z.nrows

    @property
    def rank_x(self) -> int:
        return len(self.x_pivots.rows)

    @property
    def rank_z(self) -> int:
        return len(self.z_pivots.rows)

    @property
    def k(self) -> int:
        return self.n - self.rank_x - self.rank_z

    @property
    def w_x(self) -> int:
        return self.h_x.max_row_weight()

    @property
    def w_z(self) -> int:
        return self.h_z.max_row_weight()

    @property
    def q_x(self) -> int:
        return self.h_x.max_col_weight()

    @property
    def q_z(self) -> int:
        return self.h_z.max_col_weight()

    def h(self, basis: str) -> BinMatrix:
        """Stabilizer matrix of the given basis ('X' or 'Z')."""
        return self.h_z if opposite(basis) == "X" else self.h_x

    @cached_property
    def x_pivots(self) -> Pivots:
        return echelon(self.h_x.rows)

    @cached_property
    def z_pivots(self) -> Pivots:
        return echelon(self.h_z.rows)

    def stab_pivots(self, basis: str) -> Pivots:
        return self.z_pivots if opposite(basis) == "X" else self.x_pivots

    def is_logical(self, v: int, basis: str) -> bool:
        """True iff v is a nontrivial logical operator of the given basis."""
        if mat_vec(self.h(opposite(basis)), v) != 0:
            return False
        return reduce_vector(v, self.stab_pivots(basis)) != 0

    def transposed(self) -> "CssCode":
        """Same code with the X and Z roles and cached pivots swapped; h_z . h_x^T = 0 is the check's transpose."""
        return CssCode._implied(self.h_z, self.h_x, vars(self).get("z_pivots"), vars(self).get("x_pivots"))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CssCode) and self.h_x == other.h_x and self.h_z == other.h_z

    def __repr__(self) -> str:
        return f"CssCode(n={self.n}, k={self.k}, n_x={self.n_x}, n_z={self.n_z})"


@dataclass(frozen=True)
class ChainComplex:
    """Boundary maps [d_L, ..., d_1], at least one; d_i maps level i (cols)
    to i-1 (rows).  dims[i] is the dimension of level i."""

    boundaries: tuple[BinMatrix, ...]
    dims: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not self.boundaries:
            raise ValueError("a chain complex needs at least one boundary map")
        dims = [self.boundaries[0].ncols]
        for b in self.boundaries:
            dims.append(b.nrows)
        for hi, lo in zip(self.boundaries, self.boundaries[1:]):
            if lo.ncols != hi.nrows:
                raise ValueError(f"adjacent dimension mismatch: {lo.shape} after {hi.shape}")
            if not mat_mul(lo, hi).is_zero():
                raise ValueError("boundary composition is nonzero")
        object.__setattr__(self, "dims", tuple(reversed(dims)))

    @property
    def length(self) -> int:
        return len(self.boundaries)

    def dim(self, level: int) -> int:
        return self.dims[level]

    def boundary(self, i: int) -> BinMatrix:
        """The map out of level i (1-based), as a matrix of shape dim(i-1) x dim(i)."""
        if not 1 <= i <= self.length:
            raise ValueError(f"no boundary map at level {i}")
        return self.boundaries[self.length - i]


def css_to_complex(q: CssCode) -> ChainComplex:
    """Three-term complex with d_2 = h_z^T and d_1 = h_x, past ChainComplex's check: CssCode found h_x . h_z^T = 0."""
    c = object.__new__(ChainComplex)
    vars(c).update(boundaries=(transpose(q.h_z), q.h_x), dims=(q.n_x, q.n, q.n_z))
    return c


def opposite(basis: str) -> str:
    """The other CSS basis.  CssCode.h, stab_pivots and every path that flips
    a basis check it here, so a basis other than 'X' or 'Z' raises ValueError."""
    if basis not in ("X", "Z"):
        raise ValueError(f"basis must be 'X' or 'Z', got {basis!r}")
    return "Z" if basis == "X" else "X"


def logical_basis(q: CssCode, basis: str) -> BinMatrix:
    """k rows spanning the logical classes of the given basis.

    Representatives are the first k kernel vectors of the opposite checks
    outside rs(same H), read off the opposite echelon that k already needs
    one free column at a time (f2la.kernel_vectors): only pivot rows whose
    pivot lies below free column j count, since no row has a bit below its
    pivot.  They are used as they come, not weight-reduced: every caller
    reads only their classes (signatures, and the span that css_search
    enumerates), which stabilizers leave unchanged.
    """
    pivots = q.stab_pivots(basis).copy()
    ker = kernel_vectors(q.stab_pivots(opposite(basis)), q.n)
    # once k representatives are in, the pivots span the kernel: no later vector adds one
    return BinMatrix(list(islice((v for v in ker if add_pivot(pivots, v)), q.k)), q.n)


def logical_signatures(q: CssCode, basis: str, vectors=None) -> tuple[list[int], int]:
    """Per-vector signatures (syndrome << k | pairing) against the opposite
    check matrix and logical basis: an XOR of vectors is a nontrivial logical
    iff its syndrome is zero and its pairing is not.  A signature is the
    XOR of the packed signature columns over the vector's bits; with no
    vectors, the n columns themselves (the single qubits')."""
    opp_basis = opposite(basis)
    pair_rows = logical_basis(q, opp_basis)
    cols = transpose(vstack(pair_rows, q.h(opp_basis)))
    return list(cols.rows if vectors is None else mat_mul(BinMatrix(vectors, q.n), cols).rows), pair_rows.nrows


class Signatures(NamedTuple):
    """The distinct nonzero signatures in order of first occurrence, split
    into syndrome and pairing; first[i] indexes signature i's first
    occurrence among the input vectors.  min_logical_search searches only
    these: a minimum set holds no zero signature (drop it) and no equal pair
    (the two cancel), and swapping a later duplicate for its first
    occurrence keeps it hitting and makes it lex-smaller."""
    syn: list[int]
    pair: list[int]
    first: list[int]

    @classmethod
    def of(cls, packed: list[int], k: int) -> Signatures:
        """From logical_signatures' (syndrome << k | pairing) list; the one place zeros and repeats are dropped."""
        first: dict[int, int] = {}
        for i, s in enumerate(packed):
            first.setdefault(s, i)
        first.pop(0, None)
        return cls([s >> k for s in first], [s & ((1 << k) - 1) for s in first], list(first.values()))


def css_distance(q: CssCode, basis: str, table_cap: int = MITM_TABLE_CAP) -> int | float:
    """Exact minimum weight of a nontrivial logical operator, or inf."""
    return css_search(q, basis, table_cap).distance


def css_search(q: CssCode, basis: str, table_cap: int = MITM_TABLE_CAP) -> Search:
    """css_distance with the route that answered it: when the 2^dim vectors
    of the logical space (dim = k + rank(same-basis checks)) fit in W =
    MITM_PROBE_FACTOR * table_cap, an enumeration of that space
    (exhaustive_min_weight), else the kernel over single-qubit supports,
    whose stop raises CapExceeded naming 2^dim, W and its level."""
    stabs = q.stab_pivots(basis).rows.values()  # the enumeration does not depend on row order
    if q.k == 0:
        return Search(INF, None, "exhaustive")
    dim = q.k + len(stabs)
    walk_cap = MITM_PROBE_FACTOR * table_cap
    if 1 << dim <= walk_cap:
        distance = exhaustive_min_weight(logical_basis(q, basis).rows, stabs)
        return Search(distance, None, "exhaustive", distance)
    found = min_logical_search(Signatures.of(*logical_signatures(q, basis)), q.n, table_cap, witness=False)
    if found.distance is None:
        raise CapExceeded(
            f"no logical below weight {found.level}, where the search stopped; the 2^{dim} vectors of the "
            f"logical space exceed the walk cap {walk_cap} ({MITM_PROBE_FACTOR} x table_cap)"
        )
    return found


# -- the exact search kernel ---------------------------------------------

MULTI = -1  # table value once two different pairings share one syndrome
LOW_STAB_ROWS = 10  # up to this many rows the exhaustive route is one XOR-table pass


class Search(NamedTuple):
    """The result of every exact search: the kernel's, css_search's, and
    faultdist's.  distance is None when the kernel stopped at level `level`;
    stop then holds that level's count on the side that stopped it: ("table",
    entries) or ("walk", subsets).  An inf distance was searched up to `level`.
    witness holds one minimum set: sorted indices of input vectors, or fault
    generators from faultdist.  probes counts table lookups, the witness pass's
    included: one per subset probed against a full table, one per holder of the
    anchor bit when a subset is probed through the anchor (against a table one
    size short, or as the small side of an odd connected level); none on an
    even level its table answers; both walks of a level searched twice.  The
    partner walk that completes the witness is not counted.  table_entries
    counts the subsets put into tables.  route is "mitm" from the kernel,
    "oracle" from faultdist's brute force, "exhaustive" when css_search
    enumerated the logical space (exhaustive_min_weight): level is then the
    distance, and no work is counted.  (A NamedTuple: small searches build one
    per call, and it builds faster than a frozen dataclass.)"""
    distance: int | float | None
    witness: tuple | None
    route: str
    level: int = 0
    probes: int = 0
    table_entries: int = 0
    stop: tuple[str, int] | None = None

    @property
    def exact_up_to(self) -> int:
        """level: no logical weighs less (none up to it, for an inf distance)."""
        return self.level


def min_logical_search(sigs: Signatures, max_t: int, table_cap: int = MITM_TABLE_CAP, witness: bool = True) -> Search:
    """Fewest of the signatures sigs (see Signatures) whose XOR is a logical.

    Levels stop at n, the number of signatures: beyond it the answer is inf
    at level max_t, as if every level had been searched.  Level t walks
    ceil(t/2)-subsets with running prefix XORs and looks each one up in a
    table of floor(t/2)-subsets, which maps each syndrome to its pairing, or
    to MULTI once two pairings share it; a subset hits when the table holds
    its syndrome with another pairing.  The size-s table serves t = 2s and
    2s+1.  Where all ceil(t/2)-subsets outnumber n^2 pairs, so that connected
    levels start at ceil(t/2) = 3, only the connected ones are probed:
    calling two signatures adjacent when their syndromes share a bit, a
    minimum set is connected (parts with disjoint syndrome bits would each
    have zero syndrome, so one is a smaller logical), hence holds a connected
    ceil(t/2)-subset whose complement is in the table.  Otherwise the lex
    walk probes every subset and fills the size-(s+1) table on the way.

    An even level t = 2s that starts with the full size-s table hits iff
    the table holds MULTI, and is walked (for the witness) only then, its
    comb(n, s) subsets still charged to the walk budget.  A walked A is in
    the table under syn(A), so it hits only a MULTI bucket, whose two
    s-subsets XOR to a logical of weight <= 2s, so exactly 2s as no lower
    level hit: disjoint, they make a minimum set S, which holds a walked
    s-subset (connected on a connected level) whose complement shares its bucket.

    A connected level fills no table, so a later level can find the table
    one size short.  It then probes each walked subset A through an anchor:
    for each signature b holding sigma, the set bit of syn(A) with the
    fewest holders (any set bit would do; ties go to the lowest), it looks
    up syn(A) ^ syn(b) with pairing pair(A) ^ pair(b).  The same
    subsets hit as against the full table, because every level below t was
    searched with no hit: a hitting A has syn(A) != 0, any floor(t/2)-set
    matching it holds a holder of sigma, and an anchored match that
    overlaps A or repeats b XORs to a logical shorter than t.  A short table
    is bought full only at the top of a level: when t is odd and level t + 1
    will run, so that no level meets a table two sizes short, or when the
    rent, the anchor's extra lookups on the levels that share the short
    table, exceeds comb(n, floor(t/2)), the full table's cost.  An anchored
    walk stops once the rent would exceed it, and its level is searched
    again from the start against the table it then buys, with no budget.

    An odd connected level t = 2s + 1 that has the full size-s table walks
    the connected s-subsets instead, each through the anchor against that
    same table.  It hits on the same levels: a minimum t-set S is connected,
    so it holds a connected s-subset A (drop leaves of a spanning tree);
    syn(A) != 0, so some b in S - A holds sigma, and S - A - {b} is in the
    table; a match that overlaps A or repeats b XORs to a shorter logical.
    A lookup (A, b) with b not in A is the lookup of the connected
    (s+1)-set A + {b}, which at most s + 1 choices of A give, so these are
    at most s + 1 times the lookups of the (s+1)-walk; the holders inside A
    (at most s) never hit.  Thickened Steane Z level 5 takes 38,546 lookups
    over 4,141 pairs where the connected 3-subsets took 132,763.

    The witness is the lex-first hitting ceil(t/2)-subset A* plus its
    lex-first partner, which _probe finds by walking the floor(t/2)-subsets
    above max(A*) against the one-entry table {syn(A*): pair(A*)} (lookups
    not counted in probes).  A lex level meets A* first.  After a connected
    hit, a witness pass walks in lex order only the ceil(t/2)-subsets whose
    least index is v, the least index of that hit, against the table the
    level holds (through the anchor if it is one size short).  It fills no
    table.  Both shortcuts keep the witness:
    - Partners lie above A*.  For a partner B, A* + B is a minimum set
      whose first ceil(t/2) indices hit and come no later than A* in lex
      order, so they are A*: every index of B exceeds max(A*).
    - A* starts with v.  The connected walk takes its roots in ascending
      order.  At root min(S) of a minimum set S it meets a connected subset
      of S that holds min(S), and that subset hits (an s-subset on a halved
      odd level); a hit at root u makes a minimum set whose least index is
      at most u.  So v is the least min(S) over all minimum sets.  A* is
      the first ceil(t/2) indices of a minimum set (above), so it starts no
      lower than v, and the first ceil(t/2) indices of a minimum set with
      least index v hit, so it starts no higher.

    The search holds at most table_cap entries and walks at most W =
    MITM_PROBE_FACTOR * table_cap subsets per level: a level is capped when
    its table side exceeds table_cap ("table"), or its walk side exceeds W
    ("walk"), counting distinct signatures only.  It stops with distance
    None; no logical weighs less than that level.
    """
    syn, pair, first = sigs
    n = len(syn)

    def capped(t: int) -> bool:
        return comb(n, t // 2) > table_cap or comb(n, t - t // 2) > MITM_PROBE_FACTOR * table_cap

    table, size, rent = {0: 0}, 0, 0  # every size-subset; extra lookups anchored on it so far
    nbr = anchors = None  # built at the first level that walks connected subsets or anchors
    probes = entries = 0
    top = min(max_t, n)  # a minimum set holds each distinct signature at most once
    for t in range(1, top + 1):
        small, big = t // 2, t - t // 2
        if capped(t):
            stop = ("table", comb(n, small)) if comb(n, small) > table_cap else ("walk", comb(n, big))
            return Search(None, None, "mitm", t, probes, entries, stop)
        nxt = big > small and t < top and not capped(t + 1)  # level t + 1 needs size big
        connected = _connected_pays(n, big)
        if nbr is None and connected:  # a table one size short only ever follows a connected level
            nbr, anchors = _adjacency(syn, pair)
        grow = nxt and not connected  # with nxt the level holds the full table, and a lex walk fills the next one
        hit, over = None, True
        while over:  # a level that runs over its budget is searched once more, against the table it then buys
            if size < small and (nxt or rent > comb(n, small)):  # the one place a full table is bought
                table, size, rent = _fill(syn, pair, small), small, 0
                entries += comb(n, small)
            if size == small == big and MULTI not in table.values():
                break  # an even level the full table answers: no two s-subsets pair into a logical
            halve = connected and small == size < big  # odd level, full table: walk the small side, anchored
            walk = _connected_walk(syn, pair, nbr, small if halve else big) if connected else _lex_walk(syn, pair, big)
            if size == small and not halve:
                hit, count, grown = _probe(syn, pair, table, walk, grow)
                over = False
            else:
                budget = INF if halve else comb(n, small) - rent
                hit, count, extra = _anchored_probe(syn, pair, table, anchors, walk, budget)
                rent += 0 if halve else extra  # only a table one size short pays rent
                over = hit is None and extra > budget
            probes += count
        if hit is not None and witness and connected:  # the lex-first hitter starts at hit's root
            v = min(hit)
            lead = _lex_walk(syn, pair, big - 1, v + 1, (v,), syn[v], pair[v])
            hit, count, _ = (_probe(syn, pair, table, lead, False) if size == small
                             else _anchored_probe(syn, pair, table, anchors, lead, INF))
            probes += count
        if hit is not None:
            found = None
            if witness:
                partner = ()
                if small:
                    xs = xp = 0
                    for i in hit:
                        xs, xp = xs ^ syn[i], xp ^ pair[i]
                    partner = _probe(syn, pair, {xs: xp}, _lex_walk(syn, pair, small, max(hit) + 1), False)[0]
                    if partner is None:
                        raise AssertionError("a table hit has a partner")
                found = tuple(sorted(first[i] for i in hit + partner))
            return Search(t, found, "mitm", t, probes=probes, table_entries=entries)
        if grow:
            table, size, rent = grown, big, 0
            entries += comb(n, big)
    return Search(INF, None, "mitm", max_t, probes=probes, table_entries=entries)


def _connected_pays(n: int, r: int) -> bool:
    """Probe only connected r-subsets of n signatures: worth building the
    neighbour masks once all r-subsets outnumber the n^2 pairs, which takes
    r >= 3."""
    return comb(n, r) > n * n


def _lex_walk(syn, pair, r, lo=0, chosen=(), s=0, p=0):
    """The r-subsets of range(len(syn)) in lex order, grouped by their first
    r - 1 indices: (prefix, candidate last indices, prefix syn XOR, prefix
    pair XOR)."""
    if r == 1:
        yield chosen, range(lo, len(syn)), s, p
        return
    for i in range(lo, len(syn) - r + 1):
        yield from _lex_walk(syn, pair, r - 1, i + 1, chosen + (i,), s ^ syn[i], p ^ pair[i])


def _connected_walk(syn, pair, nbr, r):
    """The connected r-subsets, each once, grouped as in _lex_walk.

    ESU enumeration (Wernicke 2006): a subset grows from its least index v
    through neighbours above v; each added index w extends the candidates by
    its neighbours not yet in or next to the subset.  r >= 2: a connected
    level walks ceil(t/2) >= 3 indices, or floor(t/2) >= 2 on its small side.
    """
    for v in range(len(syn)):
        above = -2 << v
        yield from _esu(syn, pair, nbr, r - 1, (v,), bit_indices(nbr[v] & above), nbr[v] | 1 << v, above,
                        syn[v], pair[v])


def _esu(syn, pair, nbr, m, chosen, ext, closed, above, s, p):
    """Extend chosen by m more indices: the next comes from the candidate
    list ext, and the candidates after it stay candidates."""
    if m == 1:
        yield chosen, ext, s, p
        return
    for j, w in enumerate(ext):
        yield from _esu(syn, pair, nbr, m - 1, chosen + (w,), ext[j + 1:] + bit_indices(nbr[w] & ~closed & above),
                        closed | nbr[w], above, s ^ syn[w], p ^ pair[w])


def _adjacency(syn, pair):
    """The signature x syndrome-bit incidence, built once: per signature, the
    mask of the other signatures whose syndromes share a bit with it (the
    connected walk's neighbours); and the anchors (low, holders): with the
    syndrome bits relabelled by ascending holder count (ties by bit), low[i]
    is syn[i] relabelled, and holders[1 << r] the (syn, pair) of the holders
    of bit r, by ascending index."""
    held: dict[int, list[int]] = {}
    for i, s in enumerate(syn):
        for b in bit_indices(s):
            held.setdefault(b, []).append(i)
    nbr, low, holders = [0] * len(syn), [0] * len(syn), {}
    for r, (_, idx) in enumerate(sorted(held.items(), key=lambda e: (len(e[1]), e[0]))):
        m = sum(1 << i for i in idx)
        for i in idx:
            nbr[i] |= m
            low[i] |= 1 << r
        holders[1 << r] = [(syn[i], pair[i]) for i in idx]
    return [m & ~(1 << i) for i, m in enumerate(nbr)], (low, holders)


def _probe(syn, pair, table, walk, grow):
    """The first walked subset whose syndrome is in table with another
    pairing, or None; the number of table lookups, one per subset; with
    grow, the walked subsets fill the next table."""
    get = table.get
    grown: dict[int, int] = {}
    put = grown.setdefault
    count = 0
    for prefix, cands, ps, pp in walk:
        count += len(cands)
        for i in cands:
            x = ps ^ syn[i]
            e = get(x)
            if e is not None and e != pp ^ pair[i]:
                return prefix + (i,), count - len(cands) + cands.index(i) + 1, None
            if grow:
                p = pp ^ pair[i]
                if put(x, p) != p:
                    grown[x] = MULTI
    return None, count, grown


def _anchored_probe(syn, pair, table, anchors, walk, budget):
    """_probe against a table one size short: a walked subset with syndrome
    x != 0 and pairing p looks up x ^ s with pairing p ^ q for each (s, q)
    in holders[y & -y], the holders of x's rarest bit (y: the XOR of low
    over the subset; anchors = _adjacency's (low, holders)).  Returns the
    first hitting subset or None; the number of lookups; and the extra
    lookups, beyond the one per walked subset that the full table would
    take.  With no hit it stops once the extra lookups exceed budget
    (checked after each group of the walk), leaving the rest unwalked."""
    get = table.get
    low, holders = anchors
    count = walked = 0
    for prefix, cands, ps, pp in walk:
        walked += len(cands)
        lp = 0
        for j in prefix:
            lp ^= low[j]
        for i in cands:
            y = lp ^ low[i]
            if not y:
                continue
            x, p = ps ^ syn[i], pp ^ pair[i]
            held = holders[y & -y]
            count += len(held)
            for s, q in held:
                e = get(x ^ s)
                if e is not None and e != p ^ q:
                    count += held.index((s, q)) + 1 - len(held)
                    return prefix + (i,), count, count - walked
        if count - walked > budget:
            break
    return None, count, count - walked


def _fill(syn, pair, r):
    """The table of every r-subset (r >= 1): syndrome -> pairing, or MULTI
    once two pairings share the syndrome.  (Probed against an empty table,
    no subset hits.)"""
    return _probe(syn, pair, {}, _lex_walk(syn, pair, r), True)[2]


def exhaustive_min_weight(logicals, stabs) -> int | float:
    """Least weight of a combination of independent rows, logicals plus
    stabs, with at least one logical in it; inf when there are no logicals.

    Up to LOW_STAB_ROWS rows, each logical combination meets a precomputed
    XOR table of the stabilizer span.  Beyond that, Brouwer-Zimmermann
    enumeration (see _bz_min_weight).
    """
    if not logicals:
        return INF
    if len(logicals) + len(stabs) > LOW_STAB_ROWS:
        rows = list(logicals) + list(stabs)
        return _bz_min_weight(rows, [1 << i for i in range(len(logicals))] + [0] * len(stabs))
    table = _span(stabs)
    return min(min(map(int.bit_count, map(v.__xor__, table))) for v in _span(logicals)[1:])


def _span(rows) -> list[int]:
    """All 2^len(rows) combinations of rows, the empty one first."""
    span = [0]
    for row in rows:
        span += [x ^ row for x in span]
    return span


def _bz_min_weight(rows, lams) -> int | float:
    """Brouwer-Zimmermann enumeration (Grassl, "Searching for linear codes
    with large minimum distance", 2006) of the dim independent rows: the
    least weight of a combination whose logical mask, the XOR of its rows'
    lams, is nonzero.

    Level w of a systematic matrix of the code (see _information_sets) holds
    the combinations of w of its rows.  A combination of more than w rows
    has more than w ones on the matrix's dim pivot columns, so more than
    w - (dim - r) on the r of them that no earlier matrix pivots on.  Those
    columns are disjoint across matrices, so once every matrix has had its
    levels up to done_j enumerated, every codeword not yet seen weighs at
    least sum_j max(0, done_j + 1 - (dim - r_j)).  Level w is run on each
    matrix whose term is positive after it (w >= dim - r_j); a partial
    matrix runs its lower levels first, since its term needs all of them.
    The search stops once the best nontrivial weight is at most that bound.
    """
    dim = len(rows)
    sets = _information_sets(rows, lams)
    mats, done = [], []  # the matrices built so far; levels enumerated per matrix
    best = INF

    def stop() -> int:
        return sum(max(0, d + 1 - (dim - r)) for d, (*_, r) in zip(done, mats))

    for w in range(1, dim + 1):
        # the next pass is built once level w can reach it
        while (not mats or w >= mats[-1][2]) and (m := next(sets, None)):
            mats.append(m)
            done.append(0)
        for j, (rs, ls, _, r) in enumerate(mats):
            if w < dim - r:
                continue
            tails = [rs[i:] for i in range(dim)]
            for level in range(done[j] + 1, w + 1):
                cut = stop()
                for _, cands, v, p in _lex_walk(rs, ls, level):
                    # the last index vectorised; the logical mask is read only below the best
                    if min(map(int.bit_count, map(v.__xor__, tails[cands.start]))) < best:
                        best = min([best] + [(v ^ rs[i]).bit_count() for i in cands if p ^ ls[i]])
                        if best <= cut:
                            return best
                done[j] = level
                if best <= stop():
                    return best
    return best  # inf: a nonzero mask returns above, as level dim's bound sum(r_j + 1) exceeds the support, sum(r_j)


def _column_order(cols: list[int]) -> list[int]:
    """The order in which _information_sets tries the columns: a seeded
    shuffle.  (Ascending columns leave the product codes few full sets:
    hgp(rep3, rep3, rep3) level 1, X gets ranks 19, 17, 12, 3 instead of
    19, 19, 12, 1.)"""
    return random.Random(BZ_SEED).sample(cols, len(cols))


def _information_sets(rows, lams) -> Iterator[tuple[list[int], list[int], int, int]]:
    """Systematic forms (rows, lams, join, r) of the dim independent rows on
    disjoint information sets, one pass per next().  Each Gauss-Jordan pass
    takes its pivots from the columns no earlier pass used, in one seeded
    column order, r of them, so r never grows; a pass with r < dim completes
    its pivots on used columns.  Passes stop at one with no unused pivot.
    join is the least level at which a later pass can run in
    _bz_min_weight: it pivots on at most min(r, unused columns) of them."""
    order = _column_order(bit_indices(reduce(or_, rows, 0)))
    used = 0
    while True:
        rs, ls, free, fresh = list(rows), list(lams), list(range(len(rows))), 0
        for new in (True, False):
            for c in order:
                bit = 1 << c
                if not free:
                    break
                if bool(used & bit) == new:
                    continue
                i = next((i for i in free if rs[i] & bit), None)
                if i is None:
                    continue
                free.remove(i)
                for j, row in enumerate(rs):
                    if j != i and row & bit:
                        rs[j] ^= rs[i]
                        ls[j] ^= ls[i]
                if new:
                    fresh |= bit
        if not fresh:
            return
        used |= fresh
        r = fresh.bit_count()
        yield rs, ls, len(rows) - min(r, len(order) - used.bit_count()), r


# -- named desk-scale instances --------------------------------------


def steane_code() -> CssCode:
    """[[7,1,3]] code with h_x = h_z = Hamming [7,4] checks."""
    h = hamming_7_4().h
    return CssCode(h, h)


def surface_code_2x3() -> CssCode:
    """Surface patch with d_X = 2 and d_Z = 3.

    Two columns of vertical edges three tall (danglers at both ends), two
    horizontal rungs; 8 qubits, 4 vertex X checks, 3 face Z checks, k = 1.
    """
    # qubits: 0,1 horizontal rungs (y = 0, 1); 2..4 left column verticals
    # (below, middle, above); 5..7 right column verticals.
    x_rows = [
        (0, 2, 3),  # vertex (left, y=0)
        (1, 3, 4),  # vertex (left, y=1)
        (0, 5, 6),  # vertex (right, y=0)
        (1, 6, 7),  # vertex (right, y=1)
    ]
    z_rows = [
        (0, 2, 5),  # bottom face
        (0, 1, 3, 6),  # middle face
        (1, 4, 7),  # top face
    ]
    return CssCode(BinMatrix.from_support(x_rows, 8), BinMatrix.from_support(z_rows, 8))


def ring_face_code(ring_len: int) -> CssCode:
    """One weight-`ring_len` Z face on a cycle of X vertices, plus two dangling
    qubits that keep k = 1.

    Vertices 0..ring_len-1 carry weight-2 or weight-3 X checks; the single Z
    check is the full ring.  The danglers attach at vertex 0 and at vertex
    ring_len // 2, the opposite side of the ring.
    """
    if ring_len < 3:
        raise ValueError("ring length must be >= 3")
    n = ring_len + 2
    x_rows = []
    for v in range(ring_len):
        sup = [(v - 1) % ring_len, v]  # edge v connects vertices v, v+1 mod ring_len
        if v == 0:
            sup.append(ring_len)
        if v == ring_len // 2:
            sup.append(ring_len + 1)
        x_rows.append(sorted(sup))
    z_rows = [list(range(ring_len))]
    return CssCode(BinMatrix.from_support(x_rows, n), BinMatrix.from_support(z_rows, n))
