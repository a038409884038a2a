"""Constructive total colorings of circulant and Cayley graphs.

The common engine is the diagonal-filling scheme: vertices take the repeating
pattern 1..q along the labels, and each generator's 2-factor takes a cyclic
edge pattern offset by a per-generator start value.  Start values come from
one rule, the patterned starter (patterned_starts), which is the paper's
column rules in closed form.  Two generators clash only when they are
negatives mod q; then an exhaustive starter search partitions the nonzero
residues mod q into pairs with prescribed differences.  Every pipeline ends
in verify_total and fails loudly.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

# build_unitary, complement, connected, two_factors and factor_edges have no
# caller here: every construction takes the graph it is given.  They stay
# imported because perfbench/spans.py patches them on this module by name.
from .graphs import (
    CirculantSpec,
    Graph,
    build_circulant,
    build_unitary,
    complement,
    connected,
    factor_edges,
    least_prime_factor,
    subgraph_of_edges,
    two_factors,
    units,
)
from .coloring import TotalColoring, ekey, verify_total
from .oracles import (
    OracleError,
    SearchBudget,
    exact_chromatic,
    exact_edge_coloring,
    is_perfect,
    maximal_cliques,
)


class ConstructionError(ValueError):
    """A construction's preconditions failed or no admissible choice exists."""


class PreconditionError(ConstructionError):
    """The graph is outside a construction's theorem: try another method."""


class VerificationFailure(RuntimeError):
    """A construction produced a coloring the strict verifier rejects."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def _checked(G: Graph, c: TotalColoring, what: str) -> TotalColoring:
    report = verify_total(G, c)
    if not report.ok:
        raise VerificationFailure(
            "%s produced an invalid coloring: %d conflicts, %d coverage errors"
            % (what, len(report.conflicts), len(report.coverage_errors)),
            report,
        )
    return c


# ---------------------------------------------------------------------------
# Start values and starter pairings


def patterned_starts(q: int, gens) -> Dict[int, int]:
    """Start values of the patterned starter: generator s starts at
    1 + s/2 mod q, in 1..q, where s/2 = s(q+1)/2 mod q (q odd).

    These are the paper's column rules.  Generator s fills column j = s + 1
    of the first row: odd j starts at 2 + (j-3)/2 = 1 + s/2, even j at
    (q+1)/2 + (j-2)/2 + 1 = 1 + (q+s)/2, mod q with 0 read as q, and
    (q+s)/2 - s(q+1)/2 = -q(s-1)/2 is 0 mod q.

    In fill_diagonals with q | n, the edges {0, s} and {n-s, 0} take 1 + s/2
    and 1 - s/2: vertex 0's star holds the pair {s/2, -s/2}, plus one, for
    each s, the patterned starter (R. C. Mullin and E. Nemeth, Canad. Math.
    Bull. 12, 1969; J. H. Dinitz and D. R. Stinson, "Room squares and
    related designs", 1992).  As 2 is a unit mod q, the pairs are disjoint
    and avoid vertex 0's color 1 unless a generator is 0 mod q or two are
    equal or negatives mod q; _star_conflicts counts those clashes.
    """
    if q < 3 or q % 2 == 0:
        raise ConstructionError("modulus q must be odd and >= 3")
    half = (q + 1) // 2
    return {s: s * half % q + 1 for s in gens}


@dataclass(frozen=True)
class StarterPairing:
    """Disjoint pairs of nonzero residues mod q, one per requested difference.

    entries[i] = (diff, (x, y)) with x - y = diff (mod q), aligned with the
    requested difference list.  Stored as a list rather than a map keyed by
    difference class because difference classes may repeat.
    """

    q: int
    entries: tuple

    def validate(self) -> None:
        seen = set()
        for diff, (x, y) in self.entries:
            if x % self.q == 0 or y % self.q == 0:
                raise ConstructionError("pair member is zero mod q")
            if (x - y) % self.q != diff % self.q:
                raise ConstructionError("pair (%d,%d) has wrong difference" % (x, y))
            for m in (x, y):
                if m in seen:
                    raise ConstructionError("residue %d used twice" % m)
                seen.add(m)


def starter_search(q: int, diffs) -> Optional[StarterPairing]:
    """Exhaustive backtracking for a starter pairing.

    diffs is a sequence of required differences (taken mod q; each request d
    asks for a pair {x, x-d} of nonzero residues, all pairs disjoint).  The
    lexicographically least solution in x-order is returned; None if none
    exists.
    """
    if q < 3 or q % 2 == 0:
        raise ConstructionError("modulus q must be odd and >= 3")
    diffs = [d % q for d in diffs]
    if any(d == 0 for d in diffs):
        raise ConstructionError("difference 0 mod q is not pairable")
    if len(diffs) > (q - 1) // 2:
        raise ConstructionError("too many difference requests for modulus %d" % q)
    # Backtracking on an explicit stack: request len(xs) takes the least x
    # from x on whose pair is free; on a dead end the last pair goes back
    # and its request goes on after its x.  used[x - d] is the residue
    # x - d mod q by negative indexing, and used[0] stays set, so a pair
    # member is never zero.
    used = [False] * q
    used[0] = True
    xs: list = []
    x = 1
    while len(xs) < len(diffs):
        d = diffs[len(xs)]
        for x in range(x, q):
            if not used[x] and not used[x - d]:
                used[x] = used[x - d] = True
                xs.append(x)
                x = 1
                break
        else:
            if not xs:
                return None
            x = xs.pop()
            used[x] = used[x - diffs[len(xs)]] = False
            x += 1
    entries = tuple((d, (x, (x - d) % q)) for d, x in zip(diffs, xs))
    pairing = StarterPairing(q, entries)
    pairing.validate()
    return pairing


def fill_diagonals(n: int, q: int, starts: Dict[int, int]) -> TotalColoring:
    """Diagonal-pattern fragment: vertex v gets (v mod q)+1; the edge
    {i, i+s} of generator s gets ((start_s - 1 + i) mod q) + 1.

    starts maps each half-set generator s (1 <= s < n/2) to its start value
    in 1..q.  This function does not check that the coloring is proper:
    when q divides n, _star_conflicts decides that on the star of vertex 0
    in O(Delta), and every coloring a construction returns goes through
    verify_total.
    """
    c = TotalColoring(n)
    for v in range(n):
        c.vertex_color[v] = (v % q) + 1
    for s in sorted(starts):
        if not 1 <= s or 2 * s >= n:
            raise ConstructionError("generator %d is not a proper half-set rep" % s)
        a = starts[s]
        for i in range(n):
            c.set_edge(i, (i + s) % n, ((a - 1 + i) % q) + 1)
    return c


def _star_conflicts(q: int, starts: Dict[int, int]) -> int:
    """Conflicts at vertex 0 of fill_diagonals(n, q, starts), for q
    dividing n and no generator 0 mod q or n/2.

    Vertex 0 has color 1, the edge {0, s} color a_s and the edge {n-s, 0}
    color ((a_s - 1 - s) mod q) + 1 (this uses q | n).  The count is the
    edges of color 1 plus C(k, 2) for each color that k edges share.

    Translation invariance.  Vertex v has color (v mod q) + 1 and the edge
    {i, i+s} color ((a_s - 1 + i) mod q) + 1.  Since q | n these depend on
    v and i mod q only, so the translation i -> i+1 maps the coloring onto
    itself with every color c replaced by (c mod q) + 1.  Every conflict
    has one witness vertex: the shared endpoint of two edges (distinct
    edges of a simple graph share at most one), or the vertex of a
    vertex-edge pair.  A vertex-vertex conflict cannot occur: adjacent
    vertices differ by a generator, which is not 0 mod q.  So the conflicts
    witnessed at each vertex are those at 0, shifted; the coloring is
    proper exactly when this count is 0, and verify_total reports n times
    it.
    """
    colors = []
    for s, a in starts.items():
        colors += [a, (a - 1 - s) % q + 1]
    return colors.count(1) + sum(k * (k - 1) // 2 for k in Counter(colors).values())


def _diagonal_starts(q: int, gens) -> Tuple[Optional[Dict[int, int]], int]:
    """(starts, conflicts) for fill_diagonals(n, q, starts) with q | n, where
    conflicts is _star_conflicts of the patterned starts.  starts are the
    patterned starts when that is 0; otherwise the starts x + 1 of
    starter_search's pairs (x, x - s), which are disjoint and avoid 0, so
    every star is proper; None when no pairing exists."""
    starts = patterned_starts(q, gens)
    conflicts = _star_conflicts(q, starts)
    if conflicts:
        pairing = starter_search(q, [s % q for s in gens])
        starts = None if pairing is None else {
            s: x % q + 1 for s, (d, (x, y)) in zip(gens, pairing.entries)}
    return starts, conflicts


# ---------------------------------------------------------------------------
# Theorem pipelines


@dataclass
class ConstructionResult:
    """A coloring that verify_total has accepted, with the notes that
    `totcol color` prints for it."""

    coloring: TotalColoring
    notes: list


def color_complete_bipartite(G: Graph) -> ConstructionResult:
    """thm2.1: total coloring of U_n for n = 2m a power of two, the complete
    bipartite graph on evens vs odds, with m+2 colors."""
    _require_power_of_two_unitary(G)
    m = G.n // 2
    c = TotalColoring(G.n)
    for i in range(m):
        c.vertex_color[2 * i] = m + 1
        c.vertex_color[2 * i + 1] = m + 2
    for i in range(m):
        for j in range(m):
            c.set_edge(2 * i, 2 * j + 1, ((i + j) % m) + 1)
    return ConstructionResult(_checked(G, c, "color_complete_bipartite(%d)" % m), [])


@dataclass
class UnitaryEvenResult(ConstructionResult):
    part1: TotalColoring
    part2: TotalColoring


def color_unitary_even(G: Graph) -> UnitaryEvenResult:
    """thm2.2: total coloring of U_n for n = 2^k * m (m odd > 1) with
    phi(n)+1 colors.

    Part 1 colors the vertices and the 2-factors of the odd generators below
    r = least prime factor of m, using r colors via patterned_starts: the
    generators are odd and below r, so no two of them sum to r.  Part 2
    gives each remaining generator pair two fresh colors, alternating on
    the parity of the edge's base endpoint.
    """
    _require_unitary_even(G)
    n = G.n
    m = n
    while m % 2 == 0:
        m //= 2
    r = least_prime_factor(m)
    part1_gens = [s for s in range(1, r, 2)]
    part1 = fill_diagonals(n, r, patterned_starts(r, part1_gens))

    part2 = TotalColoring(n)
    part2_gens = [s for s in G.circulant.half_set() if s not in part1_gens]
    for p, s in enumerate(part2_gens, start=1):
        c_even, c_odd = r + 2 * p - 1, r + 2 * p
        for i in range(n):
            part2.set_edge(i, (i + s) % n, c_even if i % 2 == 0 else c_odd)

    combined = _checked(G, part1.merged_with(part2), "color_unitary_even(%d)" % n)
    notes = ["part-1 generators %s, part-2 generators %s" % (part1_gens, part2_gens)]
    return UnitaryEvenResult(combined, notes, part1, part2)


@dataclass
class OddCirculantResult(ConstructionResult):
    strategy: str  # "literal" or "starter"


def color_odd_circulant(G: Graph) -> OddCirculantResult:
    """thm2.3: Delta+1 total coloring of an odd circulant whose generators
    avoid and distinguish the residues mod Delta+1.

    The start values come from _diagonal_starts: the patterned starter,
    which is the paper's literal column rules, when vertex 0's star shows no
    conflict (decided in O(Delta) by _star_conflicts), and otherwise an
    exhaustive starter pairing over the generators' difference classes.
    Only the coloring returned is built, and verify_total checks it in full.
    result.strategy names the strategy used ("literal" or "starter").
    """
    spec = G.circulant
    _require_odd_circulant(spec)
    n = spec.n
    q = spec.degree + 1
    half = spec.half_set()

    starts, conflicts = _diagonal_starts(q, half)
    if not conflicts:
        c = _checked(G, fill_diagonals(n, q, starts), "color_odd_circulant")
        return OddCirculantResult(c, ["strategy used: literal"], "literal")
    failed = "literal rules failed with %d conflicts" % (n * conflicts)
    if starts is None:
        raise ConstructionError("both strategies failed for %r: %s; no starter "
                                "pairing exists" % (spec, failed))
    c = _checked(G, fill_diagonals(n, q, starts), "color_odd_circulant")
    return OddCirculantResult(
        c, ["strategy used: starter", "starter fallback used", failed], "starter")


@dataclass
class EvenDenseResult(ConstructionResult):
    chosen_generators: tuple


def color_even_dense_circulant(G: Graph) -> EvenDenseResult:
    """thm2.5: Delta+1 total coloring for dense circulants with n = 2(2k+1).

    Vertices get the repeating pattern mod 2k+1 (antipodal pairs share a
    color).  k half-set generators H, with starts from _diagonal_starts, are
    colored diagonally with 2k+1 colors; the remainder G - E(H), the
    circulant on the other generators, takes Delta-2k fresh colors from
    edge_color_vizing.  The remainder must have an odd generator: then
    edge_color_vizing colors it by the parity-layer construction, with
    Delta-2k colors and never by search.  A remainder may be disconnected
    and still qualify (C_18{2,3,4,6,8} with H = [2, 4, 6, 8] leaves three
    6-cycles).  The first H whose remainder fits the budget gives a proper
    coloring, as in thm2.3.
    """
    spec = G.circulant
    _require_even_dense(spec)
    n = spec.n
    q = n // 2
    k = (q - 1) // 2
    half = spec.half_set()
    budget = spec.degree - 2 * k
    notes = []

    for H in itertools.combinations(half, k):
        label = "H=%s" % (list(H),)
        starts, conflicts = _diagonal_starts(q, H)
        if starts is None:
            notes.append("%s: no starter pairing" % label)
            continue
        rest = [s for s in half if s not in H]
        if not any(s % 2 for s in rest):
            notes.append("%s: remainder has no odd generator" % label)
            continue
        remainder = build_circulant(CirculantSpec(n, rest + [n - s for s in rest]))
        rem = edge_color_vizing(remainder)
        if rem.colors_used > budget:
            notes.append(
                "%s: remainder needs %d colors by %s, budget %d"
                % (label, rem.colors_used, rem.route, budget)
            )
            continue
        c = fill_diagonals(n, q, starts)
        for e, col in rem.edge_color.items():
            c.edge_color[e] = q + col
        _checked(G, c, "color_even_dense_circulant")
        notes.append("%s: accepted, starter %s, remainder edge-colored by %s"
                     % (label, "search" if conflicts else "patterned", rem.route))
        return EvenDenseResult(c, ["chosen generators H = %s" % (list(H),)] + notes, H)
    raise ConstructionError(
        "no admissible generator subset for %r: %s" % (spec, "; ".join(notes))
    )


def color_complete_odd(q: int) -> TotalColoring:
    """q-color total coloring of K_q for odd q: vertex i -> (2i mod q)+1,
    edge {i,j} -> ((i+j) mod q)+1."""
    if q < 1 or q % 2 == 0:
        raise ConstructionError("q must be odd and positive")
    c = TotalColoring(q)
    for i in range(q):
        c.vertex_color[i] = (2 * i % q) + 1
    for i in range(q):
        for j in range(i + 1, q):
            c.set_edge(i, j, ((i + j) % q) + 1)
    return c


# ---------------------------------------------------------------------------
# Edge coloring subroutines


@dataclass
class EdgeColoringResult:
    edge_color: Dict[tuple, int]
    colors_used: int
    delta: int
    delta_achieved: bool
    route: str  # "construction", "search" or "misra-gries"


_EXACT_EDGE_NODES = 200_000


def edge_color_vizing(G: Graph) -> EdgeColoringResult:
    """Proper edge coloring with at most Delta+1 colors.

    A circulant of even order with an odd generator is Delta-edge-colored by
    construction (edge_color_even_circulant).  Any other graph first gets an
    exact Delta-coloring by list coloring of the line graph within
    _EXACT_EDGE_NODES search nodes; when none exists or the search runs out,
    Misra-Gries fan recoloring with the Delta+1 palette finishes.  An
    overfull graph (more than Delta * floor(n/2) edges) skips the search:
    each color class is a matching of at most floor(n/2) edges, so no
    Delta-edge-coloring exists.  route names the step that produced the
    coloring; delta_achieved reports whether it uses only Delta colors.
    """
    delta = G.max_degree
    if delta == 0:
        return _edge_result({}, 0, "construction")
    if G.circulant is not None:
        colors = edge_color_even_circulant(G.circulant)
        if colors is not None:
            return _edge_result(colors, delta, "construction")
    if G.edge_count <= delta * (G.n // 2):
        status, exact = exact_edge_coloring(G, delta,
                                            SearchBudget(node_limit=_EXACT_EDGE_NODES))
        if status == "sat":
            return _edge_result(exact, delta, "search")
    return _edge_result(_misra_gries(G, delta), delta, "misra-gries")


def _edge_result(colors: Dict[tuple, int], delta: int, route: str) -> EdgeColoringResult:
    used = len(set(colors.values()))
    return EdgeColoringResult(colors, used, delta, used <= delta, route)


def edge_color_even_circulant(spec: CirculantSpec) -> Optional[Dict[tuple, int]]:
    """Delta-edge-coloring of a circulant of even order n with an odd
    generator, built from its parity layers; None for any other circulant.

    Parity-layer lemma.  Such a circulant is class 1 (the case of R. A.
    Stong, "On 1-factorizability of Cayley graphs", J. Combin. Theory Ser. B
    39 (1985), that thm2.5 needs).  Proof, which is also the construction:
    let a be the least odd generator, E the even generators and Delta = |S|.

    1. An even generator keeps the parity of a vertex, so its edges lie in
       the even layer V0 or in the odd layer V1.  Let L be the |E|-regular
       graph they form on V0.  Translation t(v) = v + a is an automorphism
       that swaps V0 and V1 (a is odd), and it maps L onto the V1 layer.
       Color L properly from the palette 1..|E|+1 (Misra-Gries, Vizing's
       bound), and each V1-layer edge t(e) like e.  A vertex v of V0 meets
       |E| distinct colors, so exactly one palette color mu(v) is missing
       there, and the same color is missing at t(v).
    2. The edges {v, v+a}, v in V0, form a perfect matching: v in V0 lies
       on {v, v+a} and w in V1 on {w-a, w}.  Color {v, v+a} with mu(v),
       which is missing at v in L and at t(v) = v+a in the V1 layer.
    3. If 2a != n, the other edges {w, w+a}, w in V1, form a second perfect
       matching and take one fresh color.  If 2a = n, they are the same
       matching.  Either way the generators a and n-a cost |{a, n-a}|
       colors beyond the |E| colors of step 1.
    4. Every other odd generator b <= n/2 splits the same way.  If 2b = n
       its edges are one perfect matching and take one fresh color.
       Otherwise the edge {i, i+b} takes one of two fresh colors by the
       parity of i: the other b-edge at i is {i-b, i}, and (i - b) mod n
       has the other parity because b is odd and n even.
    The count is |E| + |O| = Delta colors (O the odd generators), which a
    Delta-regular graph cannot beat.  Apart from Misra-Gries on L, this is
    O(n + m) with no search.
    """
    n = spec.n
    odd = [s for s in spec.half_set() if s % 2]
    if n % 2 or not odd:
        return None
    a, m = odd[0], n // 2
    layer = build_circulant(CirculantSpec(m, {s // 2 for s in spec.connection if s % 2 == 0}))
    palette = layer.max_degree + 1
    missing = [palette * (palette + 1) // 2] * m  # palette sum minus colors met
    color: Dict[tuple, int] = {}
    for (i, j), c in _misra_gries(layer, palette - 1).items():
        missing[i] -= c
        missing[j] -= c
        color[(2 * i, 2 * j)] = c
        color[ekey((2 * i + a) % n, (2 * j + a) % n)] = c
    for i in range(m):
        color[ekey(2 * i, (2 * i + a) % n)] = missing[i]
    fresh = palette + 1
    if 2 * a != n:
        for w in range(1, n, 2):
            color[ekey(w, (w + a) % n)] = fresh
        fresh += 1
    for b in odd[1:]:
        if 2 * b == n:
            for i in range(m):
                color[(i, i + b)] = fresh
            fresh += 1
        else:
            for i in range(n):
                color[ekey(i, (i + b) % n)] = fresh + i % 2
            fresh += 2
    return color


def _misra_gries(G: Graph, delta: int) -> Dict[tuple, int]:
    """Misra-Gries fan recoloring with palette 1..Delta+1."""
    K = delta + 1
    at = [dict() for _ in range(G.n)]  # at[v][color] = neighbor
    color: Dict[tuple, int] = {}

    def free(v):
        for c in range(1, K + 1):
            if c not in at[v]:
                return c
        raise AssertionError("no free color at %d" % v)

    def set_color(x, y, c):
        e = ekey(x, y)
        old = color.get(e)
        if old is not None:
            del at[x][old]
            del at[y][old]
        color[e] = c
        at[x][c] = y
        at[y][c] = x

    for (u, v) in G.edges():
        # maximal fan of u starting at v
        fan = [v]
        in_fan = {v}
        while True:
            d = free(fan[-1])
            w = at[u].get(d)
            if w is None or w in in_fan:
                break
            fan.append(w)
            in_fan.add(w)
        c = free(u)
        d = free(fan[-1])
        if d not in at[u]:
            j = len(fan) - 1
        else:
            # invert the c/d alternating path starting at u
            path = []
            node, want = u, d
            while want in at[node]:
                nxt = at[node][want]
                path.append((node, nxt, want))
                node = nxt
                want = c if want == d else d
            # clear the whole path before reassigning: flipping in place would
            # transiently alias colors at interior vertices
            for (x, y, c_old) in path:
                del at[x][c_old]
                del at[y][c_old]
                del color[ekey(x, y)]
            for (x, y, c_old) in path:
                set_color(x, y, c if c_old == d else d)
            # largest fan prefix still valid whose tip has d free
            j = None
            for idx in range(len(fan) - 1, -1, -1):
                if d in at[fan[idx]]:
                    continue
                ok = True
                for i2 in range(idx):
                    cc = color.get(ekey(u, fan[i2 + 1]))
                    if cc is None or cc in at[fan[i2]]:
                        ok = False
                        break
                if ok:
                    j = idx
                    break
            if j is None:
                raise AssertionError("fan recoloring lost its invariant")
        # rotate fan[0..j] and finish with d
        shift = [color[ekey(u, fan[i2 + 1])] for i2 in range(j)]
        for i2 in range(j + 1):
            e = ekey(u, fan[i2])
            old = color.pop(e, None)
            if old is not None:
                del at[u][old]
                del at[fan[i2]][old]
        for i2 in range(j):
            set_color(u, fan[i2], shift[i2])
        set_color(u, fan[j], d)
    return color


# ---------------------------------------------------------------------------
# Clique covers


@dataclass
class CliqueCover:
    """Vertex-disjoint cliques of equal size omega covering all vertices."""

    omega: int
    cliques: tuple


def clique_cover_disjoint(G: Graph) -> Optional[CliqueCover]:
    """Partition of the vertices into n/omega maximum cliques by exact-cover
    backtracking; None if no such partition exists."""
    stats = maximal_cliques(G)
    omega = stats.omega
    if omega == 0 or G.n % omega != 0:
        raise ConstructionError(
            "clique number %d does not divide n = %d" % (omega, G.n)
        )
    maximum = [tuple(sorted(c)) for c in stats.cliques if len(c) == omega]
    by_vertex: Dict[int, list] = {v: [] for v in range(G.n)}
    for cl in maximum:
        for v in cl:
            by_vertex[v].append(cl)

    # Exact cover on an explicit stack: cover the least uncovered vertex v
    # with the first clique of by_vertex[v] that fits; on a dead end take the
    # last clique back and try the next one after it.
    chosen: list = []
    tried: list = []  # tried[i]: index of chosen[i] in its vertex's list
    covered: set = set()
    start = 0
    while len(covered) < G.n:
        v = min(u for u in range(G.n) if u not in covered)
        options = by_vertex[v]
        for i in range(start, len(options)):
            if covered.isdisjoint(options[i]):
                chosen.append(options[i])
                tried.append(i)
                covered.update(options[i])
                start = 0
                break
        else:
            if not chosen:
                return None
            covered.difference_update(chosen.pop())
            start = tried.pop() + 1
    return CliqueCover(omega, tuple(sorted(chosen)))


@dataclass
class PerfectCayleyResult(ConstructionResult):
    chi: int
    cover: Optional[CliqueCover]
    remainder_colors: int
    total_colors: int
    type_one: bool  # remainder achieved a class-I edge coloring


def color_perfect_cayley(G: Graph) -> PerfectCayleyResult:
    """thm2.7: TCC-witnessing total coloring of a perfect Cayley graph with
    odd chromatic number dividing n.

    Complete graphs short-circuit to the odd-clique scheme.  Otherwise the
    vertices get a proper chi-coloring, a disjoint cover by maximum cliques
    is colored by transplanting the K_chi scheme so transplanted vertex
    colors agree with the assigned ones, and the remainder takes at most
    Delta - chi + 2 fresh colors.
    """
    chi, vertex_colors = _perfect_chromatic(G)
    delta = G.max_degree

    if delta == G.n - 1:  # complete graph
        c, cover, remainder_colors, total = color_complete_odd(G.n), None, 0, G.n
    else:
        cover = clique_cover_disjoint(G)
        if cover is None:
            raise ConstructionError("no disjoint cover by maximum cliques")
        if cover.omega != chi:
            raise ConstructionError(
                "clique number %d differs from chromatic number %d" % (cover.omega, chi)
            )

        half = (chi + 1) // 2  # inverse of 2 mod chi
        c = TotalColoring(G.n)
        for v in range(G.n):
            c.vertex_color[v] = vertex_colors[v]
        for cl in cover.cliques:
            pos = {v: ((vertex_colors[v] - 1) * half) % chi for v in cl}
            for i, u in enumerate(cl):
                for v in cl[i + 1:]:
                    c.set_edge(u, v, ((pos[u] + pos[v]) % chi) + 1)

        clique_edges = set(c.edge_color)
        rest_edges = [e for e in G.edges() if e not in clique_edges]
        rem = edge_color_vizing(subgraph_of_edges(G.n, rest_edges))
        for e, col in rem.edge_color.items():
            c.edge_color[e] = chi + col
        remainder_colors = rem.colors_used
        total = chi + remainder_colors
    _checked(G, c, "color_perfect_cayley")
    type_one = total == delta + 1
    notes = ["chi = %d, remainder colors = %d, total = %d" % (chi, remainder_colors, total),
             "type I achieved" if type_one else "type I not certified"]
    return PerfectCayleyResult(c, notes, chi, cover, remainder_colors, total, type_one)


# ---------------------------------------------------------------------------
# The method registry: each theorem's preconditions, written once


def _require_unitary(G: Graph) -> None:
    spec = G.circulant
    if spec is None or spec.connection != units(spec.n):
        raise PreconditionError("not a unitary graph U_n")


def _require_power_of_two_unitary(G: Graph) -> None:
    if G.n < 2 or G.n & (G.n - 1):
        raise PreconditionError("n = %d is not a power of two" % G.n)
    _require_unitary(G)


def _require_unitary_even(G: Graph) -> None:
    _require_unitary(G)
    n = G.n
    if n % 2:
        raise PreconditionError("n = %d is odd" % n)
    if n & (n - 1) == 0:
        raise PreconditionError("n = %d is a power of two (thm2.1)" % n)


def _require_odd_circulant(spec: Optional[CirculantSpec]) -> None:
    if spec is None:
        raise PreconditionError("no circulant provenance")
    n, q = spec.n, spec.degree + 1
    if n % 2 == 0:
        raise PreconditionError("n = %d is even" % n)
    if q == 1:
        raise PreconditionError("Delta = 0: no generators")
    if n % q:
        raise PreconditionError("Delta+1 = %d does not divide n = %d" % (q, n))
    for s in sorted(spec.connection):
        if s % q == 0:
            raise PreconditionError("generator %d divisible by Delta+1 = %d" % (s, q))
    half = spec.half_set()
    if len({s % q for s in half}) != len(half):
        raise PreconditionError(
            "half-set generators not pairwise distinct mod Delta+1 = %d" % q)


def _require_even_dense(spec: Optional[CirculantSpec]) -> None:
    if spec is None:
        raise PreconditionError("no circulant provenance")
    n = spec.n
    if n % 4 != 2:
        raise PreconditionError("n = %d is not 2 mod 4" % n)
    if n // 2 in spec.connection:
        raise PreconditionError("generator n/2 = %d is unsupported" % (n // 2))
    if not n // 2 <= spec.degree < n - 1:
        raise PreconditionError("Delta = %d outside n/2 <= Delta < n-1" % spec.degree)


def _perfect_chromatic(G: Graph):
    """thm2.7's preconditions: (chi, a proper chi-coloring)."""
    try:
        perfect = is_perfect(G)
    except OracleError as exc:  # the odd-hole search's size limit
        raise PreconditionError(str(exc)) from None
    if not perfect:
        raise PreconditionError("graph is not perfect")
    chi, vertex_colors = exact_chromatic(G)
    if chi % 2 == 0:
        raise PreconditionError("chromatic number %d is even" % chi)
    if G.n % chi:
        raise PreconditionError("chromatic number %d does not divide n = %d" % (chi, G.n))
    return chi, vertex_colors


# In the order color_auto tries them.  Each entry checks its theorem's
# preconditions once (PreconditionError) and returns a ConstructionResult
# whose coloring verify_total has accepted.  The lambdas name the
# constructions, so a call uses whatever the module attribute holds then.
METHODS: Dict[str, Callable[[Graph], ConstructionResult]] = {
    "thm2.1": lambda G: color_complete_bipartite(G),
    "thm2.2": lambda G: color_unitary_even(G),
    "thm2.3": lambda G: color_odd_circulant(G),
    "thm2.5": lambda G: color_even_dense_circulant(G),
    "thm2.7": lambda G: color_perfect_cayley(G),
}

# The methods whose theorem gives Delta+1 colors, so that their verified
# coloring proves the graph type I; oracles.classify_type tries them, in this
# order, before any search.  thm2.2: U_n with n even and not a power of two
# takes phi(n)+1 colors (Theorem 2.2).  thm2.3: an odd circulant whose
# generators avoid and distinguish the residues mod Delta+1, with Delta+1
# dividing n (Theorem 2.3).  thm2.5: a circulant with n = 2 mod 4,
# n/2 <= Delta < n-1 and no generator n/2 (Theorem 2.5).  thm2.1 and thm2.7
# give Delta+2 colors.
TYPE_ONE = ("thm2.2", "thm2.3", "thm2.5")


def color_auto(G: Graph):
    """Run the first method whose preconditions hold on G: (name, coloring,
    notes, rejected), where rejected lists the (name, reason) of each method
    tried before it.  A failure past a method's preconditions propagates;
    when no method applies, ConstructionError lists every reason."""
    rejected = []
    for name, run in METHODS.items():
        try:
            res = run(G)
        except PreconditionError as exc:
            rejected.append((name, str(exc)))
            continue
        return name, res.coloring, res.notes, rejected
    raise ConstructionError("no method applies: %s"
                            % "; ".join("%s: %s" % r for r in rejected))
