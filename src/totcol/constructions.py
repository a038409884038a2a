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

# build_unitary, complement, connected, two_factors and factor_edges have no
# caller here: every construction takes the graph it is given.  They stay
# imported because perfbench/spans.py patches them on this module by name.
from .graphs import (
    CirculantSpec,
    FrozenRecord,
    Graph,
    Record,
    build_circulant,
    build_unitary,
    complement,
    connected,
    factor_edges,
    least_prime_factor,
    subgraph_of_edges,
    totient,
    two_factors,
    units,
)
from .coloring import ColumnColoring, TotalColoring, ekey, verify_total
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


def patterned_starts(q: int, gens) -> dict[int, int]:
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


class StarterPairing(FrozenRecord):
    """Disjoint pairs of nonzero residues mod q, one per requested difference.

    entries[i] = (diff, (x, y)) with x - y = diff (mod q), aligned with the
    requested difference list.  Stored as a list rather than a map keyed by
    difference class because difference classes may repeat.
    """

    _fields = ("q", "entries")

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


def starter_search(q: int, diffs) -> StarterPairing | None:
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


def fill_diagonals(n: int, q: int, starts: dict[int, int]) -> TotalColoring:
    """Diagonal-pattern fragment: vertex v gets (v mod q)+1; the edge
    {i, i+s} of generator s gets ((start_s - 1 + i) mod q) + 1.

    starts maps each half-set generator s (1 <= s < n/2) to its start value
    in 1..q.  The colors of a generator repeat with period q along i, so
    each generator is 1..q cycled from its start (islice of cycle) over
    i = 0..n-1, cut by _generator_columns into its two columns.  The
    coloring returned is a ColumnColoring of those columns (S = the
    generators of starts and their negatives), with no dicts: verify_total
    checks it, write_coloring writes it and render_matrix renders it by
    columns.  Its vertex_color and edge_color are built on their first
    read, with the keys and insertion order of an edge-by-edge fill.  This
    function does not check that the coloring is proper: when q divides n,
    _star_conflicts decides that on the star of vertex 0 in O(Delta), and
    every coloring a construction returns goes through verify_total.
    """
    half = sorted(starts)
    for s in half:
        if not 1 <= s or 2 * s >= n:
            raise ConstructionError("generator %d is not a proper half-set rep" % s)
    cols: dict = {}
    for s in half:
        # ((start - 1 + i) mod q) + 1 for i = 0, 1, ...: 1..q cycled from the start
        cols.update(_generator_columns(n, s, itertools.islice(
            itertools.cycle(range(1, q + 1)), (starts[s] - 1) % q, None)))
    return _column_coloring(n, list(itertools.islice(itertools.cycle(range(1, q + 1)), n)), cols)


def _generator_columns(n: int, s: int, colors) -> dict:
    """{s: ..., n - s: ...}, the columns of generator s (1 <= s <= n/2)
    from the colors of the edges {i, i+s mod n} for i = 0, 1, ...: s holds
    those with i < n - s, and n - s the edges {i + s - n, i} of the next s.
    Generator n/2 has one column, of n/2 edges."""
    colors = iter(colors)
    cols = {s: list(itertools.islice(colors, n - s))}
    if 2 * s < n:
        cols[n - s] = list(itertools.islice(colors, s))
    return cols


def _column_coloring(n: int, vcol: list, cols: dict) -> ColumnColoring:
    """The ColumnColoring of C_n(S) with the vertex colors vcol and the
    column cols[s] of each s in S."""
    conn = sorted(cols)
    return ColumnColoring(n, conn, vcol, [cols[s] for s in conn])


def _star_conflicts(q: int, starts: dict[int, int]) -> int:
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


def _diagonal_starts(q: int, gens) -> tuple[dict[int, int] | None, int]:
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


def _layered(G: Graph, q: int, starts: dict[int, int], rest, what: str) -> ColumnColoring:
    """The Delta+1 fill of thm2.2, thm2.3 and thm2.5 on a circulant G with
    q | n, verified.  fill_diagonals colors the vertices and the generators
    of starts with 1..q.  The remainder, the circulant on the half-set
    generators rest, is empty (thm2.3) or has an odd generator (thm2.2 and
    thm2.5 make sure of it), and _parity_columns colors it from q+1 on.  Its
    columns join the fill's, so the coloring is checked, written and
    rendered by columns, with no edge dict."""
    n = G.n
    c = fill_diagonals(n, q, starts)
    if rest:
        cols = dict(zip(c.conn, c.cols))
        cols.update(_parity_columns(n, rest, q))
        c = _column_coloring(n, c.vcol, cols)
    return _checked(G, c, what)


# ---------------------------------------------------------------------------
# Theorem pipelines


class ConstructionResult(Record):
    """A coloring that verify_total has accepted, with the notes that
    `totcol color` prints for it."""

    _fields = ("coloring", "notes")


def color_complete_bipartite(G: Graph) -> ConstructionResult:
    """thm2.1: total coloring of U_n for n = 2m a power of two, the complete
    bipartite graph on evens vs odds, with m+2 colors."""
    _require_power_of_two_unitary(G)
    c = fill_complete_bipartite(G.n, range(0, G.n, 2), range(1, G.n, 2))
    return ConstructionResult(_checked(G, c, "color_complete_bipartite(%d)" % (G.n // 2)), [])


def fill_complete_bipartite(n: int, A, B) -> TotalColoring:
    """(m+2)-color total coloring of K_{m,m} on the sides A and B, each of m
    vertices in ascending order: A's vertices take m+1, B's take m+2, and
    the edge a_i b_j takes ((i+j) mod m)+1."""
    m = len(A)
    c = TotalColoring(n)
    c.vertex_color.update(dict.fromkeys(A, m + 1))
    c.vertex_color.update(dict.fromkeys(B, m + 2))
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            c.set_edge(a, b, ((i + j) % m) + 1)
    return c


def color_unitary_even(G: Graph) -> ConstructionResult:
    """thm2.2: total coloring of U_n for n = 2^k * m (m odd > 1) with
    phi(n)+1 colors, by _layered with q = r, the least prime factor of m.

    H is the odd generators below r, with patterned_starts: they are odd
    and below r, so no two of them sum to r, and they are units.  The
    remainder has only odd generators, so the parity-layer construction
    (_parity_columns) gives each remaining generator two fresh colors,
    alternating on the parity of the edge's base endpoint.  The coloring is
    one ColumnColoring of the fill's columns and the remainder's.  The
    vertex colors are exactly 1..r, so the colors up to r are the paper's
    part 1 and the rest its part 2.
    """
    _require_unitary_even(G)
    n = G.n
    m = n
    while m % 2 == 0:
        m //= 2
    r = least_prime_factor(m)
    part1_gens = [s for s in range(1, r, 2)]
    part2_gens = [s for s in G.circulant.half_set() if s not in part1_gens]
    c = _layered(G, r, patterned_starts(r, part1_gens), part2_gens,
                 "color_unitary_even(%d)" % n)
    notes = ["part-1 generators %s, part-2 generators %s" % (part1_gens, part2_gens)]
    return ConstructionResult(c, notes)


class OddCirculantResult(ConstructionResult):
    """thm2.3's result; strategy is "literal" or "starter"."""

    _fields = ConstructionResult._fields + ("strategy",)


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
    failed = "literal rules failed with %d conflicts" % (n * conflicts)
    if starts is None:
        raise ConstructionError("both strategies failed for %r: %s; no starter "
                                "pairing exists" % (spec, failed))
    c = _layered(G, q, starts, [], "color_odd_circulant")
    if not conflicts:
        return OddCirculantResult(c, ["strategy used: literal"], "literal")
    return OddCirculantResult(
        c, ["strategy used: starter", "starter fallback used", failed], "starter")


class EvenDenseResult(ConstructionResult):
    """thm2.5's result; chosen_generators is the subset H filled diagonally."""

    _fields = ConstructionResult._fields + ("chosen_generators",)


def color_even_dense_circulant(G: Graph) -> EvenDenseResult:
    """thm2.5: Delta+1 total coloring for dense circulants with n = 2(2k+1),
    by _layered with q = 2k+1.

    Vertices get the repeating pattern mod 2k+1 (antipodal pairs share a
    color).  k half-set generators H, with starts from _diagonal_starts, are
    colored diagonally with 2k+1 colors; the remainder G - E(H), the
    circulant on the other generators, takes fresh colors by columns from
    the parity-layer construction (_parity_columns), so it must have an
    odd generator: then it takes its degree Delta-2k in colors and never a
    search.  A remainder may be disconnected and still qualify
    (C_18{2,3,4,6,8} with H = [2, 4, 6, 8] leaves three 6-cycles).  The first H with a starter and an odd
    generator in its remainder gives a proper coloring, as in thm2.3.
    """
    spec = G.circulant
    _require_even_dense(spec)
    n = spec.n
    q = n // 2
    k = (q - 1) // 2
    half = spec.half_set()
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
        c = _layered(G, q, starts, rest, "color_even_dense_circulant")
        notes.append("%s: accepted, starter %s, remainder edge-colored by construction"
                     % (label, "search" if conflicts else "patterned"))
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


def color_complete_even(n: int) -> TotalColoring:
    """(n+1)-color total coloring of K_n for even n >= 2: color_complete_odd's
    coloring of K_{n+1} restricted to the vertices 0..n-1, as a subgraph
    inherits a proper total coloring."""
    big = color_complete_odd(n + 1)
    return TotalColoring(n, {v: col for v, col in big.vertex_color.items() if v < n},
                         {e: col for e, col in big.edge_color.items() if e[1] < n})


def complete_type_two(G: Graph) -> tuple[str, TotalColoring] | None:
    """(construction, coloring) when G is exactly K_n with n even
    ("complete-even") or exactly K_{m,m} with n = 2m ("complete-bipartite"),
    in any labelling, else None.  The coloring has Delta+2 colors and
    verify_total has accepted it; certificate takes it as the upper bound
    of a type II graph, because chi''(K_n) = n+1 for even n and
    chi''(K_{m,m}) = m+2 (M. Behzad, G. Chartrand and J. K. Cooper, "The
    colour numbers of complete graphs", J. London Math. Soc. 42, 1967).

    It reads only n, the edge count and neighbour lists, so a circulant
    builds no rows.  G is K_n iff it has n(n-1)/2 edges.  Otherwise let B
    be N(0) and A the other vertices, ascending.  G is K_{m,m} with sides
    A and B iff |B| = n/2, G has |B|^2 edges and every b in B has the
    neighbour list A.  "Only if": vertex 0 lies on one side, and B is the
    other.  "If": |A| = n - |B| = |B|, and each b in B is adjacent to
    exactly A, so the edges at B are the |B|^2 pairs {a, b}; they are all
    of G's edges, so none lies inside A."""
    n = G.n
    if n < 2 or n % 2:
        return None
    if G.edge_count == n * (n - 1) // 2:
        return "complete-even", _checked(G, color_complete_even(n), "color_complete_even(%d)" % n)
    B = G.neighbors(0)
    if len(B) != n // 2 or G.edge_count != len(B) ** 2:
        return None
    A = sorted(set(range(n)).difference(B))
    if any(G.neighbors(b) != A for b in B):
        return None
    return "complete-bipartite", _checked(G, fill_complete_bipartite(n, A, B),
                                          "fill_complete_bipartite(%d)" % (n // 2))


# ---------------------------------------------------------------------------
# Edge coloring subroutines


class EdgeColoringResult(Record):
    """edge_color_vizing's coloring; route is "search" or "misra-gries", or
    "construction" for the empty coloring of a graph with no edges."""

    _fields = ("edge_color", "colors_used", "delta", "delta_achieved", "route")


_EXACT_EDGE_NODES = 200_000


def edge_color_vizing(G: Graph, offset: int = 0) -> EdgeColoringResult:
    """Proper edge coloring with at most Delta+1 colors, offset+1 on.

    A graph with no edges gets the empty coloring.  Any other graph first
    gets an exact Delta-coloring by list coloring of the line graph within
    _EXACT_EDGE_NODES search nodes; when none exists or the search runs out,
    Misra-Gries fan recoloring with the Delta+1 palette finishes.  An
    overfull graph (more than Delta * floor(n/2) edges) skips the search:
    each color class is a matching of at most floor(n/2) edges, so no
    Delta-edge-coloring exists.  route names the step that produced the
    coloring; delta_achieved reports whether it uses only Delta colors.
    An offset shifts every color, so the result is a layer on top of the
    colors 1..offset (color_perfect_cayley's remainder).
    """
    delta = G.max_degree
    if delta == 0:
        return _edge_result({}, 0, "construction")
    if G.edge_count <= delta * (G.n // 2):
        status, exact = exact_edge_coloring(G, SearchBudget(node_limit=_EXACT_EDGE_NODES))
        if status == "sat":
            return _edge_result({e: offset + c for e, c in exact.items()}, delta, "search")
    return _edge_result(_misra_gries(G, offset), delta, "misra-gries")


def _edge_result(colors: dict[tuple, int], delta: int, route: str) -> EdgeColoringResult:
    used = len(set(colors.values()))
    return EdgeColoringResult(colors, used, delta, used <= delta, route)


def _parity_columns(n: int, half: list, offset: int) -> dict:
    """{s: column s} for each s in S of the circulant C_n(S) with the half
    set half, n even and an odd generator: a Delta-edge-coloring built from
    its parity layers, in the colors offset+1 .. offset+Delta, as the
    columns of _generator_columns.

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

    Step 1 colors L by Misra-Gries, one L-edge at a time, into the colors
    of the even generators' edges; no L is built when there is no even
    generator.  Steps 2 and 3 give generator a the missing color mu on even
    bases and one fresh color on odd ones, and step 4 cycles each other odd
    b's fresh pair, one color for b = n/2.
    """
    odd = [s for s in half if s % 2]
    even = [s for s in half if s % 2 == 0]
    a, m = odd[0], n // 2
    rows = {s: [0] * n for s in even}  # s -> colors of {w, w+s mod n}, w = 0..n-1
    palette, layer_colors = 1, {}
    if even:
        layer = build_circulant(CirculantSpec(m, {t for s in even for t in (s // 2, m - s // 2)}))
        palette, layer_colors = layer.max_degree + 1, _misra_gries(layer, offset)
    missing = [palette * (2 * offset + palette + 1) // 2] * m  # palette sum minus colors met
    for (i, j), c in layer_colors.items():
        missing[i] -= c
        missing[j] -= c
        # the L-edge {i, j} is {u, u + t mod m} of generator 2t, for base u =
        # i when j - i = t and u = j when j - i = m - t (both when 2t = m);
        # the edge {2u, 2u+2t} and its translate by a take its color
        d = j - i
        for u in (i,) if 2 * d < m else (j,) if 2 * d > m else (i, j):
            row = rows[2 * min(d, m - d)]
            row[2 * u] = row[(2 * u + a) % n] = c
    cols: dict = {}
    for s, row in rows.items():
        cols.update(_generator_columns(n, s, row))
    fresh = offset + palette + 1
    if 2 * a == n:
        # the edge {2i, 2i+a} takes missing[i]; its base is 2i below m, else 2i - m
        row = [0] * m
        row[::2], row[1::2] = missing[:(m + 1) // 2], missing[(m + 1) // 2:]
    else:
        row = itertools.chain.from_iterable(zip(missing, itertools.repeat(fresh)))
        fresh += 1
    cols.update(_generator_columns(n, a, row))
    for b in odd[1:]:
        pattern = (fresh,) if 2 * b == n else (fresh, fresh + 1)
        cols.update(_generator_columns(n, b, itertools.cycle(pattern)))
        fresh += len(pattern)
    return cols


def _misra_gries(G: Graph, offset: int = 0) -> dict[tuple, int]:
    """Misra-Gries fan recoloring with palette offset+1..offset+Delta+1."""
    palette = range(offset + 1, offset + G.max_degree + 2)
    at = [dict() for _ in range(G.n)]  # at[v][color] = neighbor
    color: dict[tuple, int] = {}

    def free(v):
        for c in palette:
            if c not in at[v]:
                return c
        raise AssertionError("no free color at %d" % v)

    def set_color(x, y, c):  # the edge {x, y} is uncolored: both callers clear it
        color[ekey(x, y)] = c
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


class CliqueCover(Record):
    """Vertex-disjoint cliques of equal size omega covering all vertices."""

    _fields = ("omega", "cliques")


def clique_cover_disjoint(G: Graph) -> CliqueCover | None:
    """Partition of the vertices into n/omega maximum cliques by exact-cover
    backtracking; None if no such partition exists."""
    stats = maximal_cliques(G)
    omega = stats.omega
    if omega == 0 or G.n % omega != 0:
        raise ConstructionError(
            "clique number %d does not divide n = %d" % (omega, G.n)
        )
    maximum = [tuple(sorted(c)) for c in stats.cliques if len(c) == omega]
    by_vertex: dict[int, list] = {v: [] for v in range(G.n)}
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


class PerfectCayleyResult(ConstructionResult):
    """thm2.7's result; cover is None for a complete graph, and type_one
    says whether the remainder achieved a class-I edge coloring."""

    _fields = ConstructionResult._fields + (
        "chi", "cover", "remainder_colors", "total_colors", "type_one")


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
        rem = edge_color_vizing(subgraph_of_edges(G.n, rest_edges), chi)
        c.edge_color |= rem.edge_color
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
    # units(n) takes n gcds, so the O(sqrt n) count phi(n) = |units(n)|
    # (n >= 2) rejects most graphs first
    spec = G.circulant
    if (spec is None or spec.n > 1 and len(spec.connection) != totient(spec.n)
            or spec.connection != units(spec.n)):
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


def _require_odd_circulant(spec: CirculantSpec | None) -> None:
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


def _require_even_dense(spec: CirculantSpec | None) -> None:
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


def color_complete(G: Graph) -> ConstructionResult:
    """K_n with n even, or K_{m,m}, in any labelling: complete_type_two's
    verified Delta+2 coloring, which is optimal for both."""
    found = complete_type_two(G)
    if found is None:
        raise PreconditionError("not K_n with n even nor K_{m,m}")
    construction, coloring = found
    return ConstructionResult(coloring, ["construction: %s" % construction])


# In the order color_auto tries them.  Each entry checks its theorem's
# preconditions once (PreconditionError) and returns a ConstructionResult
# whose coloring verify_total has accepted.  The lambdas name the
# constructions, so a call uses whatever the module attribute holds then.
METHODS = {
    "thm2.1": lambda G: color_complete_bipartite(G),
    "thm2.2": lambda G: color_unitary_even(G),
    "thm2.3": lambda G: color_odd_circulant(G),
    "thm2.5": lambda G: color_even_dense_circulant(G),
    "thm2.7": lambda G: color_perfect_cayley(G),
    "complete": lambda G: color_complete(G),
}

# The methods whose theorem gives Delta+1 colors, so that their verified
# coloring proves the graph type I; certificate tries them, in this order.
# thm2.2: U_n with n even and not a power of two takes phi(n)+1 colors
# (Theorem 2.2).  thm2.3: an odd circulant whose generators avoid and
# distinguish the residues mod Delta+1, with Delta+1 dividing n (Theorem
# 2.3).  thm2.5: a circulant with n = 2 mod 4, n/2 <= Delta < n-1 and no
# generator n/2 (Theorem 2.5).  thm2.1, thm2.7 and complete give Delta+2
# colors.
TYPE_ONE = ("thm2.2", "thm2.3", "thm2.5")


def certificate(G: Graph) -> tuple[str, str, str, TotalColoring] | None:
    """(kind, lower evidence, method, coloring) when a theorem settles G's
    type with no search, else None: ("type1", "clique", the first TYPE_ONE
    method whose coloring has Delta+1 colors, it), or ("type2", "complete",
    complete_type_two's construction and coloring).  Every coloring is
    verified; a VerificationFailure propagates."""
    for name in TYPE_ONE:
        try:
            coloring = METHODS[name](G).coloring
        except ConstructionError:
            continue
        if coloring.colors_used() == G.max_degree + 1:
            return "type1", "clique", name, coloring
    found = complete_type_two(G)
    return None if found is None else ("type2", "complete") + found


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
