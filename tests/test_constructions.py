import hashlib
import itertools
import random
import re

import pytest

from totcol import constructions, graphs
from totcol.cli import unitary_even_parts
from totcol.coloring import TotalColoring, ekey, verify_total, write_coloring
from totcol.constructions import (
    METHODS,
    ConstructionError,
    PreconditionError,
    clique_cover_disjoint,
    color_complete_bipartite,
    color_complete_odd,
    color_auto,
    color_even_dense_circulant,
    color_odd_circulant,
    color_perfect_cayley,
    color_unitary_even,
    edge_color_vizing,
    fill_diagonals,
    patterned_starts,
    starter_search,
)
from totcol.graphs import (
    CirculantSpec,
    build_circulant,
    build_unitary,
    subgraph_of_edges,
    totient,
)

ODD_PRIMES = [p for p in range(3, 51)
              if all(p % d for d in range(2, p))]


def petersen():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return subgraph_of_edges(10, [ekey(u, v) for u, v in edges])


def assert_proper_edge_coloring(G, colors, expected_count=None):
    assert set(colors) == set(map(tuple, G.edges()))
    for w in range(G.n):
        incident = [colors[ekey(w, u)] for u in G.neighbors(w)]
        assert len(incident) == len(set(incident))
    if expected_count is not None:
        assert len(set(colors.values())) == expected_count


def spy_on_search(monkeypatch):
    calls = []
    search = constructions.exact_edge_coloring

    def spy(G, budget):
        calls.append(G.n)
        return search(G, budget)

    monkeypatch.setattr(constructions, "exact_edge_coloring", spy)
    return calls


def symmetric(n, half):
    return CirculantSpec(n, set(half) | {n - s for s in half})


# ---------------------------------------------------------------------------
# start entries and starter pairings


def wraps(n, q, starts):
    """The color of the edge {n-s, 0} of each generator s in fill_diagonals."""
    c = fill_diagonals(n, q, starts)
    return {s: c.edge_color[ekey(n - s, 0)] for s in starts}


def column_rule(q, s):
    """The paper's literal column rules for generator s, column j = s + 1:
    (start, wrap), mod q with 0 read as q.  The reference for
    patterned_starts and for fill_diagonals' edge {n-s, 0}."""
    j = s + 1
    if j % 2:
        start, wrap = 2 + (j - 3) // 2, q - (j - 3) // 2
    else:
        start, wrap = (q + 1) // 2 + (j - 2) // 2 + 1, (q + 1) // 2 - (j - 2) // 2
    return (start - 1) % q + 1, (wrap - 1) % q + 1


def test_start_entries_q3_table_values():
    starts = patterned_starts(3, [1])
    assert starts == {1: 3}
    assert wraps(24, 3, starts) == {1: 2}


def test_start_entries_q7_columns_2_3_4():
    starts = patterned_starts(7, [1, 2, 3])
    assert starts == {1: 5, 2: 2, 3: 6}
    assert wraps(21, 7, starts) == {1: 4, 2: 7, 3: 3}
    palette = [1] + list(starts.values()) + list(wraps(21, 7, starts).values())
    assert sorted(palette) == list(range(1, 8))


def test_start_entries_column_one():
    # column 1 is the diagonal, generator 0: vertex 0's color
    for q in (3, 7, 11):
        assert patterned_starts(q, [0]) == {0: 1}


def test_start_entries_difference_identity_all_q():
    # the column rules, start and wrap, for every generator 1..q, every odd
    # q up to 101; start(j) - wrap(j) = j - 1 (mod q)
    for q in range(3, 102, 2):
        n = 3 * q
        gens = range(1, q + 1)
        starts = patterned_starts(q, gens)
        wrap = wraps(n, q, starts)
        for s in gens:
            assert (starts[s], wrap[s]) == column_rule(q, s), (q, s)
            assert (starts[s] - wrap[s]) % q == s % q


def test_start_entries_cover_all_colors_for_even_column_sets():
    # thm2.2's part 1, the odd generators below r, fills the palette 1..r
    for r in ODD_PRIMES:
        starts = patterned_starts(r, range(1, r, 2))
        palette = [1] + list(starts.values()) + list(wraps(2 * r, r, starts).values())
        assert sorted(palette) == list(range(1, r + 1))


def test_start_entries_rejects_even_modulus():
    with pytest.raises(ConstructionError):
        patterned_starts(4, [1, 2])
    with pytest.raises(ConstructionError):
        patterned_starts(1, [])


def test_starter_search_examples():
    p = starter_search(7, [1, 3, 3])
    members = [m for (_, pair) in p.entries for m in pair]
    assert sorted(members) == [1, 2, 3, 4, 5, 6]
    for d, (x, y) in p.entries:
        assert (x - y) % 7 == d

    p2 = starter_search(7, [1, 2, 3])
    members = [m for (_, pair) in p2.entries for m in pair]
    assert len(set(members)) == 6

    p3 = starter_search(3, [1])
    assert set(p3.entries[0][1]) == {1, 2}


def test_starter_search_absence_is_none():
    # q=3 has only one nonzero pair; two requests cannot be disjoint
    with pytest.raises(ConstructionError):
        starter_search(3, [1, 1])
    # impossible orientation set: q=5, three pairs needed but only two fit
    with pytest.raises(ConstructionError):
        starter_search(5, [1, 1, 2])
    # difference 3 keeps the residue mod 3, and 1, 4, 7 cannot be paired
    assert starter_search(9, [3, 3, 3, 3]) is None


def test_starter_search_deterministic():
    a = starter_search(11, [1, 2, 3, 4, 5])
    b = starter_search(11, [1, 2, 3, 4, 5])
    assert a == b


def test_starter_search_runs_deeper_than_the_recursion_limit():
    # 1001 requests: one level each, well past the default limit of 1000
    p = starter_search(2003, [1] * 1001)
    assert p.entries == tuple((1, (2 * k + 2, 2 * k + 1)) for k in range(1001))


def test_starter_pairing_validity_random():
    rng = random.Random(23)
    for _ in range(30):
        q = rng.choice(range(5, 32, 2))
        k = rng.randint(1, (q - 1) // 2)
        diffs = [rng.randint(1, q - 1) for _ in range(k)]
        pairing = starter_search(q, diffs)
        if pairing is None:
            continue
        pairing.validate()
        members = [m for (_, pair) in pairing.entries for m in pair]
        assert len(members) == len(set(members))
        assert all(1 <= m <= q - 1 for m in members)


# ---------------------------------------------------------------------------
# fill_diagonals


def test_fill_diagonals_u24_first_generator():
    frag = fill_diagonals(24, 3, {1: 3})
    assert frag.edge_color[(1, 2)] == 1
    assert frag.edge_color[(0, 23)] == 2
    assert frag.vertex_color[0] == 1


def test_fill_diagonals_c6_total_coloring():
    G = build_circulant(CirculantSpec(6, {1, 5}))
    frag = fill_diagonals(6, 3, {1: 3})
    assert verify_total(G, frag).ok


def test_fill_diagonals_starter_starts_distinct_at_vertex_zero():
    spec = CirculantSpec(21, {1, 3, 4, 17, 18, 20})
    res = color_odd_circulant(build_circulant(spec))
    incident = [res.coloring.edge_color[ekey(0, u)]
                for u in build_circulant(spec).neighbors(0)]
    assert len(incident) == len(set(incident))


def fill_diagonals_per_edge(n, q, starts):
    """fill_diagonals as it was written edge by edge: the reference for the
    one-update-per-generator fill."""
    c = TotalColoring(n)
    for v in range(n):
        c.vertex_color[v] = (v % q) + 1
    for s in sorted(starts):
        a = starts[s]
        for i in range(n):
            c.set_edge(i, (i + s) % n, ((a - 1 + i) % q) + 1)
    return c


def assert_same_in_order(c, reference):
    assert c.n == reference.n
    assert list(c.vertex_color.items()) == list(reference.vertex_color.items())
    assert list(c.edge_color.items()) == list(reference.edge_color.items())


def test_fill_diagonals_matches_the_per_edge_fill():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(3, 150)
        q = rng.randint(1, 12)
        gens = rng.sample(range(1, (n + 1) // 2), rng.randint(0, min(6, (n - 1) // 2)))
        starts = {s: rng.randint(1, q) for s in gens}
        assert_same_in_order(fill_diagonals(n, q, starts), fill_diagonals_per_edge(n, q, starts))


def assert_same_colors(c, reference):
    assert c.n == reference.n
    assert c.vertex_color == reference.vertex_color
    assert c.edge_color == reference.edge_color


def test_color_unitary_even_matches_the_per_edge_fill():
    # the coloring, and the parts that `totcol tables` renders, against the
    # two parts filled edge by edge; write_coloring, render_matrix and
    # verify_total all sort, so the dicts are compared, not their order
    for n in range(6, 121, 2):
        if n & (n - 1) == 0:
            continue
        G = build_unitary(n)
        res = color_unitary_even(G)
        m = n
        while m % 2 == 0:
            m //= 2
        r = min(p for p in range(3, m + 1) if m % p == 0)
        part1_gens = list(range(1, r, 2))
        part1 = fill_diagonals_per_edge(n, r, patterned_starts(r, part1_gens))
        part2 = TotalColoring(n)
        part2_gens = [s for s in G.circulant.half_set() if s not in part1_gens]
        for p, s in enumerate(part2_gens, start=1):
            for i in range(n):
                part2.set_edge(i, (i + s) % n, r + 2 * p - 1 if i % 2 == 0 else r + 2 * p)
        rendered1, rendered2 = unitary_even_parts(res.coloring)
        assert_same_colors(rendered1, part1)
        assert_same_colors(rendered2, part2)
        assert_same_colors(res.coloring, TotalColoring(n, part1.vertex_color,
                                                       part1.edge_color | part2.edge_color))


# ---------------------------------------------------------------------------
# theorem pipelines


def test_color_complete_bipartite_u8():
    c = color_complete_bipartite(build_unitary(8)).coloring
    G = build_unitary(8)
    report = verify_total(G, c)
    assert report.ok and report.colors_used == 6  # 2^(3-1) + 2


def test_color_complete_bipartite_single_edge():
    c = color_complete_bipartite(build_unitary(2)).coloring
    G = subgraph_of_edges(2, [(0, 1)])
    report = verify_total(G, c)
    assert report.ok and report.colors_used == 3


def test_color_complete_bipartite_c4_is_optimal():
    from totcol.oracles import exact_total_chromatic

    c = color_complete_bipartite(build_unitary(4)).coloring
    G = build_unitary(4)
    report = verify_total(G, c)
    assert report.ok and report.colors_used == 4
    assert exact_total_chromatic(G).value == 4


def test_color_unitary_even_counts():
    for n in (6, 12, 18, 24, 36, 48, 10, 20):
        res = color_unitary_even(build_unitary(n))
        report = verify_total(build_unitary(n), res.coloring)
        assert report.ok
        assert report.colors_used == totient(n) + 1


def test_color_unitary_even_rejects_bad_inputs():
    with pytest.raises(ConstructionError):
        color_unitary_even(build_unitary(9))
    with pytest.raises(ConstructionError):
        color_unitary_even(build_unitary(16))  # power of two belongs to the bipartite case


def test_color_odd_circulant_literal_instance():
    res = color_odd_circulant(build_circulant(CirculantSpec(21, {1, 2, 3, 18, 19, 20})))
    assert res.strategy == "literal"
    assert res.coloring.colors_used() == 7
    assert verify_total(build_circulant(CirculantSpec(21, {1, 2, 3, 18, 19, 20})),
                        res.coloring).ok


def test_color_odd_circulant_starter_fallback():
    spec = CirculantSpec(21, {1, 3, 4, 17, 18, 20})
    res = color_odd_circulant(build_circulant(spec))
    assert res.strategy == "starter"
    assert res.coloring.colors_used() == 7
    assert verify_total(build_circulant(spec), res.coloring).ok
    # vertex classes are the residue classes mod 7
    for v, c in res.coloring.vertex_color.items():
        assert c == (v % 7) + 1


def test_color_odd_circulant_literal_strategy_fails_on_example():
    res = color_odd_circulant(build_circulant(CirculantSpec(21, {1, 3, 4, 17, 18, 20})))
    assert res.strategy == "starter"
    note = next(n for n in res.notes if n.startswith("literal rules failed"))
    m = re.fullmatch(r"literal rules failed with (\d+) conflicts", note)
    # what verify_total reports on the literal fill: 21 stars of 2 conflicts
    assert m and int(m.group(1)) == 42


def admissible_odd_circulants():
    """Seeded half-sets of odd circulants (n <= 99, |half| <= 5) that pass
    thm2.3's preconditions, at most 10 per (n, Delta)."""
    rng = random.Random(11)
    out = []
    for n in range(3, 100, 2):
        for k in range(1, min(5, n // 2) + 1):
            q = 2 * k + 1
            if n % q:
                continue
            found = set()
            for _ in range(30):
                half = tuple(sorted(rng.sample(range(1, n // 2 + 1), k)))
                if len({s % q for s in half} - {0}) == k:
                    found.add(half)
                if len(found) == 10:
                    break
            out += [(n, half) for half in sorted(found)]
    return out


def test_star_conflicts_match_verify_total():
    # The patterned starts are 1 + s/2 mod q, so their edges at vertex 0
    # never take vertex 0's color; random starts check that count too.
    rng = random.Random(12)
    proper = {"literal": 0, "random": 0}
    for n, half in admissible_odd_circulants():
        q = 2 * len(half) + 1
        G = build_circulant(CirculantSpec(n, set(half) | {n - s for s in half}))
        for kind, starts in [("literal", patterned_starts(q, half)),
                             ("random", {s: rng.randint(1, q) for s in half})]:
            report = verify_total(G, fill_diagonals(n, q, starts))
            star = constructions._star_conflicts(q, starts)
            assert report.ok == (star == 0), (n, half, starts)
            assert len(report.conflicts) == n * star, (n, half, starts)
            proper[kind] += report.ok
    assert proper["literal"] >= 100 and proper["random"] >= 20


def test_color_odd_circulant_k3():
    res = color_odd_circulant(build_circulant(CirculantSpec(3, {1, 2})))
    assert res.coloring.colors_used() == 3


def test_color_odd_circulant_preconditions():
    with pytest.raises(ConstructionError):
        color_odd_circulant(build_circulant(CirculantSpec(10, {1, 9})))  # even n
    with pytest.raises(ConstructionError):
        # generator divisible by q=3
        color_odd_circulant(build_circulant(CirculantSpec(21, {3, 18})))


def test_color_even_dense_primary_instance():
    spec = CirculantSpec(10, {1, 2, 3, 7, 8, 9})
    res = color_even_dense_circulant(build_circulant(spec))
    assert res.coloring.colors_used() == 7
    assert res.chosen_generators == (1, 2)
    assert verify_total(build_circulant(spec), res.coloring).ok
    assert any("accepted" in n for n in res.notes)


def test_color_even_dense_negative_control_needs_generator_4():
    spec = CirculantSpec(10, {1, 3, 4, 6, 7, 9})
    res = color_even_dense_circulant(build_circulant(spec))
    assert 4 in res.chosen_generators
    assert res.coloring.colors_used() == 7
    assert verify_total(build_circulant(spec), res.coloring).ok
    # the generator-4 remainder was rejected before the accepted subset
    assert "H=[1, 3]: remainder has no odd generator" in res.notes


def test_color_even_dense_accepts_class_one_remainder():
    # the remainder {8, 9, 10} of H = [1..7] has an odd generator, so class 1 (Stong)
    spec = CirculantSpec(30, set(range(1, 11)) | set(range(20, 30)))
    res = color_even_dense_circulant(build_circulant(spec))
    assert res.chosen_generators == (1, 2, 3, 4, 5, 6, 7)
    assert verify_total(build_circulant(spec), res.coloring).ok


@pytest.mark.parametrize("half, chosen", [
    ((2, 3, 4, 6, 8), (2, 4, 6, 8)),
    ((1, 2, 3, 4, 6), (1, 2, 4, 6)),
    ((1, 2, 3, 4, 8), (1, 2, 4, 8)),
    ((1, 2, 3, 6, 8), (1, 2, 6, 8)),
    ((1, 3, 4, 6, 8), (1, 4, 6, 8)),
])
def test_color_even_dense_accepts_a_disconnected_remainder(half, chosen):
    # each chosen H leaves C_18{3, 15}, three 6-cycles: disconnected, but
    # with an odd generator, so class 1 by the parity-layer construction.
    # The first half set had no admissible H while the remainder had to be
    # connected; the others took a later H.
    spec = symmetric(18, half)
    res = color_even_dense_circulant(build_circulant(spec))
    assert res.chosen_generators == chosen
    report = verify_total(build_circulant(spec), res.coloring)
    assert report.ok and report.colors_used == 11


def test_color_even_dense_small():
    spec = CirculantSpec(6, {1, 2, 4, 5})
    res = color_even_dense_circulant(build_circulant(spec))
    assert res.coloring.colors_used() == 5
    assert verify_total(build_circulant(spec), res.coloring).ok


def test_color_even_dense_preconditions():
    with pytest.raises(ConstructionError):
        color_even_dense_circulant(build_circulant(CirculantSpec(8, {1, 2, 6, 7})))  # n = 0 mod 4
    with pytest.raises(ConstructionError):
        color_even_dense_circulant(build_circulant(CirculantSpec(10, {1, 2, 5, 8, 9})))  # n/2 in S


def test_color_complete_odd():
    for q in (1, 3, 5, 9):
        c = color_complete_odd(q)
        G = subgraph_of_edges(q, [(i, j) for i in range(q) for j in range(i + 1, q)])
        report = verify_total(G, c)
        assert report.ok and report.colors_used == q
    with pytest.raises(ConstructionError):
        color_complete_odd(4)


# ---------------------------------------------------------------------------
# edge coloring subroutines


def test_edge_color_vizing_examples():
    k4 = subgraph_of_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    res = edge_color_vizing(k4)
    assert_proper_edge_coloring(k4, res.edge_color, 3)
    assert res.delta_achieved

    c5 = build_circulant(CirculantSpec(5, {1, 4}))
    res5 = edge_color_vizing(c5)
    assert_proper_edge_coloring(c5, res5.edge_color, 3)
    assert not res5.delta_achieved

    pet = petersen()
    resp = edge_color_vizing(pet)
    assert_proper_edge_coloring(pet, resp.edge_color)
    assert resp.colors_used == 4  # class II, never above Delta+1
    assert not resp.delta_achieved


def test_edge_color_vizing_skips_the_search_on_overfull_graphs(monkeypatch):
    # more than Delta * floor(n/2) edges: no Delta-edge-coloring exists, so
    # Misra-Gries runs at once and gives what it gave after a failed search
    calls = spy_on_search(monkeypatch)
    overfull = [build_circulant(CirculantSpec(5, {1, 4})),
                build_circulant(CirculantSpec(9, {1, 2, 3, 6, 7, 8})),
                build_unitary(15),
                subgraph_of_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)]),
                subgraph_of_edges(3, [(0, 1), (1, 2), (0, 2)])]
    for G in overfull:
        assert G.edge_count > G.max_degree * (G.n // 2)
        res = edge_color_vizing(G)
        assert res.edge_color == constructions._misra_gries(G)
        assert_proper_edge_coloring(G, res.edge_color, G.max_degree + 1)
        assert not res.delta_achieved
    assert calls == []
    edge_color_vizing(petersen())  # 15 = 3 * 5 edges: not overfull, searched
    assert calls == [10]


def test_edge_color_vizing_deep_search():
    # 1400 edges: the exact search assigns each of them on one path.  The
    # edges of C_700{1, 2} without the circulant spec, so no construction
    # applies and the search runs.
    G = subgraph_of_edges(700, build_circulant(CirculantSpec(700, {1, 2, 698, 699})).edges())
    res = edge_color_vizing(G)
    assert_proper_edge_coloring(G, res.edge_color, 4)
    assert res.delta_achieved
    assert res.route == "search"


@pytest.mark.parametrize("make, route", [
    (lambda: build_circulant(symmetric(12, [1, 2, 3, 4])), "search"),
    (lambda: build_circulant(symmetric(10, [2, 5])), "search"),  # 2a = n
    (lambda: subgraph_of_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
     "search"),
    (lambda: subgraph_of_edges(700, build_circulant(symmetric(700, [1, 2])).edges()),
     "search"),
    (lambda: build_circulant(CirculantSpec(5, {1, 4})), "misra-gries"),  # overfull
    (petersen, "misra-gries"),  # class 2: searched, then Misra-Gries
], ids=["C_12", "C_10-antipodal", "K_4", "C_700-edges", "C_5", "petersen"])
def test_edge_color_vizing_offset_shifts_the_default_coloring(make, route):
    G = make()
    base = edge_color_vizing(G)
    assert base.route == route
    for offset in (1, 3, 20):
        res = edge_color_vizing(G, offset)
        assert res.route == route
        assert res.edge_color == {e: offset + c for e, c in base.edge_color.items()}
        assert (res.colors_used, res.delta_achieved) == (base.colors_used, base.delta_achieved)


def parity_edge_colors(spec):
    """_parity_columns's coloring of spec, read as an edge dict."""
    cols = constructions._parity_columns(spec.n, spec.half_set(), 0)
    return constructions._column_coloring(spec.n, [], cols).edge_color


def assert_constructed(spec):
    assert_proper_edge_coloring(build_circulant(spec), parity_edge_colors(spec), spec.degree)


def test_parity_columns_every_small_connection_set():
    count = 0
    for n in range(2, 17, 2):
        for r in range(1, n // 2 + 1):
            for half in itertools.combinations(range(1, n // 2 + 1), r):
                if any(s % 2 for s in half):
                    assert_constructed(symmetric(n, half))
                    count += 1
    assert count == 465


def test_parity_columns_random():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 81, 2)
        half = {s for s in range(1, n // 2 + 1) if rng.random() < 0.3}
        half.add(rng.randrange(1, n // 2 + 1, 2))
        assert_constructed(symmetric(n, half))


def test_parity_columns_color_c700_with_no_search(monkeypatch):
    calls = spy_on_search(monkeypatch)
    spec = CirculantSpec(700, {1, 2, 698, 699})
    assert_proper_edge_coloring(build_circulant(spec), parity_edge_colors(spec), 4)
    assert calls == []


@pytest.mark.parametrize("n, half", [(12, [1, 2, 3, 4]), (10, [2, 5])],  # 2a = n
                         ids=["C_12", "C_10-antipodal"])
def test_parity_columns_offset_shifts_every_color(n, half):
    spec = symmetric(n, half)
    base = constructions._parity_columns(n, spec.half_set(), 0)
    assert sorted(base) == sorted(spec.connection)
    assert {c for col in base.values() for c in col} == set(range(1, spec.degree + 1))
    for offset in (1, 3, 20):
        shifted = constructions._parity_columns(n, spec.half_set(), offset)
        assert shifted == {s: [offset + c for c in col] for s, col in base.items()}


def spy_on_starter_search(monkeypatch):
    calls = []
    search = constructions.starter_search

    def spy(q, diffs):
        calls.append((q, list(diffs)))
        return search(q, diffs)

    monkeypatch.setattr(constructions, "starter_search", spy)
    return calls


@pytest.mark.parametrize("n, top", [(10, 3), (30, 10), (42, 12), (46, 14),
                                    (74, 21), (502, 128)])
def test_color_even_dense_never_searches(monkeypatch, n, top):
    # no edge-coloring search and no starter search: the patterned starts
    # serve every H inside 1..k
    calls = spy_on_search(monkeypatch)
    starter_calls = spy_on_starter_search(monkeypatch)
    spec = symmetric(n, range(1, top + 1))
    res = color_even_dense_circulant(build_circulant(spec))
    assert calls == [] and starter_calls == []
    assert any(note.endswith("accepted, starter patterned, remainder edge-colored by "
                             "construction") for note in res.notes)
    report = verify_total(build_circulant(spec), res.coloring)
    assert report.ok and report.colors_used == spec.degree + 1


def test_color_even_dense_searches_when_patterned_starts_clash(monkeypatch, tmp_path):
    # H = [3, 4, 6] holds 3 = -4 mod 7, so its starts come from
    # starter_search's least pairing; the digest pins the .tc bytes
    starter_calls = spy_on_starter_search(monkeypatch)
    spec = symmetric(14, [3, 4, 5, 6])
    res = color_even_dense_circulant(build_circulant(spec))
    assert res.chosen_generators == (3, 4, 6)
    assert "H=[3, 4, 6]: accepted, starter search, remainder edge-colored by " \
        "construction" in res.notes
    assert starter_calls == [(7, [3, 4, 5]), (7, [3, 4, 6])]
    assert {s: res.coloring.edge_color[(0, s)] for s in (3, 4, 6)} == {3: 2, 4: 7, 6: 4}
    assert verify_total(build_circulant(spec), res.coloring).colors_used == 9
    write_coloring(res.coloring, tmp_path / "c14.tc")
    assert hashlib.sha256((tmp_path / "c14.tc").read_bytes()).hexdigest() == \
        "83fb06c58ce42e792241c4f5624e97f0362859e63c033b21f1b7aa4928233b10"


def test_color_even_dense_c46_takes_the_first_subset():
    spec = symmetric(46, range(1, 15))
    res = color_even_dense_circulant(build_circulant(spec))
    assert res.chosen_generators == tuple(range(1, 12))
    assert res.coloring.colors_used() == 29
    assert verify_total(build_circulant(spec), res.coloring).ok


def test_edge_color_vizing_random_within_bound():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        if not edges:
            continue
        G = subgraph_of_edges(n, edges)
        res = edge_color_vizing(G)
        assert_proper_edge_coloring(G, res.edge_color)
        assert res.colors_used <= G.max_degree + 1


# ---------------------------------------------------------------------------
# clique covers


def test_clique_cover_examples():
    cover = clique_cover_disjoint(build_unitary(9))
    assert cover.cliques == ((0, 1, 2), (3, 4, 5), (6, 7, 8))

    k6 = subgraph_of_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    assert clique_cover_disjoint(k6).cliques == ((0, 1, 2, 3, 4, 5),)

    c5 = build_circulant(CirculantSpec(5, {1, 4}))
    with pytest.raises(ConstructionError):
        clique_cover_disjoint(c5)  # omega = 2 does not divide 5


def test_clique_cover_backtracks_without_recursion():
    # the cycle C_2000: omega = 2, and the cover picks 1000 cliques
    cycle = build_circulant(CirculantSpec(2000, {1, 1999}))
    cover = clique_cover_disjoint(cycle)
    assert cover.cliques == tuple((v, v + 1) for v in range(0, 2000, 2))

    # paths 2-0-1-3 and 5-4-6-7: (0, 1) leaves 2 uncoverable, so the cover
    # backtracks, then takes the first clique again at vertex 4
    paths = subgraph_of_edges(8, [(0, 1), (0, 2), (1, 3), (4, 5), (4, 6), (6, 7)])
    assert clique_cover_disjoint(paths).cliques == ((0, 2), (1, 3), (4, 5), (6, 7))
    star = subgraph_of_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert clique_cover_disjoint(star) is None


def test_color_perfect_cayley_u9():
    G = build_unitary(9)
    res = color_perfect_cayley(G)
    report = verify_total(G, res.coloring)
    assert report.ok
    assert res.total_colors <= G.max_degree + 2
    assert res.chi == 3
    # odd-order regular remainder is class II, so type I is not certified here
    assert res.type_one == (res.remainder_colors == G.max_degree - res.chi + 1)


def test_color_perfect_cayley_k5_short_circuit():
    k5 = build_unitary(5)
    res = color_perfect_cayley(k5)
    assert res.total_colors == 5
    assert verify_total(k5, res.coloring).ok


def test_color_perfect_cayley_rejects_c9():
    c9 = build_circulant(CirculantSpec(9, {1, 8}))
    with pytest.raises(ConstructionError):
        color_perfect_cayley(c9)


# ---------------------------------------------------------------------------
# cross-cutting properties


def test_constructions_are_deterministic(tmp_path):
    c21 = CirculantSpec(21, {1, 3, 4, 17, 18, 20})
    c10 = CirculantSpec(10, {1, 2, 3, 7, 8, 9})
    pairs = [
        (color_unitary_even(build_unitary(24)).coloring,
         color_unitary_even(build_unitary(24)).coloring),
        (color_odd_circulant(build_circulant(c21)).coloring,
         color_odd_circulant(build_circulant(c21)).coloring),
        (color_even_dense_circulant(build_circulant(c10)).coloring,
         color_even_dense_circulant(build_circulant(c10)).coloring),
    ]
    for i, (a, b) in enumerate(pairs):
        pa, pb = tmp_path / ("a%d" % i), tmp_path / ("b%d" % i)
        write_coloring(a, pa)
        write_coloring(b, pb)
        assert pa.read_bytes() == pb.read_bytes()


# ---------------------------------------------------------------------------
# method registry


def test_color_auto_looks_up_each_construction_when_called(monkeypatch):
    calls = []
    original = constructions.color_odd_circulant

    def spy(G):
        calls.append(G)
        return original(G)

    monkeypatch.setattr(constructions, "color_odd_circulant", spy)
    G = build_circulant(CirculantSpec(21, {1, 2, 3, 18, 19, 20}))
    assert color_auto(G)[0] == "thm2.3"
    assert calls == [G]


def test_unitary_precondition_counts_before_it_builds_the_units(monkeypatch):
    built = []
    units = constructions.units
    monkeypatch.setattr(constructions, "units", lambda n: built.append(n) or units(n))
    odd_sparse = build_circulant(CirculantSpec(2009, {684, 807, 843, 1166, 1202, 1325}))
    same_count = build_circulant(CirculantSpec(10, {1, 2, 8, 9}))  # phi(10) = 4
    for G in (odd_sparse, same_count):
        with pytest.raises(PreconditionError, match="^not a unitary graph U_n$"):
            METHODS["thm2.2"](G)
    assert built == [10]
    # n = 1: phi(1) = 1 but U_1's connection set is empty, so the count is
    # not taken; the set comparison passes and n's parity rejects it
    with pytest.raises(PreconditionError, match="^n = 1 is odd$"):
        METHODS["thm2.2"](build_circulant(CirculantSpec(1, set())))


def test_method_rejection_reason_is_the_constructions_error():
    # Every method either returns a coloring verify_total accepts or raises
    # ConstructionError; color_auto takes the first method that does not
    # raise PreconditionError and reports each earlier one's reason.
    rng = random.Random(2006)
    graphs = [petersen()] + [build_unitary(n) for n in (2, 4, 6, 9, 12, 15, 16)]
    while len(graphs) < 60:
        n = rng.randint(3, 16)
        pool = list(range(1, n // 2 + 1))
        half = rng.sample(pool, rng.randint(1, len(pool)))
        graphs.append(build_circulant(CirculantSpec(n, set(half) | {n - s for s in half})))
    rejections = 0
    for G in graphs:
        outcome = {}  # name -> the ConstructionError raised, or None
        for name, run in METHODS.items():
            try:
                coloring = run(G).coloring
            except ConstructionError as exc:
                outcome[name] = exc
                continue
            assert verify_total(G, coloring).ok, (name, G.circulant)
            outcome[name] = None
        rejected = [(name, str(exc)) for name, exc in outcome.items()
                    if isinstance(exc, PreconditionError)]
        rejections += len(rejected)
        picked = next((name for name, exc in outcome.items()
                       if not isinstance(exc, PreconditionError)), None)
        if picked is None:
            with pytest.raises(ConstructionError) as err:
                color_auto(G)
            assert str(err.value) == "no method applies: %s" % "; ".join(
                "%s: %s" % r for r in rejected)
        elif outcome[picked] is None:
            before = rejected[:list(METHODS).index(picked)]
            assert color_auto(G)[0::3] == (picked, before), G.circulant
        else:
            with pytest.raises(ConstructionError) as err:
                color_auto(G)
            assert str(err.value) == str(outcome[picked])
    assert rejections > 100


def _in_order(found):
    """complete_type_two's answer with its coloring's items in order."""
    if found is None:
        return None
    name, c = found
    return name, list(c.vertex_color.items()), list(c.edge_color.items())


def test_complete_type_two_answers_a_circulant_as_its_rows_do(monkeypatch):
    # every circulant with n <= 16, by its spec and as the same rows with no
    # spec: the same construction, and the same coloring in the same order.
    # The spec side builds no rows.
    def built(spec):
        raise AssertionError("built the rows of %r" % (spec,))

    monkeypatch.setattr(graphs, "circulant_rows", built)
    found = []
    for n in range(1, 17):
        for size in range(n // 2 + 1):
            for half in itertools.combinations(range(1, n // 2 + 1), size):
                G = build_circulant(CirculantSpec(n, set(half) | {n - s for s in half}))
                by_spec, by_rows = (_in_order(constructions.complete_type_two(H))
                                    for H in (G, subgraph_of_edges(n, G.edges())))
                assert by_spec == by_rows, (n, half)
                if by_spec is not None:
                    found.append((n, by_spec[0]))
    assert found == [(2, "complete-even")] + [
        (n, kind) for n in range(4, 17, 2) for kind in ("complete-bipartite", "complete-even")]
