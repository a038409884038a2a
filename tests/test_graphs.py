import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from totcol import graphs
from totcol.graphs import (
    CirculantSpec,
    Graph,
    GraphError,
    GroupTable,
    build_cayley,
    build_circulant,
    build_unitary,
    circulant_rows,
    complement,
    connected,
    factor_edges,
    least_prime_factor,
    read_dimacs,
    subgraph_of_edges,
    totient,
    two_factors,
    units,
    write_dimacs,
)


def cyclic_group(n):
    """The cyclic group Z_n as an explicit table."""
    return GroupTable(n, [[(i + j) % n for j in range(n)] for i in range(n)], 0)


def totient_by_factorization(n):
    # independent oracle: multiply (p-1)p^(e-1) over the factorization
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            result *= (d - 1) * d ** (e - 1)
        d += 1
    if n > 1:
        result *= n - 1
    return result


def test_totient_values():
    assert totient(16) == 8
    assert totient(1) == 1
    assert totient(24) == totient_by_factorization(24) == 8


def test_totient_matches_oracle_on_range():
    for n in range(1, 200):
        assert totient(n) == totient_by_factorization(n)


def test_least_prime_factor():
    assert least_prime_factor(3) == 3
    assert least_prime_factor(15) == 3
    assert least_prime_factor(49) == 7
    with pytest.raises(ValueError):
        least_prime_factor(1)


def test_circulant_spec_invariants():
    with pytest.raises(GraphError):
        CirculantSpec(10, {1})  # asymmetric
    with pytest.raises(GraphError):
        CirculantSpec(10, {0, 1, 9})  # identity element


def test_build_circulant_examples():
    c4 = build_circulant(CirculantSpec(4, {1, 3}))
    assert sorted(c4.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    g21 = build_circulant(CirculantSpec(21, {1, 3, 4, 17, 18, 20}))
    assert g21.regular_degree == 6

    matching = build_circulant(CirculantSpec(10, {5}))
    assert matching.edges() == [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]


def test_build_unitary_examples():
    u24 = build_unitary(24)
    assert u24.neighbors(0) == [1, 5, 7, 11, 13, 17, 19, 23]

    u8 = build_unitary(8)
    evens = [0, 2, 4, 6]
    odds = [1, 3, 5, 7]
    for u in evens:
        for v in odds:
            assert u8.has_edge(u, v)
    for part in (evens, odds):
        for i, u in enumerate(part):
            for v in part[i + 1:]:
                assert not u8.has_edge(u, v)

    u5 = build_unitary(5)
    assert u5.edge_count == 10  # K_5


def test_build_cayley_matches_unitary_on_z9():
    table = cyclic_group(9)
    G = build_cayley(table, {1, 2, 4, 5, 7, 8})
    assert G.rows == build_unitary(9).rows


def test_build_cayley_small():
    k3 = build_cayley(cyclic_group(3), {1, 2})
    assert k3.edge_count == 3
    full = build_cayley(cyclic_group(5), {1, 2, 3, 4})
    assert full.edge_count == 10


def test_build_cayley_rejects_bad_sets():
    with pytest.raises(GraphError):
        build_cayley(cyclic_group(5), {1})  # inverse 4 missing
    with pytest.raises(GraphError):
        build_cayley(cyclic_group(5), {0, 1, 4})
    # a generator outside 0..n-1, above or below: not an index into the table
    with pytest.raises(GraphError, match="generator 99 outside 0..8"):
        build_cayley(cyclic_group(9), {99})
    with pytest.raises(GraphError, match="generator -1 outside 0..8"):
        build_cayley(cyclic_group(9), {-1, 1, 8})


def test_group_table_validation():
    with pytest.raises(GraphError):
        GroupTable(2, [[0, 1], [1, 1]], 0)  # no inverse for 1... not a group


def test_complement_examples():
    G = build_circulant(CirculantSpec(10, {1, 2, 5, 8, 9}))
    H = complement(G)
    assert H.circulant.connection == frozenset({3, 4, 6, 7})
    k4 = build_circulant(CirculantSpec(4, {1, 2, 3}))
    assert complement(k4).edge_count == 0
    assert complement(complement(G)) == G


def test_connected_examples():
    assert connected(build_circulant(CirculantSpec(10, {3, 4, 6, 7})))
    assert not connected(build_circulant(CirculantSpec(10, {5})))
    assert connected(build_circulant(CirculantSpec(1, set())))


def test_connected_matches_a_bfs_over_neighbors():
    def bfs_connected(G):
        seen, frontier = {0}, [0]
        while frontier:
            for v in G.neighbors(frontier.pop()):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == G.n

    rng = random.Random(31)
    cases = [subgraph_of_edges(1, []), subgraph_of_edges(2, []),
             build_circulant(CirculantSpec(2625, {1, 2624})),
             build_circulant(CirculantSpec(2625, {5, 2620}))]
    for _ in range(80):
        n = rng.randint(2, 90)
        p = rng.choice([0.005, 0.02, 0.05, 0.2])
        cases.append(subgraph_of_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    answers = [connected(G) for G in cases]
    assert answers == [bfs_connected(G) for G in cases]
    assert answers[:4] == [True, False, True, False]
    assert 10 < sum(answers) < len(answers) - 10
    assert connected(subgraph_of_edges(0, []))


def test_two_factors_examples():
    dec = two_factors(CirculantSpec(24, build_unitary(24).circulant.connection))
    assert [f.generators for f in dec.factors] == [(1, 23), (5, 19), (7, 17), (11, 13)]
    assert all(len(f.cycles) == 1 and len(f.cycles[0]) == 24 for f in dec.factors)

    dec2 = two_factors(CirculantSpec(10, {2, 8}))
    assert len(dec2.factors) == 1
    assert [len(c) for c in dec2.factors[0].cycles] == [5, 5]

    dec3 = two_factors(CirculantSpec(6, {3}))
    assert factor_edges(dec3.factors[0]) == [(0, 3), (1, 4), (2, 5)]


def test_two_factors_cover_edges_exactly_once():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(4, 40)
        conn = set()
        for s in rng.sample(range(1, n), min(n - 1, 5)):
            conn.add(s)
            conn.add(n - s)
        conn.discard(0)
        if not conn:
            continue
        spec = CirculantSpec(n, conn)
        G = build_circulant(spec)
        seen = []
        for f in two_factors(spec).factors:
            seen.extend(factor_edges(f))
        assert sorted(seen) == G.edges()
        assert len(seen) == len(set(seen))


def test_circulant_rows_match_the_edge_by_edge_rows():
    # every symmetric connection set for n <= 16: n = 1 and 2, the empty set,
    # and every set that holds n/2
    cases = 0
    for n in range(1, 17):
        for k in range(n // 2 + 1):
            for half in itertools.combinations(range(1, n // 2 + 1), k):
                spec = CirculantSpec(n, set(half) | {n - s for s in half})
                rows = [0] * n
                for u in range(n):
                    for s in spec.connection:
                        rows[u] |= 1 << (u + s) % n
                assert circulant_rows(spec) == tuple(rows)
                assert build_circulant(spec) == Graph(n, tuple(rows), spec)
                cases += 1
    assert cases == 765


def test_set_bit_walks_match_a_bit_scan():
    # naive reference: test each of the n bits of a row, one shift at a time
    rng = random.Random(23)
    cases = [build_circulant(CirculantSpec(2009, {1, 641, 838, 967, 1042, 1171, 1368, 2008})),
             build_unitary(210), subgraph_of_edges(1, []), subgraph_of_edges(70, [])]
    for _ in range(60):
        n = rng.randint(2, 130)
        p = rng.choice([0.02, 0.2, 0.5, 0.9])
        cases.append(subgraph_of_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    for G in cases:
        scan = [[v for v in range(G.n) if (G.rows[u] >> v) & 1] for u in range(G.n)]
        assert [G.neighbors(u) for u in range(G.n)] == scan
        assert [G.degree(u) for u in range(G.n)] == [len(nb) for nb in scan]
        assert G.edges() == [(u, v) for u in range(G.n) for v in scan[u] if v > u]


def test_adjacency_symmetric_irreflexive():
    for G in (build_unitary(12), build_circulant(CirculantSpec(9, {1, 2, 7, 8}))):
        for u in range(G.n):
            assert not G.has_edge(u, u)
            for v in range(G.n):
                assert G.has_edge(u, v) == G.has_edge(v, u)


def test_even_unitary_graphs_are_bipartite():
    # units mod an even n are odd, so every edge joins an even and an odd label
    for n in range(4, 201, 2):
        G = build_unitary(n)
        assert all((u + v) % 2 for u, v in G.edges())


def test_translation_is_automorphism():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(3, 50)
        s = rng.randint(1, n - 1)
        conn = {s, n - s} - {0}
        G = build_circulant(CirculantSpec(n, conn))
        t = rng.randint(0, n - 1)
        for _ in range(30):
            u, v = rng.randrange(n), rng.randrange(n)
            assert G.has_edge(u, v) == G.has_edge((u + t) % n, (v + t) % n)


def test_clique_translates_are_cliques():
    from totcol.oracles import maximal_cliques

    G = build_unitary(9)
    stats = maximal_cliques(G)
    for clique in stats.cliques:
        for t in range(9):
            shifted = [(v + t) % 9 for v in clique]
            for i, u in enumerate(shifted):
                for v in shifted[i + 1:]:
                    assert G.has_edge(u, v)


def test_degree_sums_are_computed_once_per_graph():
    # a graph given rows and no spec: each sum reads the rows in one pass on
    # its first access, then never
    passes = []

    class Rows(tuple):
        def __iter__(self):
            passes.append(1)
            return super().__iter__()

    G = Graph(24, Rows(circulant_rows(CirculantSpec(24, units(24)))))
    first = (G.edge_count, G.max_degree, G.regular_degree)
    assert first == (96, 8, 8) and len(passes) == 3
    passes.clear()
    assert (G.edge_count, G.max_degree, G.regular_degree) == first
    assert passes == []


def test_a_circulant_answers_from_its_spec_and_reads_no_rows(monkeypatch):
    def no_rows(spec):
        raise AssertionError("circulant_rows(%r)" % (spec,))

    monkeypatch.setattr(graphs, "circulant_rows", no_rows)
    for G in (build_unitary(24), complement(build_unitary(24)),
              build_circulant(CirculantSpec(21, {1, 3, 4, 17, 18, 20}))):
        d = G.circulant.degree
        assert (G.edge_count, G.max_degree, G.regular_degree) == (G.n * d // 2, d, d)
        assert [G.degree(u) for u in range(G.n)] == [d] * G.n
        assert len(G.edges()) == G.edge_count
        assert all(G.has_edge(u, v) for u in range(G.n) for v in G.neighbors(u))
        assert "rows" not in vars(G)
    with pytest.raises(AssertionError, match="circulant_rows"):
        G.rows


@st.composite
def circulant_specs(draw):
    """A symmetric connection set on Z_n, n from 1 on, with or without the
    generator n/2."""
    n = draw(st.integers(1, 40))
    half = draw(st.sets(st.integers(1, max(1, n // 2)), max_size=n // 2))
    return CirculantSpec(n, half | {n - s for s in half})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=circulant_specs())
@example(spec=CirculantSpec(1, set()))
@example(spec=CirculantSpec(2, {1}))
@example(spec=CirculantSpec(8, {4}))
@example(spec=CirculantSpec(8, {1, 3, 4, 5, 7}))
def test_a_circulants_answers_are_its_rows_answers(spec):
    G = build_circulant(spec)
    R = Graph(spec.n, circulant_rows(spec))  # the same graph, asked by its rows
    assert [G.neighbors(u) for u in range(G.n)] == [R.neighbors(u) for u in range(R.n)]
    assert G.edges() == R.edges()
    assert [G.degree(u) for u in range(G.n)] == [R.degree(u) for u in range(R.n)]
    assert all(G.has_edge(u, v) == R.has_edge(u, v) for u in range(G.n) for v in range(G.n))
    assert ((G.edge_count, G.max_degree, G.regular_degree)
            == (R.edge_count, R.max_degree, R.regular_degree))
    assert "rows" not in vars(G)


def test_dimacs_round_trip(tmp_path):
    # the Cayley graph's file has no circulant comment: the line grammar reads it
    for G in (build_unitary(12), build_cayley(cyclic_group(9), {1, 2, 4, 5, 7, 8})):
        path = tmp_path / "g.col"
        write_dimacs(G, path)
        H = read_dimacs(path)
        assert H == G
        first = path.read_bytes()
        write_dimacs(H, path)
        assert path.read_bytes() == first


@pytest.mark.parametrize("text", [
    # C_5{2, 3}'s five edges under C_5{1, 4}'s comment: same count
    "c circulant 5 1 4\np edge 5 5\ne 1 3\ne 2 4\ne 3 5\ne 1 4\ne 2 5\n",
    # differences all in the connection set, but two of C_6{1, 5}'s six edges
    "c circulant 6 1 5\np edge 6 2\ne 1 2\ne 2 3\n",
    # a comment of another order
    "c circulant 4 1 3\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
], ids=["other-differences", "missing-edges", "other-order"])
def test_dimacs_rejects_a_circulant_comment_that_disagrees(tmp_path, text):
    path = tmp_path / "bad.col"
    path.write_text(text)
    with pytest.raises(GraphError, match="circulant comment inconsistent with edge list"):
        read_dimacs(path)


def test_dimacs_circulant_comment_after_the_edges(tmp_path):
    path = tmp_path / "c6.col"
    path.write_text("p edge 6 6\n" + "".join("e %d %d\n" % (i + 1, (i + 1) % 6 + 1)
                                             for i in range(6)) + "c circulant 6 1 5\n")
    assert read_dimacs(path).rows == build_circulant(CirculantSpec(6, {1, 5})).rows


def test_dimacs_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 3 1\ne 1 9\n")
    with pytest.raises(GraphError):
        read_dimacs(bad)
