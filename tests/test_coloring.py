import itertools
import random

import pytest

from totcol.coloring import (
    ColoringError,
    TotalColoring,
    ekey,
    matrix_from_csv,
    matrix_to_csv,
    parse_matrix,
    read_coloring,
    render_matrix,
    verify_total,
    write_coloring,
)
from totcol.constructions import color_unitary_even
from totcol.graphs import CirculantSpec, build_circulant, build_unitary, subgraph_of_edges


def brute_force_conflicts(G, c):
    """Independent pairwise scan over all colored item pairs."""
    items = [("v", v, c.vertex_color[v]) for v in sorted(c.vertex_color)]
    items += [("e", e, c.edge_color[e]) for e in sorted(c.edge_color)]
    count = 0
    for (k1, a, c1), (k2, b, c2) in itertools.combinations(items, 2):
        if c1 != c2:
            continue
        if k1 == "v" and k2 == "v" and G.has_edge(a, b):
            count += 1
        elif k1 == "e" and k2 == "e" and set(a) & set(b):
            count += 1
        elif k1 == "v" and k2 == "e" and a in b:
            count += 1
        elif k1 == "e" and k2 == "v" and b in a:
            count += 1
    return count


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return subgraph_of_edges(n, edges)


def greedy_total_coloring(G):
    c = TotalColoring(G.n)
    items = [("v", v) for v in range(G.n)] + [("e", e) for e in G.edges()]
    for kind, x in items:
        used = set()
        if kind == "v":
            for u in G.neighbors(x):
                used.add(c.vertex_color.get(u))
                used.add(c.edge_color.get(ekey(x, u)))
        else:
            u, v = x
            used.update((c.vertex_color.get(u), c.vertex_color.get(v)))
            for w in (u, v):
                for y in G.neighbors(w):
                    used.add(c.edge_color.get(ekey(w, y)))
        col = 1
        while col in used:
            col += 1
        if kind == "v":
            c.vertex_color[x] = col
        else:
            c.edge_color[x] = col
    return c


def test_verify_table4_coloring_clean():
    G = build_unitary(24)
    res = color_unitary_even(G)
    report = verify_total(G, res.coloring)
    assert report.ok
    assert report.colors_used == 9


def test_verify_k1():
    G = subgraph_of_edges(1, [])
    c = TotalColoring(1, {0: 1}, {})
    report = verify_total(G, c)
    assert report.ok and report.colors_used == 1


def test_verify_detects_recolored_edge():
    G = build_unitary(24)
    res = color_unitary_even(G)
    assert res.coloring.vertex_color[0] == 1
    corrupted = TotalColoring(24, dict(res.coloring.vertex_color),
                              dict(res.coloring.edge_color))
    corrupted.edge_color[(0, 1)] = 1
    report = verify_total(G, corrupted)
    assert not report.ok
    assert ("vertex-edge", 0, (0, 1)) in report.conflicts


def test_verify_reports_coverage_separately():
    G = build_circulant(CirculantSpec(4, {1, 3}))
    c = TotalColoring(4, {0: 1, 1: 2, 2: 1, 3: 2}, {(0, 1): 3})
    report = verify_total(G, c)
    assert not report.ok
    assert any(e[0] == "missing-edge" for e in report.coverage_errors)
    c.edge_color[(0, 2)] = 4  # not an edge of C_4
    report = verify_total(G, c)
    assert any(e[0] == "non-edge" for e in report.coverage_errors)


def test_verify_matches_brute_force_scan():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 12)
        G = random_graph(rng, n)
        c = greedy_total_coloring(G)
        # randomly break it sometimes
        if rng.random() < 0.6 and c.edge_color:
            e = rng.choice(sorted(c.edge_color))
            c.edge_color[e] = rng.randint(1, 4)
        report = verify_total(G, c)
        assert len(report.conflicts) == brute_force_conflicts(G, c)
        assert report.ok == (brute_force_conflicts(G, c) == 0)


def pairwise_verify_total(G, c):
    """The pairwise-scan verifier that the star check replaced, kept as the
    reference: it tries every pair of edges at each vertex, O(sum deg^2)."""
    coverage = []
    if c.n != G.n:
        coverage.append(("size-mismatch", c.n, G.n))
    for v in range(G.n):
        if v not in c.vertex_color:
            coverage.append(("missing-vertex", v))
    for v in c.vertex_color:
        if not (0 <= v < G.n):
            coverage.append(("extra-vertex", v))
    edges = set(map(tuple, G.edges()))
    for e in edges:
        if e not in c.edge_color:
            coverage.append(("missing-edge", e))
    for e in c.edge_color:
        if tuple(e) not in edges:
            coverage.append(("non-edge", tuple(e)))
    coverage.sort(key=repr)

    conflicts = []
    for (u, v) in sorted(edges):
        cu, cv = c.vertex_color.get(u), c.vertex_color.get(v)
        if cu is not None and cu == cv:
            conflicts.append(("vertex-vertex", u, v))
        ce = c.edge_color.get((u, v))
        if ce is not None:
            if ce == cu:
                conflicts.append(("vertex-edge", u, (u, v)))
            if ce == cv:
                conflicts.append(("vertex-edge", v, (u, v)))
    for w in range(G.n):
        nbrs = G.neighbors(w)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                e1 = ekey(w, nbrs[i])
                e2 = ekey(w, nbrs[j])
                c1, c2 = c.edge_color.get(e1), c.edge_color.get(e2)
                if c1 is not None and c1 == c2:
                    a, b = sorted((e1, e2))
                    conflicts.append(("edge-edge", a, b, w))
    conflicts = sorted(set(conflicts), key=repr)
    return conflicts, coverage, c.colors_used()


def corrupted_coloring(rng, G):
    """A proper total coloring of G with random damage: recolored vertices
    and edges, missing vertices and edges, non-edges, out-of-range vertices
    and, now and then, the wrong vertex count."""
    c = greedy_total_coloring(G)
    top = max([*c.vertex_color.values(), *c.edge_color.values(), 1])
    damage = rng.randint(0, 6)
    edges = sorted(c.edge_color)
    for _ in range(damage):
        kind = rng.randrange(6)
        if kind == 0 and edges:
            c.edge_color[rng.choice(edges)] = rng.randint(1, top)
        elif kind == 1:
            c.vertex_color[rng.randrange(G.n)] = rng.randint(1, top)
        elif kind == 2:
            c.vertex_color.pop(rng.randrange(G.n), None)
        elif kind == 3 and edges:
            c.edge_color.pop(rng.choice(edges), None)
        elif kind == 4:
            u, v = rng.randrange(G.n), rng.randrange(G.n)
            if u != v and not G.has_edge(u, v):
                c.set_edge(u, v, rng.randint(1, top))
        else:
            c.vertex_color[rng.choice([-1, G.n, G.n + 5])] = rng.randint(1, top)
    if rng.random() < 0.05:
        c.n += 1
    return c


def test_star_check_matches_pairwise_reference():
    rng = random.Random(41)
    flagged = 0
    for _ in range(300):
        n = rng.randint(2, 39)
        half = [s for s in range(1, n // 2 + 1) if rng.random() < 0.35]
        G = build_circulant(CirculantSpec(n, set(half) | {n - s for s in half}))
        c = corrupted_coloring(rng, G)
        report = verify_total(G, c)
        assert (report.conflicts, report.coverage_errors, report.colors_used) == \
            pairwise_verify_total(G, c)
        flagged += any(x[0] == "edge-edge" for x in report.conflicts)
    assert flagged >= 50  # the damage does reach the star check


def test_star_check_reports_every_pair_of_a_repeated_color():
    # all edges of K_4 colored 1: each vertex's star holds three pairs
    G = subgraph_of_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    c = TotalColoring(4, {v: v + 2 for v in range(4)}, {e: 1 for e in G.edges()})
    report = verify_total(G, c)
    assert len(report.conflicts) == 12
    assert (report.conflicts, report.coverage_errors, report.colors_used) == \
        pairwise_verify_total(G, c)


def test_color_count_examples():
    assert color_unitary_even(build_unitary(24)).coloring.colors_used() == 9
    assert TotalColoring(1, {0: 1}, {}).colors_used() == 1
    k3 = TotalColoring(3, {0: 1, 1: 2, 2: 3}, {(0, 1): 3, (1, 2): 1, (0, 2): 2})
    assert k3.colors_used() == 3


def test_residue_classes_independent_iff_no_generator_divisible():
    rng = random.Random(9)
    trials = 0
    while trials < 30:
        n = rng.randint(6, 60)
        divisors = [q for q in range(2, n) if n % q == 0]
        if not divisors:
            continue
        q = rng.choice(divisors)
        s = rng.randint(1, n - 1)
        conn = {s, n - s}
        G = build_circulant(CirculantSpec(n, conn))
        independent = not any(G.has_edge(u, v) for u in range(n)
                              for v in range(u + q, n, q))
        assert independent == all(g % q != 0 for g in conn)
        trials += 1


def test_matrix_round_trip_u24():
    G = build_unitary(24)
    c = color_unitary_even(G).coloring
    m = render_matrix(G, c)
    back = parse_matrix(m.grid)
    assert back.vertex_color == c.vertex_color
    assert back.edge_color == c.edge_color


def test_matrix_round_trip_randomized():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 10)
        G = random_graph(rng, n)
        c = greedy_total_coloring(G)
        back = parse_matrix(render_matrix(G, c).grid)
        assert back.vertex_color == c.vertex_color
        assert back.edge_color == c.edge_color


def test_matrix_k1():
    G = subgraph_of_edges(1, [])
    m = render_matrix(G, TotalColoring(1, {0: 7}, {}))
    assert m.grid == [[7]]


def test_render_matrix_rejects_what_verify_reports_as_coverage():
    G = build_circulant(CirculantSpec(5, {1, 4}))
    c = greedy_total_coloring(G)
    del c.edge_color[(0, 1)]
    c.vertex_color[7] = 1
    expected = verify_total(G, c).coverage_errors
    assert expected == [("extra-vertex", 7), ("missing-edge", (0, 1))]
    with pytest.raises(ColoringError) as exc:
        render_matrix(G, c)
    assert str(exc.value) == "coverage errors: %r" % expected[:5]


def test_parse_matrix_rejects_asymmetric():
    with pytest.raises(ColoringError):
        parse_matrix([[1, 2], [3, 1]])


def test_coloring_file_round_trip(tmp_path):
    c = color_unitary_even(build_unitary(24)).coloring
    path = tmp_path / "u24.tc"
    write_coloring(c, path)
    back = read_coloring(path)
    assert back.n == c.n
    assert back.vertex_color == c.vertex_color
    assert back.edge_color == c.edge_color
    first = path.read_bytes()
    write_coloring(back, path)
    assert path.read_bytes() == first


def test_matrix_csv_round_trip(tmp_path):
    G = build_unitary(24)
    m = render_matrix(G, color_unitary_even(G).coloring)
    path = tmp_path / "m.csv"
    matrix_to_csv(m, path)
    back = matrix_from_csv(path)
    assert back.grid == m.grid
