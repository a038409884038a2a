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
    res = color_unitary_even(24)
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
    res = color_unitary_even(24)
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


def test_color_count_examples():
    assert color_unitary_even(24).coloring.colors_used() == 9
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
    c = color_unitary_even(24).coloring
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


def test_parse_matrix_rejects_asymmetric():
    with pytest.raises(ColoringError):
        parse_matrix([[1, 2], [3, 1]])


def test_coloring_file_round_trip(tmp_path):
    c = color_unitary_even(24).coloring
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
    m = render_matrix(G, color_unitary_even(24).coloring)
    path = tmp_path / "m.csv"
    matrix_to_csv(m, path)
    back = matrix_from_csv(path)
    assert back.grid == m.grid
