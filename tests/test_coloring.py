import functools
import itertools
import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from totcol import graphs
from totcol.coloring import (
    ColoringError,
    ColumnColoring,
    TotalColoring,
    VerificationReport,
    ekey,
    matrix_from_csv,
    matrix_to_csv,
    parse_matrix,
    read_coloring,
    read_matrix,
    render_matrix,
    verify_total,
    write_coloring,
)
from totcol.constructions import (
    ConstructionResult,
    OddCirculantResult,
    StarterPairing,
    color_unitary_even,
)
from totcol.graphs import (
    CirculantSpec,
    Graph,
    GroupTable,
    build_circulant,
    build_unitary,
    subgraph_of_edges,
)
from totcol.oracles import Classification, SearchBudget


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
    and edges, missing vertices and edges, non-edges, out-of-range vertices,
    keys that are no edge (reversed, out of range, self-loops, length 3),
    edges whose color is None and, now and then, the wrong vertex count."""
    c = greedy_total_coloring(G)
    top = max([*c.vertex_color.values(), *c.edge_color.values(), 1])
    damage = rng.randint(0, 6)
    edges = sorted(c.edge_color)
    for _ in range(damage):
        kind = rng.randrange(11)
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
        elif kind == 5:
            c.vertex_color[rng.choice([-1, G.n, G.n + 5])] = rng.randint(1, top)
        elif kind == 6 and edges:
            u, v = rng.choice(edges)
            c.edge_color[(v, u)] = rng.randint(1, top)
        elif kind == 7:
            u = rng.randrange(G.n)
            key = rng.choice([(u, G.n), (-1, u), (u, G.n + 3), (G.n, G.n + 2)])
            c.edge_color[key] = rng.randint(1, top)
        elif kind == 8:
            u = rng.randrange(G.n)
            c.edge_color[(u, u)] = rng.randint(1, top)
        elif kind == 9 and edges:
            c.edge_color[rng.choice(edges) + (0,)] = rng.randint(1, top)
        elif kind == 10 and edges:
            c.edge_color[rng.choice(edges)] = None
    if rng.random() < 0.05:
        c.n += 1
    return c


def test_star_check_matches_pairwise_reference():
    rng = random.Random(41)
    flagged = odd_keys = 0
    for trial in range(600):
        n = rng.randint(2, 39)
        if trial % 2:
            G = random_graph(rng, min(n, 16), rng.random())
        else:
            half = [s for s in range(1, n // 2 + 1) if rng.random() < 0.35]
            G = build_circulant(CirculantSpec(n, set(half) | {n - s for s in half}))
        c = corrupted_coloring(rng, G)
        report = verify_total(G, c)
        assert (report.conflicts, report.coverage_errors, report.colors_used) == \
            pairwise_verify_total(G, c)
        flagged += any(x[0] == "edge-edge" for x in report.conflicts)
        odd_keys += any(x[0] == "non-edge" and (len(x[1]) != 2
                                                or not 0 <= x[1][0] < x[1][1] < G.n)
                        for x in report.coverage_errors)
    assert flagged >= 50  # the damage does reach the star check
    assert odd_keys >= 50  # and keys that are not (u, v) with u < v < n


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


def test_records_compare_by_value_and_keep_their_fields(monkeypatch):
    spec = CirculantSpec(5, [1, 4])
    # a ConstructionError text embeds this repr
    assert repr(spec) == "CirculantSpec(n=5, connection=frozenset({1, 4}))"
    G = build_circulant(spec)
    table = GroupTable(2, [[0, 1], [1, 0]], 0)
    triples = [
        (spec, CirculantSpec(5, {4, 1}), CirculantSpec(5, [2, 3])),
        (G, build_circulant(CirculantSpec(5, (4, 1))), Graph(G.n, G.rows)),
        (table, GroupTable(2, ((0, 1), (1, 0)), 0), GroupTable(1, [[0]], 0)),
    ]
    for a, same, other in triples:
        assert a is not same and a == same and hash(a) == hash(same)
        assert a != other and hash(a) != hash(other)
    for record, field in [(spec, "n"), (G, "rows"), (table, "identity")]:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) is before

    # a circulant is compared, hashed and shown by its spec, with no rows
    # built; a graph of rows is shown by its edge count, not its rows
    def built(spec):
        raise AssertionError("built the rows of %r" % (spec,))

    monkeypatch.setattr(graphs, "circulant_rows", built)
    big, same = (build_circulant(CirculantSpec(40001, [1, 40000])) for _ in range(2))
    assert big == same and hash(big) == hash(same)
    assert big != build_circulant(CirculantSpec(40001, [2, 39999]))
    assert repr(big) == "Graph(n=40001, circulant=%r)" % (big.circulant,)
    path = subgraph_of_edges(20000, [(v, v + 1) for v in range(19999)])
    assert repr(path) == "Graph(n=20000, edge_count=19999)"

    a, b = TotalColoring(3), TotalColoring(3)
    a.vertex_color[0] = 1
    a.set_edge(1, 0, 2)
    assert (b.vertex_color, b.edge_color) == ({}, {})
    assert TotalColoring(n=3, edge_color={(0, 1): 2}) == TotalColoring(3, {}, {(0, 1): 2})
    assert a == TotalColoring(3, {0: 1}, {(0, 1): 2}) != b
    assert VerificationReport([], [], 3).ok
    assert not VerificationReport([("vertex-vertex", 0, 1)], [], 3).ok
    assert not VerificationReport([], [("missing-vertex", 2)], 3).ok

    res = ConstructionResult(a, ["note"])
    assert repr(res) == "ConstructionResult(coloring=%r, notes=['note'])" % (a,)
    assert res == ConstructionResult(TotalColoring(3, {0: 1}, {(0, 1): 2}), ["note"])
    assert res != ConstructionResult(a, []) and res != OddCirculantResult(a, ["note"], "literal")
    cls = Classification("type2", 4, None, 6, 0, 0, "complete", "complete-bipartite", "d")
    assert repr(cls) == (
        "Classification(kind='type2', delta=4, certificate=None, value=6, nodes=0, "
        "conformability_steps=0, lower_evidence='complete', "
        "upper_evidence='complete-bipartite', detail='d')")
    assert cls == Classification("type2", 4, None, 6, 0, 0, "complete",
                                 "complete-bipartite", "d")
    assert cls != Classification("type2", 4, None, 6, 1, 0, "complete",
                                 "complete-bipartite", "d")
    for mutable in (a, VerificationReport([], [], 3), res, cls, SearchBudget()):
        with pytest.raises(TypeError):
            hash(mutable)
    res.notes = ["changed"]
    assert res.notes == ["changed"]

    pairing = StarterPairing(5, ((1, (2, 1)),))
    assert pairing == StarterPairing(5, ((1, (2, 1)),)) != StarterPairing(7, ((1, (2, 1)),))
    assert hash(pairing) == hash(StarterPairing(5, ((1, (2, 1)),)))
    with pytest.raises(AttributeError):
        pairing.q = 7
    assert pairing.q == 5

    for make in (lambda: ConstructionResult(a), lambda: StarterPairing(5, (), 1),
                 lambda: VerificationReport([], []), lambda: OddCirculantResult(a, [])):
        with pytest.raises(TypeError):
            make()

    assert SearchBudget() == SearchBudget(50_000_000, 600.0)
    assert SearchBudget(node_limit=5) == SearchBudget(5, 600.0)
    assert SearchBudget(time_limit_secs=1.5).time_limit_secs == 1.5


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
    back = parse_matrix(render_matrix(G, c))
    assert back.vertex_color == c.vertex_color
    assert back.edge_color == c.edge_color


def test_matrix_round_trip_randomized():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 10)
        G = random_graph(rng, n)
        c = greedy_total_coloring(G)
        back = parse_matrix(render_matrix(G, c))
        assert back.vertex_color == c.vertex_color
        assert back.edge_color == c.edge_color


def test_matrix_k1():
    G = subgraph_of_edges(1, [])
    assert render_matrix(G, TotalColoring(1, {0: 7}, {})) == [[7]]


def test_parse_matrix_rejects_asymmetric():
    with pytest.raises(ColoringError):
        parse_matrix([[1, 2], [3, 1]])


def test_parse_matrix_names_the_first_fault_in_walk_order():
    # (0, 1) is symmetric but not a color, and comes before the asymmetric
    # pair (1, 2): int() names it, as the pair-by-pair walk always did
    with pytest.raises(ValueError) as info:
        parse_matrix([[1, "x", None], ["x", 2, 3], [None, 4, 3]])
    assert type(info.value) is ValueError
    assert str(info.value) == "invalid literal for int() with base 10: 'x'"
    # the same cell after the asymmetric pair: the pair is named
    with pytest.raises(ColoringError) as info:
        parse_matrix([[1, 2, None], [3, 2, "x"], [None, "x", 3]])
    assert str(info.value) == "grid asymmetric at (0,1)"
    # a symmetric grid with a bad cell fails on that cell
    with pytest.raises(ValueError) as info:
        parse_matrix([[1, 2, None], [2, 2, "y"], [None, "y", 3]])
    assert str(info.value) == "invalid literal for int() with base 10: 'y'"


def test_parse_matrix_reads_a_grid_of_tuples_like_one_of_lists():
    # rows that are not lists never equal the transposed lists, so they take
    # the pair-by-pair walk, to the same coloring
    G = build_unitary(24)
    grid = render_matrix(G, color_unitary_even(G).coloring)
    by_pairs = parse_matrix([tuple(row) for row in grid])
    at_once = parse_matrix(grid)
    assert list(by_pairs.vertex_color.items()) == list(at_once.vertex_color.items())
    assert list(by_pairs.edge_color.items()) == list(at_once.edge_color.items())


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
    grid = render_matrix(G, color_unitary_even(G).coloring)
    path = tmp_path / "m.csv"
    matrix_to_csv(grid, path)
    assert matrix_from_csv(path) == grid


def test_matrix_csv_error_names_the_line(tmp_path):
    # of two bad cells, the first names its line
    path = tmp_path / "m.csv"
    path.write_text(",0,1,2\n0,1,2,\n1,2,3,x\n2,,x,4\n")
    with pytest.raises(ColoringError) as info:
        matrix_from_csv(path)
    assert str(info.value) == "line 3: invalid literal for int() with base 10: 'x'"


def test_matrix_csv_refuses_a_header_above_the_cap_before_the_rows(tmp_path):
    # the rows after the header end in a byte that is not UTF-8, which a
    # read of the whole file would report first
    path = tmp_path / "m.csv"
    path.write_bytes(b"," + b",".join(b"%d" % v for v in range(5000)) + b"\n"
                     + b"0,1\n" * 20000 + b"\xff\n")
    with pytest.raises(ColoringError) as info:
        matrix_from_csv(path)
    assert str(info.value) == "matrix of 5000 vertices, above 4096, the most a color matrix holds"


@functools.lru_cache(maxsize=None)
def _colored_circulants():
    """(G, its rendered coloring) for every circulant C_n(S) with n <= 24
    that color_auto colors."""
    from totcol.constructions import ConstructionError, color_auto

    out = []
    for n in range(1, 25):
        for size in range(n // 2 + 1):
            for half in itertools.combinations(range(1, n // 2 + 1), size):
                G = build_circulant(CirculantSpec(n, sorted({*half, *(n - s for s in half)})))
                try:
                    _, c, _, _ = color_auto(G)
                except ConstructionError:
                    continue
                out.append((G, render_matrix(G, c)))
    return out


def test_read_matrix_reads_every_clean_circulant_matrix_by_columns(tmp_path):
    # the column coloring is clean with no hand-over, and its dicts are
    # parse_matrix's
    path = tmp_path / "m.csv"
    assert len(_colored_circulants()) == 723
    for G, grid in _colored_circulants():
        matrix_to_csv(grid, path)
        c = read_matrix(path, G)
        assert type(c) is ColumnColoring
        assert verify_total(G, c).ok and type(c) is ColumnColoring
        assert c == parse_matrix(matrix_from_csv(path))
        assert type(read_matrix(path)) is TotalColoring


_MATRIX_EDITS = st.lists(st.tuples(
    st.sampled_from(["recolor-pair", "recolor-cell", "blank-pair", "fill-non-edge",
                     "blank-diagonal", "recolor-diagonal"]),
    st.integers(0, 1 << 16), st.integers(0, 1 << 16)), min_size=1, max_size=3)


def _edited(G, grid, edits):
    """A copy of the rendered grid of G with the edits applied: each picks
    an edge, a non-edge or a vertex by `at`, and a color of 1..k+1 (k the
    largest in the grid) or, for recolor-cell, one cell of the pair, by x."""
    grid = [list(row) for row in grid]
    n, edges = G.n, G.edges()
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not G.has_edge(u, v)]
    k = max(filter(None, itertools.chain.from_iterable(grid)))
    for kind, at, x in edits:
        color = 1 + x // 2 % (k + 1)
        if kind.endswith("diagonal"):
            grid[at % n][at % n] = None if kind == "blank-diagonal" else color
            continue
        pairs = non_edges if kind == "fill-non-edge" else edges
        if not pairs:
            continue
        u, v = pairs[at % len(pairs)]
        if kind == "recolor-cell":
            (u, v) = (u, v) if x % 2 else (v, u)
            grid[u][v] = color
        else:
            grid[u][v] = grid[v][u] = None if kind == "blank-pair" else color
    return grid


def _csv_outcome(G, read):
    """verify_total's report of what read() returns, or the text of the
    ColoringError it raises."""
    try:
        c = read()
    except ColoringError as exc:
        return str(exc)
    return verify_total(G, c)


def test_read_matrix_checks_the_diagonal_beside_the_cell_count(tmp_path):
    # two blank vertices and one filled non-edge pair leave n + 2m cells
    # filled, as a clean matrix has
    G, grid = next((G, grid) for G, grid in _colored_circulants()
                   if G.circulant == CirculantSpec(21, [1, 2, 3, 18, 19, 20]))
    path = tmp_path / "m.csv"
    matrix_to_csv(_edited(G, grid, [("blank-diagonal", 0, 0), ("blank-diagonal", 1, 0),
                                    ("fill-non-edge", 0, 0)]), path)
    assert type(read_matrix(path, G)) is TotalColoring
    report = _csv_outcome(G, lambda: read_matrix(path, G))
    assert report == _csv_outcome(G, lambda: parse_matrix(matrix_from_csv(path)))
    assert report.coverage_errors == [("missing-vertex", 0), ("missing-vertex", 1),
                                      ("non-edge", (0, 4))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, 1 << 16), edits=_MATRIX_EDITS)
def test_csv_column_and_dict_routes_agree_on_edited_matrices(which, edits):
    # recolored, half-recolored and blanked edge pairs, filled non-edge
    # pairs, blanked and recolored vertices: the same report or error text
    G, grid = _colored_circulants()[which % len(_colored_circulants())]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.csv")
        matrix_to_csv(_edited(G, grid, edits), path)
        assert (_csv_outcome(G, lambda: read_matrix(path, G))
                == _csv_outcome(G, lambda: parse_matrix(matrix_from_csv(path))))


def _thm23_half_sets(max_n, every_up_to, per_group, seed):
    """(n, half set) of the odd circulants with n <= max_n that thm2.3 takes:
    every one with n <= every_up_to, and above it a seeded sample of
    per_group for each n, Delta + 1 and strategy (literal or starter)."""
    from totcol.constructions import _star_conflicts, patterned_starts

    rng = random.Random(seed)
    out = []
    for n in range(3, max_n + 1, 2):
        for q in range(3, n + 1, 2):
            if n % q:
                continue
            taken = [half for half in itertools.combinations(range(1, (n + 1) // 2), (q - 1) // 2)
                     if all(s % q for s in half) and len({s % q for s in half}) == len(half)]
            if n > every_up_to:
                rng.shuffle(taken)
                groups = ([], [])
                for half in taken:
                    group = groups[_star_conflicts(q, patterned_starts(q, half)) == 0]
                    if len(group) < per_group:
                        group.append(half)
                    if min(map(len, groups)) == per_group:
                        break
                taken = groups[0] + groups[1]
            out += [(n, half) for half in taken]
    return out


def _handed_over(c):
    """A copy of the column coloring c that has handed itself over to dicts."""
    d = ColumnColoring(c.n, c.conn, c.vcol, c.cols)
    assert d.edge_color is not None and type(d) is TotalColoring
    return d


def _recolored(c, which, i, color):
    """c with one entry of its columns recolored: vertex i if which is None,
    else entry i of column which."""
    vcol, cols = list(c.vcol), list(c.cols)
    if which is None:
        vcol[i] = color
    else:
        cols[which] = cols[which][:i] + [color] + cols[which][i + 1:]
    return ColumnColoring(c.n, c.conn, vcol, cols)


def _assert_paths_agree(G, c, rng, tmp_path):
    """The column coloring c of G, which verify_total accepts, and its dict
    hand-over are written to the same bytes, rendered to the same grid and
    verified to equal reports, clean and after one seeded recoloring of the
    vertex list and of each column."""
    assert type(c) is ColumnColoring
    d = _handed_over(c)
    write_coloring(c, tmp_path / "columns.tc")
    write_coloring(d, tmp_path / "dicts.tc")
    assert (tmp_path / "columns.tc").read_bytes() == (tmp_path / "dicts.tc").read_bytes()
    assert render_matrix(G, c) == render_matrix(G, d)
    k = c.colors_used()
    assert verify_total(G, c) == verify_total(G, d) == VerificationReport([], [], k)
    assert type(c) is ColumnColoring  # rendering and a clean check keep the columns
    for which in [None] + list(range(len(c.cols))):
        size = c.n if which is None else len(c.cols[which])
        i = rng.randrange(size)
        old = c.vcol[i] if which is None else c.cols[which][i]
        recolored = _recolored(c, which, i, rng.choice([x for x in range(1, k + 2) if x != old]))
        expected = verify_total(G, _handed_over(recolored))
        assert verify_total(G, recolored) == expected


def test_column_and_dict_paths_agree_on_thm23_colorings(tmp_path):
    # Every odd circulant with n <= 31 that thm2.3 takes (473), and a sample
    # of each (n, Delta + 1, strategy) up to n = 45: all 62 970 would take
    # minutes.
    from totcol.constructions import color_odd_circulant

    rng = random.Random(31)
    strategies = set()
    cases = _thm23_half_sets(45, 31, 3, seed=31)
    assert len(cases) > 473
    for n, half in cases:
        G = build_circulant(CirculantSpec(n, list(half) + [n - s for s in half]))
        res = color_odd_circulant(G)
        strategies.add(res.strategy)
        assert res.coloring.colors_used() == 2 * len(half) + 1
        _assert_paths_agree(G, res.coloring, rng, tmp_path)
    assert strategies == {"literal", "starter"}


def _layered_cases(method):
    """The graphs of the agreement test of the layered fill with a
    parity-layer remainder: for thm2.2 every U_n with n <= 120 even and not
    a power of two, for thm2.5 every circulant with n <= 22 that it takes
    (507), and C_30{±1..±10}."""
    if method == "thm2.2":
        return [build_unitary(n) for n in range(6, 121, 2) if n & (n - 1)]
    dense = [(30, range(1, 11))]
    for n in (6, 10, 14, 18, 22):
        for size in range((n + 2) // 4, n // 2):
            dense += [(n, half) for half in itertools.combinations(range(1, n // 2), size)]
    assert len(dense) == 508
    return [build_circulant(CirculantSpec(n, list(half) + [n - s for s in half]))
            for n, half in dense]


@pytest.mark.parametrize("method", ["thm2.2", "thm2.5"])
def test_column_and_dict_paths_agree_on_layered_colorings(tmp_path, method):
    # the fill's columns and the parity-layer remainder's, as in thm2.3's test
    from totcol.constructions import METHODS

    rng = random.Random(33)
    for G in _layered_cases(method):
        c = METHODS[method](G).coloring
        assert c.colors_used() == G.max_degree + 1
        _assert_paths_agree(G, c, rng, tmp_path)


def test_a_column_coloring_of_another_graph_takes_the_dict_path():
    # the columns are read only against the circulant they color: any other
    # graph, even one with the same edges, gets the dict path's report
    from totcol.constructions import fill_diagonals, patterned_starts

    def filled():
        return fill_diagonals(21, 7, patterned_starts(7, [1, 2, 3]))

    same = build_circulant(CirculantSpec(21, [1, 2, 3, 18, 19, 20]))
    for G in (subgraph_of_edges(21, same.edges()),
              build_circulant(CirculantSpec(21, [1, 2, 4, 17, 19, 20])),
              build_circulant(CirculantSpec(22, [1, 2, 3, 19, 20, 21]))):
        c = filled()
        d = filled()
        d.vertex_color  # hands d over to its dicts
        assert verify_total(G, c) == verify_total(G, d)
        assert type(c) is TotalColoring
    c = filled()
    assert verify_total(same, c).ok and type(c) is ColumnColoring
    # == hands a column coloring over, so it compares equal to its dicts
    assert c == d and filled() == c
    assert not verify_total(subgraph_of_edges(21, same.edges()[1:]), filled()).ok
