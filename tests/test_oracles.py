import inspect
import itertools
import math
import random
import sys

import pytest

from totcol import constructions, oracles
from totcol.coloring import TotalColoring, ekey, read_coloring, verify_total, write_coloring
from totcol.graphs import (
    CirculantSpec,
    GroupTable,
    build_cayley,
    build_circulant,
    build_unitary,
    subgraph_of_edges,
)
from totcol.oracles import (
    BudgetExhausted,
    OracleError,
    SearchBudget,
    classify_type,
    conformable_exists,
    exact_chromatic,
    exact_total_chromatic,
    is_perfect,
    maximal_cliques,
    total_items,
)


def petersen():
    edges = []
    for i in range(5):
        edges.append(tuple(sorted((i, (i + 1) % 5))))
        edges.append((i, i + 5))
        edges.append(tuple(sorted((5 + i, 5 + (i + 2) % 5))))
    return subgraph_of_edges(10, edges)


def complete(n):
    return subgraph_of_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_total_chromatic_c4():
    G = build_circulant(CirculantSpec(4, {1, 3}))
    res = exact_total_chromatic(G)
    assert res.value == 4
    assert verify_total(G, res.coloring).ok


def test_total_chromatic_k3():
    res = exact_total_chromatic(complete(3))
    assert res.value == 3


def test_total_chromatic_u9():
    G = build_unitary(9)
    res = exact_total_chromatic(G)
    assert res.value == 7  # Delta + 1: type I
    assert verify_total(G, res.coloring).ok


def test_total_chromatic_budget_is_explicit():
    G = build_unitary(9)
    res = exact_total_chromatic(G, SearchBudget(node_limit=5))
    assert res.status == "inconclusive"
    assert res.value is None


def test_exact_chromatic_examples():
    assert exact_chromatic(build_unitary(9))[0] == 3
    assert exact_chromatic(build_circulant(CirculantSpec(5, {1, 4})))[0] == 3
    assert exact_chromatic(petersen())[0] == 3


def test_maximal_cliques_z9_dense():
    G = build_circulant(CirculantSpec(9, {1, 2, 3, 6, 7, 8}))
    stats = maximal_cliques(G)
    assert stats.omega == 4
    assert stats.maximum_count == 9  # the translates {i..i+3}
    assert stats.maximal_count == 12  # plus the three {i, i+3, i+6} triangles
    for cl in stats.cliques:
        for i, u in enumerate(cl):
            for v in cl[i + 1:]:
                assert G.has_edge(u, v)


def test_maximal_cliques_small():
    assert maximal_cliques(complete(4)).maximal_count == 1
    c5 = build_circulant(CirculantSpec(5, {1, 4}))
    stats = maximal_cliques(c5)
    assert stats.maximal_count == 5 and stats.omega == 2


def reference_maximal_cliques(G):
    """The enumeration on Python sets: the same pivot rule (most candidates
    in N(u), then least u) and branch order as maximal_cliques' bitmasks."""
    out = []
    nbr = [set(G.neighbors(v)) for v in range(G.n)]
    stack = []

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            out.append(tuple(sorted(clique)))
            return
        pivot = max(candidates | excluded, key=lambda u: (len(candidates & nbr[u]), -u))
        stack.append((clique, candidates, excluded, iter(sorted(candidates - nbr[pivot]))))

    if G.n:
        expand([], set(range(G.n)), set())
    while stack:
        clique, candidates, excluded, branches = stack[-1]
        v = next(branches, None)
        if v is None:
            stack.pop()
            continue
        expand(clique + [v], candidates & nbr[v], excluded & nbr[v])
        candidates.discard(v)
        excluded.add(v)
    out.sort()
    omega = max((len(c) for c in out), default=0)
    return out, omega, len(out), sum(1 for c in out if len(c) == omega)


def test_maximal_cliques_match_the_set_reference():
    rng = random.Random(2006)
    graphs = [complete(n) for n in range(0, 9)]
    # Moon-Moser: C_3m without +-m is K_{3,...,3}, with 3^m maximal cliques
    graphs += [build_circulant(CirculantSpec(3 * m, set(range(1, 3 * m)) - {m, 2 * m}))
               for m in range(1, 5)]
    for _ in range(150):
        n = rng.randint(1, 14)
        p = rng.random()
        graphs.append(subgraph_of_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                            if rng.random() < p]))
    for G in graphs:
        stats = maximal_cliques(G)
        assert (stats.cliques, stats.omega, stats.maximal_count, stats.maximum_count) == \
            reference_maximal_cliques(G)
    assert maximal_cliques(graphs[9 + 3]).maximal_count == 3 ** 4


def test_maximal_cliques_honours_its_budget():
    # Moon-Moser K_{3,3,3}: the root, 3 + 9 inner nodes and 27 leaves
    G = build_circulant(CirculantSpec(9, {1, 2, 4, 5, 7, 8}))
    unbounded = maximal_cliques(G)
    assert unbounded.maximal_count == 27
    assert maximal_cliques(G, SearchBudget(node_limit=40)) == unbounded
    with pytest.raises(BudgetExhausted, match="after 39 nodes"):
        maximal_cliques(G, SearchBudget(node_limit=39))
    with pytest.raises(BudgetExhausted, match="after 1 nodes"):
        maximal_cliques(G, SearchBudget(node_limit=1))


def test_total_items_asks_for_each_neighbour_list_once(monkeypatch):
    G = build_unitary(9)
    calls = []
    neighbors = type(G).neighbors

    def counted(self, u):
        calls.append(u)
        return neighbors(self, u)

    monkeypatch.setattr(type(G), "neighbors", counted)
    total_items(G)
    assert sorted(calls) == list(range(G.n))


def test_maximal_cliques_of_k600_is_one_clique():
    # one pivot scan per level over bitmasks, not set intersections
    stats = maximal_cliques(build_circulant(CirculantSpec(600, range(1, 600))))
    assert stats.cliques == [tuple(range(600))]
    assert (stats.omega, stats.maximal_count, stats.maximum_count) == (600, 1, 1)


def test_maximal_cliques_runs_deeper_than_the_recursion_limit():
    # K_100 is one clique, one branch level per vertex; the enumeration runs
    # 60 frames above this one
    k100 = complete(100)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        stats = maximal_cliques(k100)
    finally:
        sys.setrecursionlimit(limit)
    assert stats.cliques == [tuple(range(100))]
    assert stats.omega == 100 and stats.maximum_count == 1


def test_is_perfect_examples():
    assert not is_perfect(build_circulant(CirculantSpec(5, {1, 4})))
    assert is_perfect(build_unitary(9))
    assert is_perfect(build_circulant(CirculantSpec(6, {1, 5})))
    assert not is_perfect(build_circulant(CirculantSpec(7, {1, 6})))  # C_7 odd hole
    with pytest.raises(OracleError):
        is_perfect(subgraph_of_edges(25, [(0, 1)]))


def test_conformable_examples():
    z9 = build_circulant(CirculantSpec(9, {1, 2, 3, 6, 7, 8}))
    ok, _ = conformable_exists(z9, 7)
    assert not ok  # independence number 2 forbids odd class sizes above 1

    ok, classes = conformable_exists(complete(3), 3)
    assert ok and sorted(len(c) for c in classes) == [1, 1, 1]

    c4 = build_circulant(CirculantSpec(4, {1, 3}))
    ok, classes = conformable_exists(c4, 3)
    assert ok
    assert sorted(len(c) % 2 for c in classes) == [0, 0, 0]


def test_conformable_partitions_are_pinned():
    evens, odds = tuple(range(0, 24, 2)), tuple(range(1, 24, 2))
    assert conformable_exists(build_unitary(24), 9) == (True, [evens, odds] + [()] * 7)
    c4 = build_circulant(CirculantSpec(4, {1, 3}))
    assert conformable_exists(c4, 3) == (True, [(0, 2), (1, 3), ()])
    assert conformable_exists(complete(3), 3) == (True, [(0,), (1,), (2,)])


def test_conformable_honours_its_budget():
    G = build_circulant(CirculantSpec(21, set(range(1, 9)) | set(range(13, 21))))
    assert conformable_exists(G, 17) == (False, None)
    with pytest.raises(BudgetExhausted):
        conformable_exists(G, 17, SearchBudget(node_limit=1, time_limit_secs=0.001))
    with pytest.raises(BudgetExhausted):
        conformable_exists(complete(3), 3, SearchBudget(node_limit=3))
    assert conformable_exists(complete(3), 3, SearchBudget(node_limit=4))[0]


@pytest.mark.parametrize("q", [0, -1])
def test_conformable_rejects_a_class_count_below_1(q):
    with pytest.raises(OracleError, match="class count q must be positive"):
        conformable_exists(build_unitary(8), q)


def test_conformable_rejects_a_class_count_above_n():
    assert conformable_exists(complete(3), 3)[0]
    for q in (4, 10 ** 11):
        with pytest.raises(OracleError, match=r"^class count q must be at most n = 3, got %d$" % q):
            conformable_exists(complete(3), q)


def test_conformable_requires_regular():
    path = subgraph_of_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(OracleError):
        conformable_exists(path, 2)


def test_classify_u8_type2():
    res = classify_type(build_unitary(8))
    assert res.kind == "type2"
    assert res.value == 6  # 2^(k-1) + 2


def test_classify_u9_type1():
    res = classify_type(build_unitary(9))
    assert res.kind == "type1"
    assert res.value == 7


def test_classify_c5_type2():
    res = classify_type(build_circulant(CirculantSpec(5, {1, 4})))
    assert res.kind == "type2"
    assert res.value == 4


C_21 = build_circulant(CirculantSpec(21, {1, 3, 4, 17, 18, 20}))
C_10 = build_circulant(CirculantSpec(10, {1, 2, 3, 7, 8, 9}))


@pytest.mark.parametrize("solve, G, nodes", [
    # U_8 = K_{4,4} and thm2.3's C_21 are classified with no search; the
    # oracle still searches them
    (exact_total_chromatic, build_unitary(8), 1962),
    (classify_type, build_unitary(9), 32),
    (exact_total_chromatic, C_21, 6096),
], ids=["U_8", "U_9", "C_21"])
def test_classify_search_tree_is_pinned(solve, G, nodes):
    # the branching order fixes the tree: a change to it changes these counts
    assert solve(G).nodes == nodes


def test_edge_search_keeps_the_index_tie_break():
    # only the total-coloring search breaks ties by unassigned neighbours;
    # on spec-less K_16 that order takes 102 591 nodes instead of 146
    G = subgraph_of_edges(16, build_circulant(CirculantSpec(16, set(range(1, 16)))).edges())
    assert oracles.exact_edge_coloring(G, SearchBudget(node_limit=146))[0] == "sat"
    assert oracles.exact_edge_coloring(G, SearchBudget(node_limit=145))[0] == "budget"


@pytest.mark.parametrize("half", [(1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 6), (1, 3, 5, 6)],
                         ids=lambda half: "C_12{%s}" % ",".join(map(str, half)))
def test_classify_decides_order_12_circulants_by_search(half):
    # inconclusive after 300 000 nodes with the index tie-break
    G = build_circulant(CirculantSpec(12, set(half) | {12 - s for s in half}))
    res = classify_type(G, SearchBudget(node_limit=300_000))
    assert res.kind == "type1" and res.upper_evidence == "search"
    report = verify_total(G, res.certificate)
    assert report.ok and report.colors_used == G.max_degree + 1


@pytest.mark.parametrize("G, kind, method", [
    (build_unitary(128), "type2", "complete-bipartite"),  # K_{64,64}: 66 colors
    (complete(64), "type2", "complete-even"),  # 65 colors
    (build_unitary(134), "type1", "thm2.2"),  # 67 colors
], ids=["U_128", "K_64", "U_134"])
def test_classify_decides_graphs_that_need_more_than_64_colors(G, kind, method):
    res = classify_type(G)
    assert (res.kind, res.upper_evidence, res.nodes, res.conformability_steps) == (
        kind, method, 0, 0)
    report = verify_total(G, res.certificate)
    assert report.ok and report.colors_used == res.value


def test_classify_takes_the_upper_bound_from_a_construction():
    res = classify_type(C_21, SearchBudget(node_limit=1))
    assert res.kind == "type1" and res.value == 7
    assert res.nodes == 0 and res.conformability_steps == 0
    assert res.lower_evidence == "clique" and res.upper_evidence == "thm2.3"
    assert res.detail.endswith("; Delta+1 certificate by construction thm2.3")
    report = verify_total(C_21, res.certificate)
    assert report.ok and report.colors_used == 7


@pytest.mark.parametrize("G, method", [(C_21, "thm2.3"), (C_10, "thm2.5")],
                         ids=["C_21", "C_10"])
def test_classify_by_construction_does_not_search(G, method, monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(oracles, "_solve_list_coloring", spy)
    assert classify_type(G).upper_evidence == method


def test_classify_falls_back_to_search_when_the_construction_fails(monkeypatch):
    def fails(G):
        raise constructions.ConstructionError("no pairing")

    monkeypatch.setattr(constructions, "color_odd_circulant", fails)
    res = classify_type(C_21)
    assert res.kind == "type1" and res.upper_evidence == "search"
    assert res.nodes == 6096


def test_classify_lets_a_construction_verification_failure_through(monkeypatch):
    def invalid(G):
        raise constructions.VerificationFailure("invalid", None)

    monkeypatch.setattr(constructions, "color_odd_circulant", invalid)
    with pytest.raises(constructions.VerificationFailure):
        classify_type(C_21)


@pytest.mark.parametrize("limits", [
    {"time_limit_secs": float("nan")},
    {"time_limit_secs": 0.0},
    {"node_limit": 0},
], ids=["nan-time", "zero-time", "zero-nodes"])
def test_search_budget_rejects_limits_that_are_not_positive(limits):
    with pytest.raises(OracleError, match="budget limits must be positive"):
        SearchBudget(**limits)


def test_classify_inconclusive_on_tiny_budget():
    res = classify_type(build_unitary(9), SearchBudget(node_limit=3))
    assert res.kind == "inconclusive"


@pytest.mark.parametrize("G", [
    build_circulant(CirculantSpec(9, {1, 2, 3, 6, 7, 8})),
    build_circulant(CirculantSpec(7, {1, 2, 5, 6})),
    build_circulant(CirculantSpec(5, {1, 4})),
], ids=["Z_9", "C_7", "C_5"])
def test_classify_type2_by_conformability_searches_only_delta_plus_2(G, monkeypatch):
    searched = []
    solve = oracles._solve_list_coloring

    def spy(adj, k, precolor, budget, **kwargs):
        searched.append(k)
        return solve(adj, k, precolor, budget, **kwargs)

    monkeypatch.setattr(oracles, "_solve_list_coloring", spy)
    delta = G.max_degree
    res = classify_type(G)
    assert res.kind == "type2" and res.value == delta + 2
    assert res.lower_evidence == "conformability"
    assert "conformability" in res.detail
    assert res.conformability_steps > 0
    assert searched == [delta + 2]  # no node spent at Delta+1
    assert verify_total(G, res.certificate).ok


@pytest.mark.parametrize("G, evidence", [
    (build_circulant(CirculantSpec(8, {1, 4, 7})), "search"),  # conformable, yet type II
    (build_unitary(8), "complete"),  # K_{4,4}
    (build_unitary(9), "clique"),
    (subgraph_of_edges(3, [(0, 1), (1, 2)]), "clique"),  # irregular: no conformability check
], ids=["C_8", "U_8", "U_9", "P_3"])
def test_classify_names_the_evidence_of_its_lower_bound(G, evidence):
    res = classify_type(G)
    assert res.kind in ("type1", "type2")
    assert res.lower_evidence == evidence
    assert res.detail.startswith("lower bound by %s:" % evidence)


def test_classify_bounds_check_and_search_with_one_budget():
    # the conformability check takes at most a tenth of the node limit, so
    # this needs a search well above ten times the check's steps: 151 nodes
    # and 11 steps
    G = build_circulant(CirculantSpec(10, {2, 5, 8}))
    full = classify_type(G)
    ticks = full.conformability_steps + full.nodes
    assert classify_type(G, SearchBudget(node_limit=ticks)).kind == full.kind
    res = classify_type(G, SearchBudget(node_limit=ticks - 1))
    assert res.kind == "inconclusive" and res.nodes == full.nodes


def _relabelled(G, seed):
    """A copy of G with no circulant spec, its vertices shuffled."""
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    return subgraph_of_edges(G.n, [(perm[u], perm[v]) for u, v in G.edges()])


def _complete_families():
    """(id, graph, construction): K_{m,m} for m = 1..8 as U_{2^k}, as
    C_2m{odd} and relabelled, and K_2m for m = 1..6 as a circulant and with
    no spec.  K_2 is both; the K_n test comes first."""
    for m in range(1, 9):
        method = "complete-even" if m == 1 else "complete-bipartite"
        G = build_circulant(CirculantSpec(2 * m, set(range(1, 2 * m, 2))))
        if m & (m - 1) == 0:
            yield "U_%d" % (2 * m), build_unitary(2 * m), method
        yield "C_%d{odd}" % (2 * m), G, method
        yield "K_%d,%d-relabelled" % (m, m), _relabelled(G, m), method
    for m in range(1, 7):
        yield "C_%d{all}" % (2 * m), build_circulant(CirculantSpec(2 * m, range(1, 2 * m))), \
            "complete-even"
        yield "K_%d" % (2 * m), complete(2 * m), "complete-even"


@pytest.mark.parametrize("G, method", [case[1:] for case in _complete_families()],
                         ids=[case[0] for case in _complete_families()])
def test_classify_takes_complete_families_by_theorem(G, method, monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(oracles, "_solve_list_coloring", spy)
    monkeypatch.setattr(oracles, "_conformable", spy)
    res = classify_type(G, SearchBudget(node_limit=1))
    delta = G.max_degree
    assert (res.kind, res.value, res.nodes, res.conformability_steps) == ("type2", delta + 2, 0, 0)
    assert res.lower_evidence == "complete" and res.upper_evidence == method
    assert res.detail.endswith("; Delta+2 certificate by construction %s" % method)
    report = verify_total(G, res.certificate)
    assert report.ok and report.colors_used == delta + 2


def _minus_edge(G, e):
    return subgraph_of_edges(G.n, [f for f in G.edges() if f != e])


@pytest.mark.parametrize("G", [
    _minus_edge(build_unitary(8), (0, 1)),
    _minus_edge(build_unitary(8), (6, 7)),
    _minus_edge(complete(6), (0, 1)),
    _minus_edge(complete(6), (4, 5)),
    build_circulant(CirculantSpec(12, {2, 4, 6, 8, 10})),  # two disjoint K_6
    subgraph_of_edges(6, [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)]),  # K_2,4
    subgraph_of_edges(4, [(0, 3), (1, 3), (2, 3)]),  # K_1,3 with vertex 0 a leaf
    build_circulant(CirculantSpec(6, {3})),  # three disjoint K_2
    # |N(0)| = 2 = n/2 and 4 = 2^2 edges, but the edge 12 lies inside N(0)
    subgraph_of_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    # each vertex of N(0) = {1, 2, 3} sees exactly the other side, but the
    # edge 45 lies inside that side: 10 edges, not 3^2
    subgraph_of_edges(6, [(a, b) for a in (0, 4, 5) for b in (1, 2, 3)] + [(4, 5)]),
], ids=["K_4,4-0,1", "K_4,4-6,7", "K_6-0,1", "K_6-4,5", "2K_6", "K_2,4", "K_1,3", "3K_2",
        "paw", "K_3,3+4,5"])
def test_classify_does_not_take_a_near_miss_as_a_complete_family(G):
    assert constructions.complete_type_two(G) is None
    res = classify_type(G, SearchBudget(node_limit=2_000))
    assert res.lower_evidence != "complete"
    assert res.certificate is None or verify_total(G, res.certificate).ok


# chi'' as classify_type decided it before the complete-family step, by
# conformability and search under 300 000 nodes, for one circulant per
# multiplier orbit with n <= 10: "half=chi''", the half-set as digits ("-"
# when empty), and "?" where the budget ran out
_BY_SEARCH = {
    1: "-=1",
    2: "-=1 1=3",
    3: "-=1 1=3",
    4: "-=1 1=4 2=3 12=5",
    5: "-=1 1=4 12=5",
    6: "-=1 1=3 2=3 3=3 12=5 13=5 23=4 123=7",
    7: "-=1 1=4 12=6 123=7",
    8: "-=1 1=4 2=4 4=3 12=5 13=6 14=5 24=5 123=7 124=6 134=6 1234=?",
    9: "-=1 1=3 3=3 12=5 13=5 123=8 124=7 1234=9",
    10: "-=1 1=4 2=4 5=3 12=5 13=5 14=5 15=5 24=5 25=5 123=7 124=7 125=6 135=7 "
        "145=6 245=6 1234=9 1235=9 1245=8 12345=?",
}


def _orbit_representatives(max_n):
    """The first circulant of each multiplier orbit, in _circulants' order:
    C_n(S) and C_n(aS) are isomorphic for a unit a."""
    seen = set()
    for n, half, G in _circulants(max_n):
        orbit = {(n, tuple(sorted(s for s in {a * t % n for t in G.circulant.connection}
                                  if s <= n // 2)))
                 for a in range(1, n) if math.gcd(a, n) == 1}
        if not orbit & seen:
            yield n, half, G
        seen |= orbit


def test_complete_family_step_changes_no_decided_orbit_row():
    before = {(n, key): None if chi == "?" else int(chi)
              for n, row in _BY_SEARCH.items()
              for key, chi in (entry.split("=") for entry in row.split())}
    rows, closed, taken = [], [], []
    for n, half, G in _orbit_representatives(10):
        key = (n, "".join(map(str, half)) or "-")
        res = classify_type(G, SearchBudget(node_limit=300_000, time_limit_secs=10))
        assert res.kind == ("type1" if res.value == res.delta + 1 else "type2"), key
        report = verify_total(G, res.certificate)
        assert report.ok and report.colors_used == res.value, key
        if before[key] is None:
            closed.append(key)
        else:
            assert res.value == before[key], key
        if res.lower_evidence == "complete":
            taken.append(key)
        rows.append(key)
    assert rows == list(before)
    assert closed == [(8, "1234"), (10, "12345")]  # K_8 and K_10
    assert taken == [(2, "1"), (4, "1"), (4, "12"), (6, "13"), (6, "123"), (8, "13"),
                     (8, "1234"), (10, "135"), (10, "12345")]


def test_classify_out_of_time_in_the_conformability_check_is_inconclusive():
    # the clock is read every 4096 ticks; this check is still open then
    G = build_circulant(CirculantSpec(23, {6, 8, 11, 12, 15, 17}))
    res = classify_type(G, SearchBudget(time_limit_secs=1e-9))
    assert res.kind == "inconclusive" and res.value is None
    assert res.nodes == 0 and res.conformability_steps == 4096


def test_open_conformability_check_leaves_the_bound_to_the_search():
    # the check is open after millions of steps here; the search needs 651
    # nodes, and the graph is type I
    G = build_circulant(CirculantSpec(23, {6, 8, 11, 12, 15, 17}))
    res = classify_type(G, SearchBudget(node_limit=10_000))
    assert res.kind == "type1" and res.value == 7
    assert res.lower_evidence == "clique"
    assert res.conformability_steps == 1_000  # a tenth of the node limit
    assert classify_type(G).conformability_steps == oracles._CONFORMABLE_STEPS
    assert verify_total(G, res.certificate).ok


def _circulants(max_n):
    """Every circulant graph C_n(S) with n <= max_n, by its half-set."""
    for n in range(1, max_n + 1):
        halves = range(1, n // 2 + 1)
        for r in range(len(halves) + 1):
            for half in itertools.combinations(halves, r):
                yield n, half, build_circulant(CirculantSpec(n, set(half) | {n - s for s in half}))


# Refuting Delta+1 by plain search takes millions of nodes here (K_8 6.3 M,
# the three isomorphic Z_9 4.3 M each, C_10{1,3,5} 2.4 M, C_10{1,2,3,5} not
# done after 89 M), so within the test's budget the search runs out; it must
# not find a coloring.
_DEEP = {(8, (1, 2, 3, 4)), (9, (1, 2, 3)), (9, (1, 3, 4)), (9, (2, 3, 4)),
         (10, (1, 3, 5)), (10, (1, 2, 3, 5)), (10, (1, 3, 4, 5)), (10, (1, 2, 3, 4, 5))}


def test_nonconformable_circulants_have_no_delta_plus_1_total_coloring():
    # Chetwynd-Hilton against the plain Delta+1 search from the star
    # precolor, with no conformability check
    nonconformable = []
    for n, half, G in _circulants(10):
        delta = G.regular_degree
        if conformable_exists(G, delta + 1)[0]:
            continue
        _, stars, adj = total_items(G)
        tracker = oracles._Budget(SearchBudget(node_limit=20_000))
        status, _ = oracles._solve_list_coloring(adj, delta + 1,
                                                 oracles._star_clique(G, stars), tracker)
        assert status == ("budget" if (n, half) in _DEEP else "unsat"), (n, half)
        nonconformable.append((n, half))
    assert len(nonconformable) == 19 and _DEEP <= set(nonconformable)


def _tagged_total_items(G):
    """The total graph as tagged items, ("v", v) then ("e", e) in G.edges()
    order, with a tuple-keyed index and sorted conflict lists: the reference
    for total_items."""
    items = [("v", v) for v in range(G.n)] + [("e", e) for e in G.edges()]
    index = {it: i for i, it in enumerate(items)}
    adj = [set() for _ in items]

    def link(a, b):
        ia, ib = index[a], index[b]
        adj[ia].add(ib)
        adj[ib].add(ia)

    for (u, v) in G.edges():
        link(("v", u), ("v", v))
        link(("v", u), ("e", (u, v)))
        link(("v", v), ("e", (u, v)))
    for w in range(G.n):
        nbrs = G.neighbors(w)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                link(("e", ekey(w, nbrs[i])), ("e", ekey(w, nbrs[j])))
    return items, [sorted(s) for s in adj], index


def _tagged_star_clique(G, index):
    if G.n == 0:
        return {}
    v = max(range(G.n), key=lambda u: (G.degree(u), -u))
    pre = {index[("v", v)]: 1}
    for c, u in enumerate(G.neighbors(v), 2):
        pre[index[("e", ekey(v, u))]] = c
    return pre


def _total_items_cases():
    for n, half, G in _circulants(10):
        yield "C_%d%s" % (n, list(half)), G
    z9 = GroupTable(9, [[(i + j) % 9 for j in range(9)] for i in range(9)], 0)
    yield "Cay(Z_9)", build_cayley(z9, {1, 2, 4, 5, 7, 8})
    rng = random.Random(21)
    # vertices 9, 10 and 11 stay isolated
    yield "random", subgraph_of_edges(12, [(u, v) for u in range(9) for v in range(u + 1, 9)
                                           if rng.random() < 0.4])
    yield "n=0", subgraph_of_edges(0, [])
    yield "n=1", subgraph_of_edges(1, [])


def test_total_items_matches_the_tagged_reference():
    # vertex v is item v and edge i item n + i, as the tagged encoding
    # numbers them; the search from either gives the same tree.  K_8 and
    # K_10 run out of the budget at Delta+2 colors, so that outcome is
    # compared too.
    limit = 20_000
    for name, G in _total_items_cases():
        n = G.n
        edges, stars, adj = total_items(G)
        items, ref_adj, index = _tagged_total_items(G)
        assert items == [("v", v) for v in range(n)] + [("e", e) for e in edges], name
        assert [sorted(a) for a in adj] == ref_adj, name
        assert all(len(a) == len(set(a)) for a in adj), name
        ref_pre = _tagged_star_clique(G, index)
        assert oracles._star_clique(G, stars) == ref_pre, name

        res = exact_total_chromatic(G, SearchBudget(node_limit=limit))
        # the search's share of the budget, which the check has not spent
        tracker = oracles._Budget(SearchBudget(node_limit=limit - res.conformability_steps))
        c = res.lower_bound
        while True:
            status, colors = oracles._solve_list_coloring(ref_adj, c, ref_pre, tracker,
                                                          busiest_first=True)
            if status != "unsat":
                break
            c += 1
        assert tracker.nodes == res.nodes, name
        if status == "budget":
            assert res.status == "inconclusive", name
            continue
        assert (res.status, res.value) == ("exact", c), name
        ref = TotalColoring(n)
        for i, (tag, x) in enumerate(items):
            (ref.vertex_color if tag == "v" else ref.edge_color)[x] = colors[i]
        assert list(res.coloring.vertex_color.items()) == list(ref.vertex_color.items()), name
        assert list(res.coloring.edge_color.items()) == list(ref.edge_color.items()), name


def test_type_one_theorems_agree_with_the_search():
    # every circulant with n <= 12 that thm2.2, thm2.3 or thm2.5 covers
    covered = 0
    for n, half, G in _circulants(12):
        for name in constructions.TYPE_ONE:
            try:
                constructions.METHODS[name](G)
            except constructions.ConstructionError:
                continue
            delta = G.regular_degree
            assert exact_total_chromatic(G).value == delta + 1, (n, half)
            res = classify_type(G)
            assert (res.kind, res.nodes, res.upper_evidence) == ("type1", 0, name), (n, half)
            covered += 1
            break
    assert covered == 17


def test_oracle_not_above_construction():
    from totcol.constructions import color_odd_circulant, color_unitary_even

    cases = [
        (build_unitary(6), color_unitary_even(build_unitary(6)).coloring),
        (build_circulant(CirculantSpec(9, {1, 2, 4, 5, 7, 8})),
         None),  # U_9 handled above
    ]
    G, c = cases[0]
    res = exact_total_chromatic(G)
    assert res.value <= c.colors_used()
    assert res.value == c.colors_used() == 3  # type I instance: equality


def test_dense_odd_cayley_family_not_conformable():
    # odd order, clique number above n/3: no Delta+1 conformable coloring
    for n in (9, 15, 21):
        k = (n - 1) // 3 + 1  # generators 1..k give cliques of size k+1 > n/3
        conn = set(range(1, k + 1)) | set(range(n - k, n))
        G = build_circulant(CirculantSpec(n, conn))
        stats = maximal_cliques(G)
        assert stats.omega > n / 3
        ok, _ = conformable_exists(G, G.regular_degree + 1)
        assert not ok


def test_certificates_reverify_after_file_round_trip(tmp_path):
    G = build_unitary(9)
    res = exact_total_chromatic(G)
    path = tmp_path / "cert.tc"
    write_coloring(res.coloring, path)
    back = read_coloring(path)
    report = verify_total(G, back)
    assert report.ok and report.colors_used == 7
