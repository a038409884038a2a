import inspect
import itertools
import sys

import pytest

from totcol import constructions, oracles
from totcol.coloring import read_coloring, verify_total, write_coloring
from totcol.graphs import CirculantSpec, build_circulant, build_unitary, subgraph_of_edges
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
    res = exact_total_chromatic(G, SearchBudget(max_colors=10))
    assert res.value == 7  # Delta + 1: type I
    assert verify_total(G, res.coloring).ok


def test_total_chromatic_budget_is_explicit():
    G = build_unitary(9)
    res = exact_total_chromatic(G, SearchBudget(max_colors=10, node_limit=5))
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


def test_conformable_requires_regular():
    path = subgraph_of_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(OracleError):
        conformable_exists(path, 2)


def test_classify_u8_type2():
    res = classify_type(build_unitary(8), SearchBudget(max_colors=8))
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
    (classify_type, build_unitary(8), 2257),
    (classify_type, build_unitary(9), 4166),
    # thm2.3 classifies C_21 with no search; the oracle still searches it
    (exact_total_chromatic, C_21, 1771),
], ids=["U_8", "U_9", "C_21"])
def test_classify_search_tree_is_pinned(solve, G, nodes):
    # the branching order fixes the tree: a change to it changes these counts
    assert solve(G).nodes == nodes


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
    def spy(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(oracles, "_solve_list_coloring", spy)
    assert classify_type(G).upper_evidence == method


def test_classify_falls_back_to_search_when_the_construction_fails(monkeypatch):
    def fails(G):
        raise constructions.ConstructionError("no pairing")

    monkeypatch.setattr(constructions, "color_odd_circulant", fails)
    res = classify_type(C_21)
    assert res.kind == "type1" and res.upper_evidence == "search"
    assert res.nodes == 1771


def test_classify_lets_a_construction_verification_failure_through(monkeypatch):
    def invalid(G):
        raise constructions.VerificationFailure("invalid", None)

    monkeypatch.setattr(constructions, "color_odd_circulant", invalid)
    with pytest.raises(constructions.VerificationFailure):
        classify_type(C_21)


def test_classify_keeps_the_color_cap_on_the_construction_path():
    res = classify_type(C_21, SearchBudget(max_colors=6))
    assert res.kind == "inconclusive" and res.upper_evidence is None


def test_classify_inconclusive_on_tiny_budget():
    res = classify_type(build_unitary(9), SearchBudget(node_limit=3))
    assert res.kind == "inconclusive"


@pytest.mark.parametrize("G", [
    build_circulant(CirculantSpec(9, {1, 2, 3, 6, 7, 8})),
    complete(6),
    build_circulant(CirculantSpec(5, {1, 4})),
], ids=["Z_9", "K_6", "C_5"])
def test_classify_type2_by_conformability_searches_only_delta_plus_2(G, monkeypatch):
    searched = []
    solve = oracles._solve_list_coloring

    def spy(adj, k, precolor, budget):
        searched.append(k)
        return solve(adj, k, precolor, budget)

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
    (build_unitary(8), "search"),  # conformable, yet type II
    (build_unitary(9), "clique"),
    (subgraph_of_edges(3, [(0, 1), (1, 2)]), "clique"),  # irregular: no conformability check
], ids=["U_8", "U_9", "P_3"])
def test_classify_names_the_evidence_of_its_lower_bound(G, evidence):
    res = classify_type(G)
    assert res.kind in ("type1", "type2")
    assert res.lower_evidence == evidence
    assert res.detail.startswith("lower bound by %s:" % evidence)


def test_classify_bounds_check_and_search_with_one_budget():
    G = build_unitary(9)
    full = classify_type(G)
    ticks = full.conformability_steps + full.nodes
    assert classify_type(G, SearchBudget(node_limit=ticks)).kind == "type1"
    res = classify_type(G, SearchBudget(node_limit=ticks - 1))
    assert res.kind == "inconclusive" and res.nodes == full.nodes


def test_classify_out_of_time_in_the_conformability_check_is_inconclusive():
    # the clock is read every 4096 ticks; this check is still open then
    G = build_circulant(CirculantSpec(23, {6, 8, 11, 12, 15, 17}))
    res = classify_type(G, SearchBudget(time_limit_secs=1e-9))
    assert res.kind == "inconclusive" and res.value is None
    assert res.nodes == 0 and res.conformability_steps == 4096


def test_open_conformability_check_leaves_the_bound_to_the_search():
    # the check is open after millions of steps here; the search needs 954
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
        items, adj, index = total_items(G)
        tracker = oracles._Budget(SearchBudget(node_limit=20_000))
        status, _ = oracles._solve_list_coloring(adj, delta + 1,
                                                 oracles._star_clique(G, index), tracker)
        assert status == ("budget" if (n, half) in _DEEP else "unsat"), (n, half)
        nonconformable.append((n, half))
    assert len(nonconformable) == 19 and _DEEP <= set(nonconformable)


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
    res = exact_total_chromatic(G, SearchBudget(max_colors=10))
    path = tmp_path / "cert.tc"
    write_coloring(res.coloring, path)
    back = read_coloring(path)
    report = verify_total(G, back)
    assert report.ok and report.colors_used == 7
