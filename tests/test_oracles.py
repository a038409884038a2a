import pytest

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


@pytest.mark.parametrize("G, nodes", [
    (build_unitary(8), 2257),
    (build_unitary(9), 4166),
    (build_circulant(CirculantSpec(21, {1, 3, 4, 17, 18, 20})), 1771),
], ids=["U_8", "U_9", "C_21"])
def test_classify_search_tree_is_pinned(G, nodes):
    # the branching order fixes the tree: a change to it changes these counts
    assert classify_type(G).nodes == nodes


def test_classify_inconclusive_on_tiny_budget():
    res = classify_type(build_unitary(9), SearchBudget(node_limit=3))
    assert res.kind == "inconclusive"


def test_oracle_not_above_construction():
    from totcol.constructions import color_odd_circulant, color_unitary_even

    cases = [
        (build_unitary(6), color_unitary_even(6).coloring),
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
