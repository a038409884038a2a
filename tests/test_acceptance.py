"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""
import random
import time

from totcol.cli import main as cli_main
from totcol.coloring import ekey, verify_total, write_coloring
from totcol.constructions import (
    ConstructionError,
    color_complete_bipartite,
    color_even_dense_circulant,
    color_odd_circulant,
    color_unitary_even,
    fill_diagonals,
    patterned_starts,
)
from totcol.graphs import (
    CirculantSpec,
    build_circulant,
    build_unitary,
    totient,
    write_dimacs,
)
from totcol.oracles import (
    classify_type,
    conformable_exists,
    exact_chromatic,
    exact_total_chromatic,
    is_perfect,
    maximal_cliques,
)


def report(num, ok, detail):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion %d: %s" % (num, detail)


def timed(limit_secs, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    elapsed = time.perf_counter() - t0
    assert elapsed < limit_secs, "took %.1fs, limit %ss" % (elapsed, limit_secs)
    return out, elapsed


def test_criterion_01_table_reproduction(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def run():
        assert cli_main(["gen", "unitary", "24"]) == 0
        return cli_main(["tables", "--outdir", str(tmp_path)])

    code, elapsed = timed(1.0, run)
    report(1, code == 0,
           "U_24 tables regenerate with zero diff against goldens (%.2fs)" % elapsed)


def test_criterion_02_even_unitary_color_counts():
    for n in (6, 12, 18, 24, 36, 48):
        res, elapsed = timed(1.0, color_unitary_even, build_unitary(n))
        rep = verify_total(build_unitary(n), res.coloring)
        ok = rep.ok and rep.colors_used == totient(n) + 1
        assert ok, "n=%d: %d colors, clean=%s" % (n, rep.colors_used, rep.ok)
    report(2, True, "color_unitary_even uses totient(n)+1 colors for "
           "n in {6,12,18,24,36,48}, each under 1s")


def test_criterion_03_u8_exact():
    G = build_unitary(8)
    c = color_complete_bipartite(G).coloring
    assert verify_total(G, c).ok and c.colors_used() == 6
    res, elapsed = timed(300.0, exact_total_chromatic, G)
    ok = res.status == "exact" and res.value == 6 == 2 ** (3 - 1) + 2
    report(3, ok, "U_8 construction gives 6 colors and exhaustive search "
           "rules out 5 (%.1fs)" % elapsed)


def test_criterion_04_u9_type1():
    G = build_unitary(9)
    res, elapsed = timed(600.0, exact_total_chromatic, G)
    ok = (res.status == "exact" and res.value == G.max_degree + 1 == 7
          and verify_total(G, res.coloring).ok)
    report(4, ok, "U_9 has an exact 7-color (Delta+1) total coloring, "
           "type I (%.2fs)" % elapsed)


def test_criterion_05_starter_fallback_21():
    spec = CirculantSpec(21, {1, 3, 4, 17, 18, 20})
    res, elapsed = timed(10.0, color_odd_circulant, build_circulant(spec))
    G = build_circulant(spec)
    rep = verify_total(G, res.coloring)
    classes_ok = all(
        len({res.coloring.vertex_color[v] for v in cls}) == 1
        for cls in (range(i, 21, 7) for i in range(7))
    )
    ok = (rep.ok and rep.colors_used == 7 and classes_ok
          and res.strategy == "starter")
    report(5, ok, "(21,{1,3,4,17,18,20}) gets 7 colors via the starter "
           "fallback with residue-mod-7 vertex classes (%.2fs)" % elapsed)


def test_criterion_06_literal_rules_21():
    spec = CirculantSpec(21, {1, 2, 3, 18, 19, 20})
    res, elapsed = timed(1.0, color_odd_circulant, build_circulant(spec))
    rep = verify_total(build_circulant(spec), res.coloring)
    ok = rep.ok and rep.colors_used == 7 and res.strategy == "literal"
    report(6, ok, "(21,{1,2,3,18,19,20}) colored with 7 colors by the "
           "literal column rules (%.2fs)" % elapsed)


def test_criterion_07_even_dense_with_negative_control():
    spec = CirculantSpec(10, {1, 2, 3, 7, 8, 9})
    res, elapsed = timed(10.0, color_even_dense_circulant, build_circulant(spec))
    rep = verify_total(build_circulant(spec), res.coloring)
    ok = rep.ok and rep.colors_used == spec.degree + 1 == 7
    ok = ok and len(res.chosen_generators) == 2 and res.notes

    control = color_even_dense_circulant(build_circulant(CirculantSpec(10, {1, 3, 4, 6, 7, 9})))
    rep2 = verify_total(build_circulant(CirculantSpec(10, {1, 3, 4, 6, 7, 9})),
                        control.coloring)
    ok = ok and rep2.ok and 4 in control.chosen_generators
    report(7, ok, "(10,{1,2,3,7,8,9}) reaches Delta+1=7 with H diagnostics; "
           "control (10,{1,3,4,6,7,9}) succeeds only with 4 in H (%.2fs)" % elapsed)


def test_criterion_08_dense_z9_chain():
    t0 = time.perf_counter()
    G = build_circulant(CirculantSpec(9, {1, 2, 3, 6, 7, 8}))
    stats = maximal_cliques(G)
    ok = stats.omega == 4 and stats.omega > G.n / 3 and stats.maximum_count == 9
    conf, _ = conformable_exists(G, 7)
    ok = ok and not conf
    res = exact_total_chromatic(G)
    ok = ok and res.status == "exact" and res.value == 8 == G.max_degree + 2
    cls = classify_type(G)
    ok = ok and cls.kind == "type2"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(8, ok, "Z_9 dense: omega=4, 9 maximum cliques, not conformable(7), "
           "chi''=8=Delta+2, TypeII (%.1fs)" % elapsed)


def test_criterion_09_perfect_cayley_pipeline():
    from totcol.constructions import color_perfect_cayley

    G = build_unitary(9)
    assert is_perfect(G)
    chi, _ = exact_chromatic(G)
    assert chi == 3 and chi % 2 == 1 and G.n % chi == 0
    res, elapsed = timed(60.0, color_perfect_cayley, G)
    rep = verify_total(G, res.coloring)
    ok = rep.ok and res.total_colors <= 8
    ok = ok and res.cover is not None and len(res.cover.cliques) == 3
    ok = ok and all(len(cl) == 3 for cl in res.cover.cliques)
    remainder_delta = G.max_degree - (chi - 1)
    ok = ok and (res.total_colors == 7) == res.type_one
    ok = ok and res.type_one == (res.remainder_colors == remainder_delta)
    report(9, ok, "U_9 perfect-Cayley pipeline: 3 triangles, %d colors, "
           "7 iff the remainder is class I (%.2fs)" % (res.total_colors, elapsed))


def _random_odd_instances(rng, count):
    """Admissible odd circulants: q | n, residues of the half set hit
    1..(q-1)/2 exactly once, no generator divisible by q."""
    out = []
    while len(out) < count:
        q = rng.choice((3, 5, 7, 9))
        m = rng.choice((3, 5, 7, 9))
        n = q * m
        half = []
        for r in range(1, (q - 1) // 2 + 1):
            lifts = [s for s in range(r, (n + 1) // 2, q)]
            half.append(rng.choice(lifts))
        out.append(CirculantSpec(n, set(half) | {n - s for s in half}))
    return out


def _random_even_dense_instances(rng, count):
    out = []
    while len(out) < count:
        n = rng.choice((6, 10, 14, 18))
        pool = [s for s in range(1, n // 2)]
        k_min = -(-n // 4)  # Delta = 2*|half| must reach n/2
        size = rng.randint(k_min, len(pool))
        half = rng.sample(pool, size)
        spec = CirculantSpec(n, set(half) | {n - s for s in half})
        try:
            color_even_dense_circulant(build_circulant(spec))
        except ConstructionError:
            continue  # budget-infeasible sample; resample
        out.append(spec)
    return out


def test_criterion_10a_randomized_instances_verify():
    rng = random.Random(20260823)
    count = 0

    for n in (2, 4, 8, 16, 32, 64):
        c = color_complete_bipartite(build_unitary(n)).coloring
        assert verify_total(build_unitary(n), c).ok
        count += 1
    for n in range(6, 62, 2):
        if n & (n - 1) == 0:
            continue
        res = color_unitary_even(build_unitary(n))
        rep = verify_total(build_unitary(n), res.coloring)
        assert rep.ok and rep.colors_used == totient(n) + 1, n
        count += 1
    for spec in _random_odd_instances(rng, 140):
        res = color_odd_circulant(build_circulant(spec))
        rep = verify_total(build_circulant(spec), res.coloring)
        assert rep.ok and rep.colors_used == spec.degree + 1, spec
        count += 1
    for spec in _random_even_dense_instances(rng, 200 - count):
        res = color_even_dense_circulant(build_circulant(spec))
        rep = verify_total(build_circulant(spec), res.coloring)
        assert rep.ok and rep.colors_used == spec.degree + 1, spec
        count += 1

    report(10, count >= 200,
           "(a) %d randomized admissible instances all verify clean" % count)


def test_criterion_10b_start_entry_identity():
    # on the coloring: generator s = j - 1 colors {0, s} with start(j) and
    # the wrap edge {n-s, 0} with wrap(j)
    for q in range(3, 102, 2):
        n = 3 * q
        gens = range(1, (q + 1) // 2 + 1)
        c = fill_diagonals(n, q, patterned_starts(q, gens))
        for s in gens:
            start, wrap = c.edge_color[ekey(0, s)], c.edge_color[ekey(n - s, 0)]
            assert (start - wrap) % q == s % q, (q, s)
    report(10, True, "(b) start(j)-wrap(j) = j-1 (mod q) for every odd q <= 101")


def test_criterion_10c_oracle_vs_construction():
    cases = [
        (build_unitary(6), color_unitary_even(build_unitary(6)).coloring.colors_used(), True),
        (build_unitary(8), color_complete_bipartite(build_unitary(8)).coloring.colors_used(),
         True),
        (build_circulant(CirculantSpec(21, {1, 2, 3, 18, 19, 20})),
         color_odd_circulant(build_circulant(CirculantSpec(21, {1, 2, 3, 18, 19, 20})))
         .coloring.colors_used(),
         True),
        (build_circulant(CirculantSpec(21, {1, 3, 4, 17, 18, 20})),
         color_odd_circulant(build_circulant(CirculantSpec(21, {1, 3, 4, 17, 18, 20})))
         .coloring.colors_used(),
         True),
    ]
    for G, constructed, expect_equal in cases:
        res = exact_total_chromatic(G)
        assert res.status == "exact"
        assert res.value <= constructed
        if expect_equal:
            assert res.value == constructed
    report(10, True, "(c) oracle value never exceeds the construction and "
           "matches it on the type-I instances")


def test_criterion_10d_byte_determinism(tmp_path):
    digests = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        G = build_circulant(CirculantSpec(21, {1, 3, 4, 17, 18, 20}))
        write_dimacs(G, d / "g.col")
        write_coloring(color_odd_circulant(G).coloring, d / "c.tc")
        write_coloring(color_unitary_even(build_unitary(24)).coloring, d / "u24.tc")
        from totcol.cli import regenerate_tables

        regenerate_tables(d)
        names = sorted(p.name for p in d.iterdir())
        digests.append([(name, (d / name).read_bytes()) for name in names])
    report(10, digests[0] == digests[1],
           "(d) serialized artifacts are byte-identical across repeated runs")
