"""Command-line surface: generate graphs, run constructions, verify, run
exact oracles, classify, and reproduce the bundled golden tables.

`color` checks each method's preconditions once, runs the method once and
verifies its coloring once, inside the method.

Exit codes: 0 success; 1 verification conflicts (from `verify`, or a
construction whose coloring fails verification) or golden-table mismatch;
2 preconditions of the chosen method unmet (with `--method auto`: of every
method, one reason each) or no admissible choice past them; 3 a search
budget ran out, and nothing else; 4 bad input: I/O errors, malformed files
(with the line number), invalid budgets, or a graph an oracle cannot take.
"""
from __future__ import annotations

import argparse
import pathlib
import sys
from importlib import resources

from . import constructions, coloring, graphs, oracles
from .coloring import (
    adjacency_matrix_csv,
    matrix_to_csv,
    read_coloring,
    render_matrix,
    verify_total,
    write_coloring,
)
from .graphs import CirculantSpec, GroupTable, build_cayley, build_circulant, build_unitary

EXIT_OK = 0
EXIT_CONFLICTS = 1
EXIT_PRECONDITION = 2
EXIT_INCONCLUSIVE = 3
EXIT_IO = 4


def _read_group_table(path) -> GroupTable:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise graphs.GraphError("group table file too short")
    try:
        n, identity, *body = map(int, tokens)
    except ValueError as exc:
        raise graphs.GraphError("group table: %s" % exc) from None
    if len(body) != n * n:
        raise graphs.GraphError("expected %d table entries, got %d" % (n * n, len(body)))
    product = [body[i * n:(i + 1) * n] for i in range(n)]
    return GroupTable(n, product, identity)


def cmd_gen(args) -> int:
    if args.kind == "unitary":
        G = build_unitary(args.n)
    elif args.kind == "circulant":
        G = build_circulant(CirculantSpec(args.n, args.generators))
    else:  # cayley
        table = _read_group_table(args.table)
        G = build_cayley(table, args.generators)
    out = args.output or ("%s_%d.col" % (args.kind, G.n))
    graphs.write_dimacs(G, out)
    print("wrote %s (n=%d, m=%d)" % (out, G.n, G.edge_count))
    return EXIT_OK


def cmd_color(args) -> int:
    G = graphs.read_dimacs(args.graph)
    if args.method == "auto":
        method, result_coloring, notes, rejected = constructions.color_auto(G)
        for name, reason in rejected:
            print("note: %s rejected: %s" % (name, reason))
        print("auto-selected method: %s" % method)
    else:
        res = constructions.METHODS[args.method](G)
        result_coloring, notes = res.coloring, res.notes

    # every method returns a coloring that verify_total has accepted
    for note in notes:
        print("note: %s" % note)
    print("colors used: %d" % result_coloring.colors_used())
    print("verification: clean")
    out = args.output or "coloring.tc"
    if args.format == "csv-matrix":
        matrix_to_csv(render_matrix(G, result_coloring), out)
    else:
        write_coloring(result_coloring, out)
    print("wrote %s" % out)
    return EXIT_OK


def cmd_verify(args) -> int:
    G = graphs.read_dimacs(args.graph)
    if args.coloring.endswith(".csv"):
        from .coloring import matrix_from_csv, parse_matrix

        c = parse_matrix(matrix_from_csv(args.coloring).grid)
    else:
        c = read_coloring(args.coloring)
    if c.n != G.n:
        # checked up front: the verifier would report every vertex as missing
        raise coloring.ColoringError("the coloring has %d vertices, the graph %d"
                                     % (c.n, G.n))
    report = verify_total(G, c)
    for err in report.coverage_errors:
        print("coverage: %r" % (err,))
    for conflict in report.conflicts:
        print("conflict: %r" % (conflict,))
    print("colors used: %d" % report.colors_used)
    if report.ok:
        print("verification: clean")
        return EXIT_OK
    print("verification: FAILED (%d conflicts, %d coverage errors)"
          % (len(report.conflicts), len(report.coverage_errors)))
    return EXIT_CONFLICTS


def _budget_from(args) -> oracles.SearchBudget:
    return oracles.SearchBudget(
        max_colors=args.max_colors,
        node_limit=args.node_limit,
        time_limit_secs=args.time_limit_secs,
    )


def cmd_oracle(args) -> int:
    G = graphs.read_dimacs(args.graph)
    if args.what == "total-chromatic":
        res = oracles.exact_total_chromatic(G, _budget_from(args))
        if res.status != "exact":
            print("inconclusive after %d nodes" % res.nodes)
            return EXIT_INCONCLUSIVE
        print("total chromatic number: %d (lower bound %d, %d nodes)"
              % (res.value, res.lower_bound, res.nodes))
        print("evidence: lower bound by %s: %s (%d conformability steps)"
              % (res.lower_evidence, oracles.LOWER_EVIDENCE[res.lower_evidence],
                 res.conformability_steps))
        if args.output:
            write_coloring(res.coloring, args.output)
            print("certificate written to %s" % args.output)
        return EXIT_OK
    if args.what == "chromatic":
        chi, cert = oracles.exact_chromatic(G, _budget_from(args))
        print("chromatic number: %d" % chi)
        return EXIT_OK
    if args.what == "cliques":
        stats = oracles.maximal_cliques(G)
        print("clique number: %d" % stats.omega)
        print("maximal cliques: %d" % stats.maximal_count)
        print("maximum cliques: %d" % stats.maximum_count)
        for cl in stats.cliques:
            print("clique: %s" % (list(cl),))
        return EXIT_OK
    if args.what == "perfect":
        print("perfect: %s" % oracles.is_perfect(G))
        return EXIT_OK
    if args.what == "conformable":
        if args.q is None:
            print("conformable oracle needs --q", file=sys.stderr)
            return EXIT_IO
        ok, partition = oracles.conformable_exists(G, args.q, _budget_from(args))
        print("conformable(%d): %s" % (args.q, ok))
        if ok:
            print("classes: %s" % (partition,))
        return EXIT_OK
    raise AssertionError(args.what)


def cmd_classify(args) -> int:
    G = graphs.read_dimacs(args.graph)
    res = oracles.classify_type(G, _budget_from(args))
    label = {"type1": "TypeI", "type2": "TypeII", "inconclusive": "inconclusive"}
    print("classification: %s" % label[res.kind])
    print("max degree: %d" % res.delta)
    print("evidence: %s (%d nodes, %d conformability steps)"
          % (res.detail, res.nodes, res.conformability_steps))
    if res.value is not None:
        print("total chromatic number: %d" % res.value)
    if res.certificate is not None and args.output:
        write_coloring(res.certificate, args.output)
        print("certificate written to %s" % args.output)
    return EXIT_OK if res.kind != "inconclusive" else EXIT_INCONCLUSIVE


GOLDEN_TABLES = (
    "table1_adjacency.csv",
    "table2_part1.csv",
    "table3_part2.csv",
    "table4_final.csv",
)


def regenerate_tables(outdir) -> list:
    """Regenerate the four U_24 tables into outdir; returns the paths."""
    import os

    G = build_unitary(24)
    res = constructions.color_unitary_even(G)
    paths = [os.path.join(outdir, name) for name in GOLDEN_TABLES]
    adjacency_matrix_csv(G, paths[0])
    matrix_to_csv(render_matrix(G, res.part1, partial=True), paths[1])
    matrix_to_csv(render_matrix(G, res.part2, partial=True), paths[2])
    matrix_to_csv(render_matrix(G, res.coloring), paths[3])
    return paths


def cmd_tables(args) -> int:
    import os

    os.makedirs(args.outdir, exist_ok=True)
    paths = regenerate_tables(args.outdir)
    status = EXIT_OK
    for name, path in zip(GOLDEN_TABLES, paths):
        try:
            golden = resources.files("totcol.golden").joinpath(name).read_bytes()
        except (ModuleNotFoundError, OSError):
            raise FileNotFoundError("golden table %s is not installed" % name) from None
        mine = pathlib.Path(path).read_bytes()
        if golden == mine:
            print("%s: ok (zero diff)" % name)
        else:
            print("%s: MISMATCH" % name)
            status = EXIT_CONFLICTS
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totcol",
        description="Total colorings of circulant and Cayley graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph file")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    g_uni = gen_sub.add_parser("unitary")
    g_uni.add_argument("n", type=int)
    g_circ = gen_sub.add_parser("circulant")
    g_circ.add_argument("n", type=int)
    g_circ.add_argument("generators", type=int, nargs="+")
    g_cay = gen_sub.add_parser("cayley")
    g_cay.add_argument("table", help="group table file: n identity, then n*n products")
    g_cay.add_argument("generators", type=int, nargs="+")
    for g in (g_uni, g_circ, g_cay):
        g.add_argument("-o", "--output")
    p_gen.set_defaults(func=cmd_gen)

    p_color = sub.add_parser("color", help="run a constructive coloring")
    p_color.add_argument("graph")
    p_color.add_argument("--method", default="auto",
                         choices=["auto", *constructions.METHODS])
    p_color.add_argument("--format", default="coloring",
                         choices=["coloring", "csv-matrix"])
    p_color.add_argument("-o", "--output")
    p_color.set_defaults(func=cmd_color)

    p_verify = sub.add_parser("verify", help="verify a (graph, coloring) pair")
    p_verify.add_argument("graph")
    p_verify.add_argument("coloring")
    p_verify.set_defaults(func=cmd_verify)

    def add_budget(p):
        p.add_argument("--max-colors", type=int, default=64)
        p.add_argument("--node-limit", type=int, default=50_000_000)
        p.add_argument("--time-limit-secs", type=float, default=600.0)

    p_oracle = sub.add_parser("oracle", help="run an exact solver")
    p_oracle.add_argument("graph")
    p_oracle.add_argument("--what", default="total-chromatic",
                          choices=["total-chromatic", "chromatic", "cliques",
                                   "perfect", "conformable"])
    p_oracle.add_argument("--q", type=int, default=None,
                          help="class count for the conformable oracle")
    p_oracle.add_argument("-o", "--output")
    add_budget(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_classify = sub.add_parser("classify", help="certify type I / type II")
    p_classify.add_argument("graph")
    p_classify.add_argument("-o", "--output")
    add_budget(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_tables = sub.add_parser("tables", help="regenerate the U_24 tables and diff goldens")
    p_tables.add_argument("--outdir", default=".")
    p_tables.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except constructions.ConstructionError as exc:
        print("precondition error: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION
    except constructions.VerificationFailure as exc:
        print("verification: FAILED: %s" % exc, file=sys.stderr)
        return EXIT_CONFLICTS
    except oracles.BudgetExhausted as exc:
        print("inconclusive: %s" % exc, file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (graphs.GraphError, coloring.ColoringError, oracles.OracleError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
