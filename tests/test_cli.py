import ast
import contextlib
import functools
import importlib.resources
import io
import os
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import totcol
from totcol import cli, coloring, constructions, graphs, oracles
from totcol.cli import main
from totcol.coloring import matrix_from_csv, matrix_to_csv, read_coloring
from totcol.graphs import CirculantSpec, build_unitary, write_dimacs


def run(argv, cwd, monkeypatch):
    monkeypatch.chdir(cwd)
    return main([str(a) for a in argv])


def test_gen_and_tables_zero_diff(tmp_path, monkeypatch):
    assert run(["gen", "unitary", "24"], tmp_path, monkeypatch) == 0
    assert (tmp_path / "unitary_24.col").exists()
    assert run(["tables", "--outdir", tmp_path], tmp_path, monkeypatch) == 0


def test_tables_without_the_golden_data_exits_4(tmp_path, monkeypatch, capsys):
    # an install that lacks the golden/*.csv package data
    def missing(package):
        raise ModuleNotFoundError("No module named %r" % package)

    monkeypatch.setattr(importlib.resources, "files", missing)
    assert run(["tables", "--outdir", tmp_path], tmp_path, monkeypatch) == 4
    assert capsys.readouterr().err == (
        "input error: golden table table1_adjacency.csv is not installed\n")


def test_tables_mismatch_exits_1(tmp_path, monkeypatch, capsys):
    regenerate = cli.regenerate_tables

    def altered(outdir):
        paths = regenerate(outdir)
        with open(paths[2], "a") as fh:
            fh.write("\n")
        return paths

    monkeypatch.setattr(cli, "regenerate_tables", altered)
    assert run(["tables", "--outdir", tmp_path], tmp_path, monkeypatch) == 1
    assert capsys.readouterr().out.splitlines() == [
        "table1_adjacency.csv: ok (zero diff)", "table2_part1.csv: ok (zero diff)",
        "table3_part2.csv: MISMATCH", "table4_final.csv: ok (zero diff)"]


def test_color_verify_cycle(tmp_path, monkeypatch):
    run(["gen", "unitary", "24"], tmp_path, monkeypatch)
    assert run(["color", "unitary_24.col", "-o", "u24.tc"], tmp_path, monkeypatch) == 0
    assert run(["verify", "unitary_24.col", "u24.tc"], tmp_path, monkeypatch) == 0
    c = read_coloring(tmp_path / "u24.tc")
    assert c.colors_used() == 9


def test_color_thm23_reports_starter_fallback(tmp_path, monkeypatch, capsys):
    run(["gen", "circulant", "21", "1", "3", "4", "17", "18", "20"],
        tmp_path, monkeypatch)
    code = run(["color", "circulant_21.col", "--method", "thm2.3", "-o", "c21.tc"],
               tmp_path, monkeypatch)
    out = capsys.readouterr().out
    assert code == 0
    assert "starter fallback used" in out
    assert read_coloring(tmp_path / "c21.tc").colors_used() == 7


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("gen, output, verifications", [
    (["unitary", 24], ["-o", "g.tc"], 1),
    # the literal rules are decided on vertex 0's star; only the starter
    # coloring is verified
    (["circulant", 21, 1, 3, 4, 17, 18, 20], ["-o", "g.tc"], 1),
    (["circulant", 21, 1, 2, 3, 18, 19, 20], ["-o", "g.tc"], 1),
    # render_matrix checks nothing: the method's own check is the only one
    (["unitary", 24], ["--format", "csv-matrix", "-o", "g.csv"], 1),
], ids=["U_24", "C_21-starter-fallback", "C_21-literal", "U_24-csv-matrix"])
def test_color_verifies_once(tmp_path, monkeypatch, gen, output, verifications):
    run(["gen"] + gen + ["-o", "g.col"], tmp_path, monkeypatch)
    counts = {}
    for module in (cli, coloring, constructions, oracles):
        _count_calls(monkeypatch, module, "verify_total", counts)
    assert run(["color", "g.col"] + output, tmp_path, monkeypatch) == 0
    assert counts == {"verify_total": verifications}


@pytest.mark.parametrize("gen, method, note", [
    (["circulant", 21, 1, 3, 4, 17, 18, 20], "thm2.3", "strategy used: starter"),
    (["circulant", 21, 1, 2, 3, 18, 19, 20], "thm2.3", "strategy used: literal"),
    (["unitary", 30], "thm2.2", "part-1 generators [1], part-2 generators [7, 11, 13]"),
    # the first H is accepted, so the loop fills once
    (["circulant", 30, *range(1, 11), *range(20, 30)], "thm2.5",
     "chosen generators H = [1, 2, 3, 4, 5, 6, 7]"),
], ids=["starter", "literal", "thm2.2-U_30", "thm2.5-C_30"])
def test_thm23_fills_only_the_coloring_it_returns(tmp_path, monkeypatch, capsys,
                                                 gen, method, note):
    run(["gen"] + gen + ["-o", "g.col"], tmp_path, monkeypatch)
    counts = {}
    _count_calls(monkeypatch, constructions, "fill_diagonals", counts)
    capsys.readouterr()
    assert run(["color", "g.col", "--method", method], tmp_path, monkeypatch) == 0
    assert "note: %s" % note in capsys.readouterr().out.splitlines()
    assert counts == {"fill_diagonals": 1}


def test_auto_checks_thm27_preconditions_once(tmp_path, monkeypatch, capsys):
    run(["gen", "unitary", "9"], tmp_path, monkeypatch)
    counts = {}
    for name in ("is_perfect", "exact_chromatic"):
        _count_calls(monkeypatch, constructions, name, counts)
    assert run(["color", "unitary_9.col"], tmp_path, monkeypatch) == 0
    assert "auto-selected method: thm2.7" in capsys.readouterr().out
    assert counts == {"is_perfect": 1, "exact_chromatic": 1}


def test_color_exits_1_when_a_construction_emits_conflicts(tmp_path, monkeypatch, capsys):
    run(["gen", "unitary", "24"], tmp_path, monkeypatch)
    fill = constructions.fill_diagonals

    def broken_fill(n, q, starts):
        c = fill(n, q, starts)
        c.vcol[1] = c.vcol[0]  # 0 ~ 1 in U_24
        return c

    monkeypatch.setattr(constructions, "fill_diagonals", broken_fill)
    capsys.readouterr()
    assert run(["color", "unitary_24.col", "--method", "thm2.2"], tmp_path, monkeypatch) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification: FAILED")
    assert "Traceback" not in err
    assert not (tmp_path / "coloring.tc").exists()


def _spy_on_builds(monkeypatch):
    built = []
    for name in ("build_circulant", "build_unitary"):
        def spy(arg, name=name, original=getattr(constructions, name)):
            built.append((name, arg))
            return original(arg)

        monkeypatch.setattr(constructions, name, spy)
    return built


@pytest.mark.parametrize("gen, method, builds", [
    # the remainder of H = [1] is colored by columns, and it has no even
    # generator, so no even layer is built either
    (["unitary", 30], "thm2.2", []),
    (["circulant", 21, 1, 2, 3, 18, 19, 20], "thm2.3", []),
    # only the even layer of the accepted H = (1..7)'s remainder, for
    # Misra-Gries
    (["circulant", 30, *range(1, 11), *range(20, 30)], "thm2.5",
     [("build_circulant", CirculantSpec(15, {4, 5, 10, 11}))]),
], ids=["U_30", "C_21", "C_30"])
def test_color_builds_nothing_for_the_input_graph(tmp_path, monkeypatch, capsys,
                                                  gen, method, builds):
    run(["gen"] + gen + ["-o", "g.col"], tmp_path, monkeypatch)
    built = _spy_on_builds(monkeypatch)
    assert run(["color", "g.col", "-o", "g.tc"], tmp_path, monkeypatch) == 0
    assert "auto-selected method: %s" % method in capsys.readouterr().out
    assert built == builds


@pytest.mark.parametrize("gen", [
    ["circulant", 21, 1, 2, 3, 18, 19, 20],
    ["circulant", 21, 1, 3, 4, 17, 18, 20],
    ["unitary", 30],
], ids=["C_21-thm2.3-literal", "C_21-thm2.3-starter-fallback", "U_30-thm2.2"])
def test_gen_color_and_verify_build_no_rows_for_a_circulant(tmp_path, monkeypatch, capsys, gen):
    def no_rows(spec):
        raise AssertionError("circulant_rows(%r)" % (spec,))

    monkeypatch.setattr(graphs, "circulant_rows", no_rows)
    assert run(["gen"] + gen + ["-o", "g.col"], tmp_path, monkeypatch) == 0
    assert run(["color", "g.col", "-o", "g.tc"], tmp_path, monkeypatch) == 0
    assert run(["verify", "g.col", "g.tc"], tmp_path, monkeypatch) == 0
    # edge {0, 1} takes vertex 0's color
    c = read_coloring(tmp_path / "g.tc")
    c.edge_color[(0, 1)] = c.vertex_color[0]
    coloring.write_coloring(c, tmp_path / "bad.tc")
    capsys.readouterr()
    assert run(["verify", "g.col", "bad.tc"], tmp_path, monkeypatch) == 1
    assert "conflict: ('vertex-edge', 0, (0, 1))" in capsys.readouterr().out


def test_the_complete_method_answers_a_circulant_from_its_spec(tmp_path, monkeypatch, capsys):
    # no theorem takes C_70008{±1,±2,±3}: `color` tries the complete method
    # last and exits 2, with no n-bit rows built; classify still decides
    # U_8 = K_4,4 and K_6 by theorem
    def no_rows(spec):
        raise AssertionError("circulant_rows(%r)" % (spec,))

    monkeypatch.setattr(graphs, "circulant_rows", no_rows)
    assert run(["gen", "circulant", 70008, 1, 2, 3, 70005, 70006, 70007, "-o", "c.col"],
               tmp_path, monkeypatch) == 0
    assert run(["color", "c.col", "-o", "c.tc"], tmp_path, monkeypatch) == 2
    assert "complete: not K_n with n even nor K_{m,m}" in capsys.readouterr().err
    for gen in (["unitary", 8], ["circulant", 6, 1, 2, 3, 4, 5]):
        assert run(["gen", *gen, "-o", "g.col"], tmp_path, monkeypatch) == 0
        capsys.readouterr()
        assert run(["classify", "g.col"], tmp_path, monkeypatch) == 0
        assert "classification: TypeII" in capsys.readouterr().out.splitlines()


def test_color_help_has_no_strategy_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["color", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--method" in out
    assert "--strategy" not in out
    # argparse wraps the help text; every registry method is listed
    assert "one of %s (default: auto)" % ", ".join(["auto", *constructions.METHODS]) \
        in " ".join(out.split())


def test_color_unknown_method_exits_2_naming_every_method(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["color", "g.col", "--method", "nope"])
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    prefix = "totcol color: error: argument --method: invalid choice: 'nope' (choose from "
    assert last.startswith(prefix) and last.endswith(")")
    # quoted or not, depending on the Python version
    names = [name.strip("'") for name in last[len(prefix):-1].split(", ")]
    assert names == ["auto", *constructions.METHODS]


_ERRORS = [
    (constructions.ConstructionError("boom"), 2, "precondition error: boom\n"),
    (constructions.PreconditionError("boom"), 2, "precondition error: boom\n"),
    (constructions.VerificationFailure("boom", None), 1, "verification: FAILED: boom\n"),
    (oracles.BudgetExhausted("boom"), 3, "inconclusive: boom\n"),
    (oracles.OracleError("boom"), 4, "input error: boom\n"),
    (graphs.GraphError("boom"), 4, "input error: boom\n"),
    (coloring.ColoringError("boom"), 4, "input error: boom\n"),
    (OSError("boom"), 4, "input error: boom\n"),
]


@pytest.mark.parametrize("error, code, err", _ERRORS,
                         ids=[type(error).__name__ for error, _, _ in _ERRORS])
def test_main_maps_each_error_to_its_exit_code(tmp_path, monkeypatch, capsys, error, code, err):
    def failing(n):
        raise error

    monkeypatch.setattr(cli, "build_unitary", failing)
    assert run(["gen", "unitary", "8"], tmp_path, monkeypatch) == code
    assert capsys.readouterr() == ("", err)


def test_main_lets_other_errors_through(tmp_path, monkeypatch):
    def failing(n):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "build_unitary", failing)
    with pytest.raises(ValueError, match="^boom$"):
        run(["gen", "unitary", "8"], tmp_path, monkeypatch)


def test_verify_corrupted_csv_exits_1(tmp_path, monkeypatch, capsys):
    run(["gen", "unitary", "24"], tmp_path, monkeypatch)
    run(["color", "unitary_24.col", "--format", "csv-matrix", "-o", "u24.csv"],
        tmp_path, monkeypatch)
    grid = matrix_from_csv(tmp_path / "u24.csv")
    grid[0][1] = grid[1][0] = grid[0][0]  # edge {0,1} takes vertex 0's color
    matrix_to_csv(grid, tmp_path / "bad.csv")
    code = run(["verify", "unitary_24.col", "bad.csv"], tmp_path, monkeypatch)
    out = capsys.readouterr().out
    assert code == 1
    assert "vertex-edge" in out


def test_color_refuses_a_csv_matrix_above_the_cap_before_coloring(tmp_path, monkeypatch,
                                                                  capsys):
    # 5000^2 cells would be 200 MB of row pointers; thm2.3 colors C_5000{±1}
    # in any other format, so the refusal comes before the coloring
    def no_coloring(G):
        raise AssertionError("a coloring was built")

    run(["gen", "circulant", 5000, 1, 4999, "-o", "g.col"], tmp_path, monkeypatch)
    monkeypatch.setattr(constructions, "color_auto", no_coloring)
    capsys.readouterr()
    assert run(["color", "g.col", "--format", "csv-matrix", "-o", "g.csv"],
               tmp_path, monkeypatch) == 4
    assert capsys.readouterr() == (
        "", "input error: --format csv-matrix takes at most 4096 vertices, not 5000\n")
    assert not (tmp_path / "g.csv").exists()


def test_color_precondition_exit_2(tmp_path, monkeypatch):
    run(["gen", "circulant", "10", "1", "9"], tmp_path, monkeypatch)
    code = run(["color", "circulant_10.col", "--method", "thm2.3"],
               tmp_path, monkeypatch)
    assert code == 2


@pytest.mark.parametrize("gen, method", [
    (["unitary", 8], "thm2.1"),
    (["unitary", 24], "thm2.2"),
    (["circulant", 21, 1, 3, 4, 17, 18, 20], "thm2.3"),
    (["circulant", 10, 1, 2, 3, 7, 8, 9], "thm2.5"),
    (["unitary", 9], "thm2.7"),
    (["circulant", 10, *range(1, 10)], "complete"),
], ids=["U_8", "U_24", "C_21", "C_10", "U_9", "K_10"])
def test_auto_picks_method_and_reports_rejections(tmp_path, monkeypatch, capsys,
                                                 gen, method):
    run(["gen"] + gen + ["-o", "g.col"], tmp_path, monkeypatch)
    capsys.readouterr()
    assert run(["color", "g.col", "-o", "g.tc"], tmp_path, monkeypatch) == 0
    out = capsys.readouterr().out.splitlines()
    assert "auto-selected method: %s" % method in out
    earlier = ["thm2.1", "thm2.2", "thm2.3", "thm2.5", "thm2.7", "complete"]
    earlier = earlier[:earlier.index(method)]
    rejected = [line.split()[1] for line in out if " rejected: " in line]
    assert rejected == earlier
    assert "verification: clean" in out


@pytest.mark.parametrize("text", ["c circulant 5\np edge 5 0\n", "p edge 5 0\n"],
                         ids=["circulant-comment", "plain"])
def test_edgeless_graph_is_colored_with_one_color(tmp_path, monkeypatch, capsys, text):
    # an edgeless circulant passes thm2.3's divisibility checks with q = 1,
    # and must be rejected as a precondition so that auto moves on to thm2.7
    (tmp_path / "e.col").write_text(text)
    assert run(["color", "e.col", "-o", "e.tc"], tmp_path, monkeypatch) == 0
    out = capsys.readouterr().out.splitlines()
    assert "auto-selected method: thm2.7" in out
    assert read_coloring(tmp_path / "e.tc").colors_used() == 1
    assert run(["verify", "e.col", "e.tc"], tmp_path, monkeypatch) == 0
    assert "verification: clean" in capsys.readouterr().out.splitlines()


def test_auto_without_method_exits_2_with_every_reason(tmp_path, monkeypatch, capsys):
    run(["gen", "circulant", "7", "1", "6"], tmp_path, monkeypatch)
    capsys.readouterr()
    assert run(["color", "circulant_7.col"], tmp_path, monkeypatch) == 2
    err = capsys.readouterr().err
    for name in ("thm2.1", "thm2.2", "thm2.3", "thm2.5", "thm2.7", "complete"):
        assert "%s: " % name in err


@pytest.mark.parametrize("gen, colors, construction", [
    (["circulant", 10, *range(1, 10)], 11, "complete-even"),
    (["circulant", 12, 1, 3, 5, 7, 9, 11], 8, "complete-bipartite"),
], ids=["K_10", "K_6,6"])
def test_color_complete_gives_delta_plus_2(tmp_path, monkeypatch, capsys, gen, colors,
                                           construction):
    run(["gen"] + gen + ["-o", "g.col"], tmp_path, monkeypatch)
    capsys.readouterr()
    assert run(["color", "g.col", "--method", "complete", "-o", "g.tc"],
               tmp_path, monkeypatch) == 0
    out = capsys.readouterr().out.splitlines()
    assert "note: construction: %s" % construction in out
    assert "colors used: %d" % colors in out
    assert run(["verify", "g.col", "g.tc"], tmp_path, monkeypatch) == 0
    assert "verification: clean" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("graph, method, reason", [
    (["circulant", 15, 1, 6, 9, 14], "thm2.3",
     "half-set generators not pairwise distinct mod Delta+1 = 5"),
    # the paw: triangle 1-2-3 and the edge 3-4
    ("p edge 4 4\ne 1 2\ne 2 3\ne 1 3\ne 3 4\n", "thm2.7",
     "chromatic number 3 does not divide n = 4"),
    # a bowtie (triangles 1-2-3 and 3-4-5) and the isolated vertex 6
    ("p edge 6 6\ne 1 2\ne 2 3\ne 1 3\ne 3 4\ne 4 5\ne 3 5\n", "thm2.7",
     "no disjoint cover by maximum cliques"),
], ids=["C_15", "paw", "bowtie"])
def test_color_rejection_exits_2_with_its_reason(tmp_path, monkeypatch, capsys, graph,
                                                 method, reason):
    if isinstance(graph, list):
        run(["gen"] + graph + ["-o", "g.col"], tmp_path, monkeypatch)
    else:
        (tmp_path / "g.col").write_text(graph)
    capsys.readouterr()
    assert run(["color", "g.col", "--method", method], tmp_path, monkeypatch) == 2
    assert capsys.readouterr().err == "precondition error: %s\n" % reason


def test_color_complete_rejects_other_graphs(tmp_path, monkeypatch, capsys):
    run(["gen", "circulant", "10", "1", "2", "8", "9", "-o", "g.col"], tmp_path, monkeypatch)
    capsys.readouterr()
    assert run(["color", "g.col", "--method", "complete"], tmp_path, monkeypatch) == 2
    assert "not K_n with n even nor K_{m,m}" in capsys.readouterr().err


def test_color_thm27_beyond_perfectness_limit_exits_2(tmp_path, monkeypatch, capsys):
    run(["gen", "unitary", "24"], tmp_path, monkeypatch)
    code = run(["color", "unitary_24.col", "--method", "thm2.7"], tmp_path, monkeypatch)
    assert code == 2
    assert "n <= 20" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["oracle", "unitary_21.col", "--node-limit", "0"],
    ["oracle", "path.col", "--what", "conformable", "--q", "3"],
    ["oracle", "unitary_21.col", "--what", "perfect"],
], ids=["node-limit-0", "conformable-non-regular", "perfect-n-21"])
def test_oracle_bad_input_exit_4(tmp_path, monkeypatch, capsys, argv):
    run(["gen", "unitary", "21"], tmp_path, monkeypatch)
    (tmp_path / "path.col").write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    capsys.readouterr()
    assert run(argv, tmp_path, monkeypatch) == 4
    assert capsys.readouterr().err.startswith("input error: ")


def test_classify_nan_time_limit_exits_4(tmp_path, monkeypatch, capsys):
    # NaN passes a `<= 0` test, and a NaN deadline never passes
    run(["gen", "unitary", "9"], tmp_path, monkeypatch)
    capsys.readouterr()
    code = run(["classify", "unitary_9.col", "--time-limit-secs", "nan"], tmp_path, monkeypatch)
    err = capsys.readouterr().err
    assert code == 4
    assert err == "input error: budget limits must be positive\n"
    assert "Traceback" not in err


@functools.lru_cache(maxsize=None)
def _u420_lines(suffix):
    """The lines of U_420's .col file, or of its thm2.2 .tc file."""
    G = build_unitary(420)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "u420" + suffix)
        if suffix == ".col":
            write_dimacs(G, path)
        else:
            coloring.write_coloring(constructions.color_unitary_even(G).coloring, path)
        with open(path) as fh:
            return tuple(fh.read().splitlines())


def _u420(suffix, edits):
    """A function giving U_420's `suffix` file with the lines numbered in
    edits replaced; a replacement may be a function of the lines."""
    def text():
        lines = list(_u420_lines(suffix))
        for lineno, new in edits.items():
            lines[lineno - 1] = new(lines) if callable(new) else new
        return "\n".join(lines) + "\n"
    return text


def _again(lineno, reverse=False, v=None):
    """The edge line numbered lineno once more, its endpoints swapped if
    reverse, its second endpoint replaced by v if given."""
    def line(lines):
        tok = lines[lineno - 1].split()
        if reverse:
            tok[1], tok[2] = tok[2], tok[1]
        if v is not None:
            tok[2] = str(v)
        return " ".join(tok)
    return line


# Z_9's group table: "n identity", then the n*n products
_Z9 = "9 0\n%s\n" % "\n".join(" ".join(str((i + j) % 9) for j in range(9)) for i in range(9))


# Lines 10240 and 10241 end and start a chunk of the readers.  U_420's .col
# has its edge lines from line 3 on, its .tc from line 422.
@pytest.mark.parametrize("name, text, argv, message", [
    ("bad.col", "p edge 3 1\ne 1\n", ["color", "bad.col"], "line 2: "),
    ("bad.col", "p edge 3 1\ne 1 x\n", ["color", "bad.col"], "line 2: "),
    ("bad.col", "p edge 3 5\ne 1 2\n", ["color", "bad.col"], "line 1: "),
    ("bad.col", "c x\np edge 3 2\ne 1 2\ne 2 1\n", ["color", "bad.col"], "line 4: "),
    ("bad.tc", "t 3 2\nv 0 x\n", ["verify", "k3.col", "bad.tc"], "line 2: "),
    ("bad.tc", "t 3 2\ne 0 1\n", ["verify", "k3.col", "bad.tc"], "line 2: "),
    ("bad.tc", "t 3 3\nv 0 1\nv 1 2\nv 0 3\n", ["verify", "k3.col", "bad.tc"],
     "line 4: repeated vertex 0"),
    # edge {0, 1} takes vertex 0's color, then a later line recolors it
    ("bad.tc", "t 3 3\nv 0 1\nv 1 2\nv 2 3\ne 0 1 1\ne 1 2 1\ne 0 2 2\ne 1 0 3\n",
     ["verify", "k3.col", "bad.tc"], "line 8: repeated edge (0, 1)"),
    ("bad.tc", "t 3 3\nv 0 1\nt 3 3\n", ["verify", "k3.col", "bad.tc"],
     "line 3: repeated `t` header"),
    # a clean coloring of K_3 under a header whose color count is no integer >= 0
    ("bad.tc", "t 3 x\nv 0 1\nv 1 2\nv 2 3\ne 0 1 3\ne 1 2 1\ne 0 2 2\n",
     ["verify", "k3.col", "bad.tc"], "line 1: invalid literal for int() with base 10: 'x'"),
    ("bad.tc", "t 3 -3\nv 0 1\nv 1 2\nv 2 3\ne 0 1 3\ne 1 2 1\ne 0 2 2\n",
     ["verify", "k3.col", "bad.tc"], "line 1: color count -3 below 0: 't 3 -3'"),
    ("bad.csv", ",0,1,2\n0,1,2,3\n1,2,x,1\n2,3,1,2\n", ["verify", "k3.col", "bad.csv"],
     "line 3: "),
    ("bad.csv", ",0,1,2\n0,1,2,3\n1,2,1\n2,3,1,2\n", ["verify", "k3.col", "bad.csv"],
     "line 3: 3 fields, expected 4\n"),
    ("bad.csv", ",0,1,2\n0,1,2,3\n1,2,3,1\n2,3,1,2\n2,3,1,2\n", ["verify", "k3.col", "bad.csv"],
     "CSV not square\n"),
    ("bad.grp", "2 0 0 1 1 x\n", ["gen", "cayley", "bad.grp", "1"], "group table: "),
    # a generator is an element index: 99 and -1 are none of Z_9's
    ("z9.grp", _Z9, ["gen", "cayley", "z9.grp", "99"], "generator 99 outside 0..8\n"),
    ("z9.grp", _Z9, ["gen", "cayley", "z9.grp", "-1", "1", "8"],
     "generator -1 outside 0..8\n"),
    ("bad.col", _u420(".col", {10000: "e 5 x"}), ["color", "bad.col"], "line 10000: "),
    ("bad.col", _u420(".col", {10240: _again(10240, v=421)}), ["color", "bad.col"],
     "line 10240: edge endpoint out of range"),
    ("bad.col", _u420(".col", {10241: "e 0 5"}), ["color", "bad.col"],
     "line 10241: edge endpoint out of range"),
    ("bad.col", _u420(".col", {10241: "e 7 7"}), ["color", "bad.col"], "line 10241: self-loop"),
    ("bad.col", _u420(".col", {10241: _again(10240)}), ["color", "bad.col"],
     "line 10241: repeated edge"),
    ("bad.col", _u420(".col", {10500: _again(10499)}), ["color", "bad.col"],
     "line 10500: repeated edge"),
    ("bad.col", _u420(".col", {12000: _again(11999, reverse=True)}), ["color", "bad.col"],
     "line 12000: repeated edge"),
    ("bad.col", _u420(".col", {10100: _again(10099), 10200: "e 1 999"}), ["color", "bad.col"],
     "line 10100: repeated edge"),
    ("bad.tc", _u420(".tc", {10000: "e 5 6 x"}), ["verify", "k3.col", "bad.tc"],
     "line 10000: "),
    ("bad.tc", _u420(".tc", {10241: "v 3 1"}), ["verify", "k3.col", "bad.tc"],
     "line 10241: repeated vertex 3"),
    ("bad.tc", _u420(".tc", {10241: _again(10240, reverse=True)}),
     ["verify", "k3.col", "bad.tc"], "line 10241: repeated edge"),
    ("bad.tc", _u420(".tc", {10241: _again(10240)}), ["verify", "k3.col", "bad.tc"],
     "line 10241: repeated edge"),
    ("bad.tc", _u420(".tc", {10500: _again(10499)}), ["verify", "k3.col", "bad.tc"],
     "line 10500: repeated edge"),
    ("bad.tc", _u420(".tc", {10241: "v 500 1", 10242: "v 500 2"}),
     ["verify", "k3.col", "bad.tc"], "line 10242: repeated vertex 500"),
    ("bad.tc", _u420(".tc", {10300: _again(10299), 10400: _again(10100, reverse=True)}),
     ["verify", "k3.col", "bad.tc"], "line 10300: repeated edge"),
], ids=["col-one-endpoint", "col-token", "col-edge-count", "col-repeated-edge",
        "tc-token", "tc-field-count", "tc-repeated-vertex", "tc-repeated-edge",
        "tc-repeated-header", "tc-count-token", "tc-count-negative", "csv-token",
        "csv-ragged-row", "csv-extra-row", "grp-token", "grp-generator-above",
        "grp-generator-negative",
        "col-deep-token", "col-deep-range-chunk-end", "col-deep-zero-chunk-start",
        "col-deep-self-loop-chunk-start", "col-deep-repeat-across-chunks",
        "col-deep-repeat", "col-deep-repeat-reversed",
        "col-deep-two-errors", "tc-deep-token", "tc-deep-repeated-vertex-chunk-start",
        "tc-deep-repeat-reversed-across-chunks", "tc-deep-repeat-across-chunks",
        "tc-deep-repeat", "tc-deep-vertex-twice-in-a-chunk", "tc-deep-two-errors"])
def test_malformed_input_exit_4_names_the_line(tmp_path, monkeypatch, capsys,
                                               name, text, argv, message):
    run(["gen", "circulant", "3", "1", "2", "-o", "k3.col"], tmp_path, monkeypatch)
    (tmp_path / name).write_text(text if isinstance(text, str) else text())
    capsys.readouterr()
    assert run(argv, tmp_path, monkeypatch) == 4
    assert capsys.readouterr().err.startswith("input error: " + message)


# color ids are positive; the reader refuses 0 and negative ones by line
@pytest.mark.parametrize("name, text, message", [
    ("bad.tc", "t 3 3\nv 0 1\nv 1 2\nv 2 3\ne 0 1 0\ne 1 2 1\ne 0 2 2\n",
     "line 5: color 0 below 1: 'e 0 1 0'"),
    ("bad.tc", "t 3 3\nv 0 0\nv 1 2\nv 2 3\ne 0 1 3\ne 1 2 1\ne 0 2 2\n",
     "line 2: color 0 below 1: 'v 0 0'"),
    ("bad.tc", "t 3 3\nv 0 1\nv 1 2\nv 2 3\ne 0 1 -3\ne 1 2 1\ne 0 2 2\n",
     "line 5: color -3 below 1: 'e 0 1 -3'"),
    # in a chunk that would otherwise be read at once
    ("bad.tc", _u420(".tc", {10241: lambda lines: lines[10240].rsplit(" ", 1)[0] + " 0"}),
     "line 10241: color 0 below 1"),
    ("bad.csv", ",0,1,2\n0,1,3,2\n1,3,2,0\n2,2,0,3\n", "line 3: color 0 below 1\n"),
    ("bad.csv", ",0,1,2\n0,1,3,2\n1,3,2,1\n2,2,1,-1\n", "line 4: color -1 below 1\n"),
], ids=["tc-edge-0", "tc-vertex-0", "tc-edge-negative", "tc-deep-edge-0", "csv-0",
        "csv-negative"])
def test_verify_refuses_a_color_below_1(tmp_path, monkeypatch, capsys, name, text, message):
    run(["gen", "circulant", "3", "1", "2", "-o", "k3.col"], tmp_path, monkeypatch)
    (tmp_path / name).write_text(text if isinstance(text, str) else text())
    capsys.readouterr()
    assert run(["verify", "k3.col", name], tmp_path, monkeypatch) == 4
    assert capsys.readouterr().err.startswith("input error: " + message)


@pytest.mark.parametrize("header", ["p edge 5000000 0", "p edge 4 7", "p edge -1 0"],
                         ids=["too-many-vertices", "too-many-edges", "negative"])
def test_verify_rejects_an_oversized_problem_line_quickly(tmp_path, header):
    # a 17-byte header once made `verify` allocate 5 M rows and print 5 M lines
    (tmp_path / "big.col").write_text(header + "\n")
    (tmp_path / "one.tc").write_text("t 1 1\nv 0 1\n")
    src = os.path.dirname(os.path.dirname(totcol.__file__))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "totcol.cli", "verify", "big.col", "one.tc"],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 4
    assert proc.stderr.startswith("input error: line 1: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("name, text", [("one.tc", "t 1 1\nv 0 1\n"), ("one.csv", ",0\n0,1\n")],
                         ids=["tc", "csv"])
def test_verify_rejects_a_coloring_of_another_size_quickly(tmp_path, name, text):
    # a one-vertex coloring against 2^20 vertices once printed 1 048 578 lines
    (tmp_path / "big.col").write_text("p edge 1048576 0\n")
    (tmp_path / name).write_text(text)
    src = os.path.dirname(os.path.dirname(totcol.__file__))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "totcol.cli", "verify", "big.col", name],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 4
    assert proc.stderr == "input error: the coloring has 1 vertices, the graph 1048576\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, name, data", [
    (["verify", "k3.col", "bad.tc"], "bad.tc", b"t 3 3\nv 0 1\n\xff\n"),
    (["verify", "k3.col", "bad.csv"], "bad.csv", b",0,1,2\n0,\xff\n"),
    (["gen", "cayley", "bad.grp", "1"], "bad.grp", b"2 0\n0 1\n1 \xff\n"),
], ids=["tc", "csv", "group-table"])
def test_undecodable_input_exits_4_without_traceback(tmp_path, argv, name, data):
    (tmp_path / "k3.col").write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    (tmp_path / name).write_bytes(data)
    src = os.path.dirname(os.path.dirname(totcol.__file__))
    proc = subprocess.run([sys.executable, "-m", "totcol.cli"] + argv, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stderr.startswith("input error: not UTF-8 text: ")
    assert "Traceback" not in proc.stderr


def test_import_leaves_networkx_unloaded():
    src = os.path.dirname(os.path.dirname(totcol.__file__))
    code = "import sys, totcol; sys.exit('networkx' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0


def _modules_after(code, argv=(), cwd=None):
    """The modules loaded in a fresh interpreter after `code`."""
    src = os.path.dirname(os.path.dirname(totcol.__file__))
    code += "; print(sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def _totcol(modules):
    """The totcol modules among `modules`, sorted."""
    return sorted(m for m in modules if m.split(".")[0] == "totcol")


def test_import_loads_no_submodule():
    assert _totcol(_modules_after("import sys, totcol")) == ["totcol"]


_BASE = ["totcol", "totcol.cli", "totcol.coloring", "totcol.graphs"]

# Standard-library modules that slow a command's start: dataclasses (which
# imports inspect) and typing, which no command needs, and csv, which only
# the commands that read or write a CSV file need.
_WATCHED = {"dataclasses", "inspect", "typing", "csv"}

_SOLVERS = sorted(_BASE + ["totcol.constructions", "totcol.oracles"])


@pytest.mark.parametrize("argv, loaded, stdlib", [
    (["gen", "unitary", "8", "-o", "g.col"], _BASE, set()),
    (["verify", "u8.col", "u8.tc"], _BASE, set()),
    (["verify", "u8.col", "u8.csv"], _BASE, {"csv"}),
    (["color", "u8.col", "-o", "g.tc"], _SOLVERS, set()),
    (["classify", "u8.col"], _SOLVERS, set()),
    (["oracle", "u8.col"], sorted(_BASE + ["totcol.oracles"]), set()),
], ids=["gen", "verify", "verify-csv", "color", "classify", "oracle"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, monkeypatch, argv, loaded,
                                                     stdlib):
    run(["gen", "unitary", "8", "-o", "u8.col"], tmp_path, monkeypatch)
    run(["color", "u8.col", "-o", "u8.tc"], tmp_path, monkeypatch)
    run(["color", "u8.col", "--format", "csv-matrix", "-o", "u8.csv"], tmp_path, monkeypatch)
    code = "import sys; from totcol import cli; assert cli.main(sys.argv[1:]) == 0"
    modules = _modules_after(code, argv, tmp_path)
    assert _totcol(modules) == loaded
    # a module that a bare interpreter has loaded (a site hook may import
    # typing) costs the command nothing
    bare = _modules_after("import sys")
    assert (modules - bare) & _WATCHED == stdlib - bare


@pytest.mark.parametrize("argv", [
    ["oracle", "circulant_1500.col", "--what", "conformable", "--q", "3"],
    ["oracle", "circulant_1500.col", "--what", "chromatic"],
    ["classify", "circulant_1500.col", "--node-limit", "100000"],
], ids=["conformable", "chromatic", "classify"])
def test_searches_run_deeper_than_the_recursion_limit(tmp_path, monkeypatch, argv):
    # the 1500-cycle puts every search about 1500 to 3000 levels deep
    run(["gen", "circulant", "1500", "1", "1499"], tmp_path, monkeypatch)
    src = os.path.dirname(os.path.dirname(totcol.__file__))
    proc = subprocess.run([sys.executable, "-m", "totcol.cli"] + argv, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr


def test_oracle_inconclusive_exit_3(tmp_path, monkeypatch):
    run(["gen", "unitary", "9"], tmp_path, monkeypatch)
    code = run(["oracle", "unitary_9.col", "--node-limit", "3"],
               tmp_path, monkeypatch)
    assert code == 3
    code = run(["oracle", "unitary_9.col", "--what", "conformable", "--q", "7",
                "--node-limit", "1"], tmp_path, monkeypatch)
    assert code == 3


@pytest.mark.parametrize("q", ["0", "-1"])
def test_oracle_conformable_class_count_below_1_exits_4(tmp_path, monkeypatch, capsys, q):
    run(["gen", "unitary", "8"], tmp_path, monkeypatch)
    capsys.readouterr()
    code = run(["oracle", "unitary_8.col", "--what", "conformable", "--q", q],
               tmp_path, monkeypatch)
    out, err = capsys.readouterr()
    assert code == 4
    assert err == "input error: class count q must be positive, got %s\n" % q
    assert out == ""


def test_oracle_conformable_class_count_above_n_exits_4(tmp_path, monkeypatch, capsys):
    # a list of q classes would not fit in memory
    (tmp_path / "k3.col").write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    code = run(["oracle", "k3.col", "--what", "conformable", "--q", "100000000000"],
               tmp_path, monkeypatch)
    assert code == 4
    assert capsys.readouterr() == (
        "", "input error: class count q must be at most n = 3, got 100000000000\n")


def test_oracle_cliques_out_of_budget_exits_3_without_traceback(tmp_path, monkeypatch):
    # Moon-Moser K_{3,3,3} has 27 maximal cliques; one node is not enough
    run(["gen", "circulant", "9", "1", "2", "4", "5", "7", "8", "-o", "mm9.col"],
        tmp_path, monkeypatch)
    src = os.path.dirname(os.path.dirname(totcol.__file__))
    proc = subprocess.run([sys.executable, "-m", "totcol.cli", "oracle", "mm9.col",
                           "--what", "cliques", "--node-limit", "1"], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == "inconclusive: clique enumeration budget exhausted after 1 nodes\n"
    assert proc.stdout == ""


def test_classify_out_of_budget_exits_3_without_traceback(tmp_path, monkeypatch):
    run(["gen", "unitary", "9"], tmp_path, monkeypatch)
    src = os.path.dirname(os.path.dirname(totcol.__file__))
    proc = subprocess.run([sys.executable, "-m", "totcol.cli", "classify", "unitary_9.col",
                           "--node-limit", "1"], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert "classification: inconclusive" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_classify_by_construction_spends_no_budget(tmp_path, monkeypatch, capsys):
    # thm2.3 closes C_21's upper bound; the oracle stays the pure search
    run(["gen", "circulant", "21", "1", "3", "4", "17", "18", "20", "-o", "c21.col"],
        tmp_path, monkeypatch)
    capsys.readouterr()
    assert run(["classify", "c21.col", "--node-limit", "1", "-o", "cert.tc"],
               tmp_path, monkeypatch) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "classification: TypeI"
    evidence = [line for line in lines if line.startswith("evidence: ")]
    assert evidence == ["evidence: lower bound by clique: the star of a maximum-degree "
                        "vertex is a clique of Delta+1 items; Delta+1 certificate by "
                        "construction thm2.3 (0 nodes, 0 conformability steps)"]
    assert run(["verify", "c21.col", "cert.tc"], tmp_path, monkeypatch) == 0
    capsys.readouterr()
    assert run(["oracle", "c21.col", "--what", "total-chromatic"], tmp_path, monkeypatch) == 0
    assert "total chromatic number: 7 (lower bound 7, 6096 nodes)" in capsys.readouterr().out


@pytest.mark.parametrize("gen, label, how", [
    (["unitary", 128], "TypeII", "Delta+2 certificate by construction complete-bipartite"),
    (["circulant", 64, *range(1, 64)], "TypeII", "Delta+2 certificate by construction complete-even"),
    (["unitary", 134], "TypeI", "Delta+1 certificate by construction thm2.2"),
], ids=["U_128", "K_64", "U_134"])
def test_classify_decides_graphs_that_need_more_than_64_colors(tmp_path, monkeypatch, capsys,
                                                               gen, label, how):
    run(["gen"] + gen + ["-o", "g.col"], tmp_path, monkeypatch)
    capsys.readouterr()
    assert run(["classify", "g.col", "-o", "g.tc"], tmp_path, monkeypatch) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "classification: %s" % label
    assert out[2].endswith("; %s (0 nodes, 0 conformability steps)" % how)
    assert run(["verify", "g.col", "g.tc"], tmp_path, monkeypatch) == 0


def test_oracles_answer_above_64_colors(tmp_path, monkeypatch, capsys):
    # the star K_{1,64} and K_65
    (tmp_path / "star.col").write_text(
        "p edge 65 64\n" + "".join("e 1 %d\n" % v for v in range(2, 66)))
    run(["gen", "circulant", 65, *range(1, 65), "-o", "k65.col"], tmp_path, monkeypatch)
    capsys.readouterr()
    assert run(["oracle", "star.col"], tmp_path, monkeypatch) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "total chromatic number: 65 (lower bound 65, 65 nodes)")
    assert run(["oracle", "k65.col", "--what", "chromatic"], tmp_path, monkeypatch) == 0
    assert capsys.readouterr().out == "chromatic number: 65\n"


def test_z9_lower_bound_comes_from_conformability(tmp_path, monkeypatch, capsys):
    run(["gen", "circulant", "9", "1", "2", "3", "6", "7", "8", "-o", "z9.col"],
        tmp_path, monkeypatch)
    capsys.readouterr()
    assert run(["oracle", "z9.col", "--what", "total-chromatic"], tmp_path, monkeypatch) == 0
    out = capsys.readouterr().out
    assert "total chromatic number: 8 (lower bound 8, " in out
    assert "evidence: lower bound by conformability: " in out
    assert run(["classify", "z9.col"], tmp_path, monkeypatch) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "classification: TypeII"
    assert lines[-1] == "total chromatic number: 8"
    evidence = [line for line in lines if line.startswith("evidence: ")]
    assert len(evidence) == 1 and "lower bound by conformability" in evidence[0]


def test_io_error_exit_4(tmp_path, monkeypatch):
    code = run(["color", "nope.col"], tmp_path, monkeypatch)
    assert code == 4


def test_oracle_and_classify(tmp_path, monkeypatch, capsys):
    run(["gen", "unitary", "8"], tmp_path, monkeypatch)
    code = run(["classify", "unitary_8.col", "-o", "cert.tc"], tmp_path, monkeypatch)
    out = capsys.readouterr().out
    assert code == 0
    assert "TypeII" in out
    assert (tmp_path / "cert.tc").exists()

    code = run(["oracle", "unitary_8.col", "--what", "cliques"],
               tmp_path, monkeypatch)
    out = capsys.readouterr().out
    assert code == 0
    assert "clique number: 2" in out


def test_oracle_conformable(tmp_path, monkeypatch, capsys):
    run(["gen", "circulant", "9", "1", "2", "3", "6", "7", "8"],
        tmp_path, monkeypatch)
    code = run(["oracle", "circulant_9.col", "--what", "conformable", "--q", "7"],
               tmp_path, monkeypatch)
    out = capsys.readouterr().out
    assert code == 0
    assert "conformable(7): False" in out


@pytest.mark.parametrize("kind, extra", [("unitary", []), ("circulant", ["1", "1048576"])],
                         ids=["unitary", "circulant"])
def test_gen_refuses_more_vertices_than_a_reader_takes(tmp_path, monkeypatch, capsys, kind,
                                                        extra):
    def built(*args):
        raise AssertionError("built %r" % (args,))

    for module, name in ((cli, "build_unitary"), (cli, "build_circulant"),
                         (graphs, "units"), (graphs, "write_dimacs")):
        monkeypatch.setattr(module, name, built)
    n = graphs.MAX_VERTICES + 1
    code = run(["gen", kind, n] + extra + ["-o", "huge.col"], tmp_path, monkeypatch)
    assert code == 4
    assert capsys.readouterr() == (
        "", "input error: vertex count %d above %d, the most a graph file holds\n"
        % (n, n - 1))
    assert not (tmp_path / "huge.col").exists()


@pytest.mark.parametrize("argv, m", [
    # n = 2^20 vertices, the most a reader takes.  U_n has degree 2^19, and
    # this circulant, of 16 inverse pairs and n/2, degree 33.
    (["unitary", 1 << 20], 1 << 38),
    (["circulant", 1 << 20] + [s for d in range(1, 17) for s in (d, (1 << 20) - d)]
     + [1 << 19], 33 << 19),
], ids=["unitary", "circulant"])
def test_gen_refuses_more_edges_than_a_reader_takes(tmp_path, monkeypatch, capsys, argv, m):
    def built(*args):
        raise AssertionError("built %r" % (args,))

    for module, name in ((cli, "build_unitary"), (cli, "build_circulant"),
                         (graphs, "units"), (graphs, "write_dimacs")):
        monkeypatch.setattr(module, name, built)
    code = run(["gen"] + argv + ["-o", "huge.col"], tmp_path, monkeypatch)
    assert code == 4
    assert m > graphs.MAX_EDGES == 1 << 24
    assert capsys.readouterr() == (
        "", "input error: edge count %d above %d, the most a graph file holds\n"
        % (m, graphs.MAX_EDGES))
    assert not (tmp_path / "huge.col").exists()


def test_gen_cayley_from_table(tmp_path, monkeypatch):
    n = 9
    table = tmp_path / "z9.grp"
    rows = [" ".join(str((i + j) % n) for j in range(n)) for i in range(n)]
    table.write_text("%d 0\n%s\n" % (n, "\n".join(rows)))
    code = run(["gen", "cayley", table, "1", "2", "4", "5", "7", "8",
                "-o", "cay9.col"], tmp_path, monkeypatch)
    assert code == 0
    from totcol.graphs import build_unitary, read_dimacs

    assert read_dimacs(tmp_path / "cay9.col").rows == build_unitary(9).rows


def test_outputs_byte_deterministic(tmp_path, monkeypatch):
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        run(["gen", "unitary", "24"], d, monkeypatch)
        run(["color", "unitary_24.col", "-o", "u24.tc"], d, monkeypatch)
        run(["tables", "--outdir", "."], d, monkeypatch)
    for name in ("unitary_24.col", "u24.tc", "table4_final.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _pair_texts(fmt="coloring"):
    """A graph file and a clean coloring of it, as the fuzz tests' seed."""
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()):
        g, c = os.path.join(d, "g.col"), os.path.join(d, "g.out")
        assert main(["gen", "circulant", "15", "1", "2", "13", "14", "-o", g]) == 0
        assert main(["color", g, "--format", fmt, "-o", c]) == 0
        with open(g) as fg, open(c) as fc:
            return fg.read().splitlines(), fc.read().splitlines()


_TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["", "x", "1.5", "1e3", "--", "p", "edge", "e", "v", "t", "c",
                     "circulant", "99"]))
_EDITS = st.lists(st.tuples(
    st.sampled_from(["drop", "truncate", "junk", "repeat", "insert"]),
    st.integers(0, 200), st.integers(0, 4), _TOKENS,
    st.lists(_TOKENS, max_size=5)), max_size=6)


def _mangle(lines, edits, sep=None):
    """Apply the edits to the lines; fields are split at sep (None: runs of
    whitespace) and joined with sep or a space."""
    join = (sep or " ").join
    lines = list(lines)
    for op, at, pos, token, tokens in edits:
        i = at % (len(lines) + 1)
        if op == "insert":
            lines.insert(i, join(tokens))
        elif i == len(lines):
            continue
        elif op == "drop":
            del lines[i]
        elif op == "truncate":
            lines[i] = join(lines[i].split(sep)[:pos])
        elif op == "junk":
            words = lines[i].split(sep) or [""]
            words[pos % len(words)] = token
            lines[i] = join(words)
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(graph_edits=_EDITS, coloring_edits=_EDITS)
def test_verify_survives_mangled_files(graph_edits, coloring_edits):
    # truncated lines, junk tokens, out-of-range or repeated vertices and
    # edges: every outcome is an exit code of the contract, never a traceback
    graph_lines, coloring_lines = _pair_texts()
    with tempfile.TemporaryDirectory() as d:
        g, c = os.path.join(d, "g.col"), os.path.join(d, "g.tc")
        with open(g, "w") as fh:
            fh.write(_mangle(graph_lines, graph_edits))
        with open(c, "w") as fh:
            fh.write(_mangle(coloring_lines, coloring_edits))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["verify", g, c]) in range(5)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(graph_edits=_EDITS, matrix_edits=_EDITS)
def test_color_and_csv_verify_survive_mangled_files(graph_edits, matrix_edits):
    # `color` on a mangled graph file and `verify` of a mangled CSV matrix
    # against the intact graph: an exit code of the contract, never a traceback
    graph_lines, matrix_lines = _pair_texts("csv-matrix")
    with tempfile.TemporaryDirectory() as d:
        g, bad_g = os.path.join(d, "g.col"), os.path.join(d, "bad.col")
        m = os.path.join(d, "m.csv")
        with open(g, "w") as fh:
            fh.write("\n".join(graph_lines) + "\n")
        with open(bad_g, "w") as fh:
            fh.write(_mangle(graph_lines, graph_edits))
        with open(m, "w") as fh:
            fh.write(_mangle(matrix_lines, matrix_edits, sep=","))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["color", bad_g, "-o", os.path.join(d, "c.tc")]) in range(5)
            assert main(["verify", g, m]) in range(5)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(graph_edits=_EDITS,
       argv=st.one_of(
           st.just(["classify"]),
           st.sampled_from(["total-chromatic", "chromatic", "cliques", "perfect"]).map(
               lambda what: ["oracle", "--what", what]),
           st.integers(1, 8).map(lambda q: ["oracle", "--what", "conformable",
                                            "--q", str(q)])))
def test_oracle_and_classify_survive_mangled_files(graph_edits, argv):
    # the exact oracles on a mangled graph file, under a small budget: a
    # result, an exhausted budget or bad input, never a traceback
    graph_lines, _ = _pair_texts()
    with tempfile.TemporaryDirectory() as d:
        g = os.path.join(d, "g.col")
        with open(g, "w") as fh:
            fh.write(_mangle(graph_lines, graph_edits))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv[:1] + [g] + argv[1:] + ["--node-limit", "100"]) in (0, 3, 4)


def _verify(g, c, decline=False):
    """verify's exit code, stdout and stderr on (g, c); with decline, the
    `.tc` reader is not given the graph, so it reads no file by columns."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        if decline:
            mp.setattr(cli, "read_coloring", lambda path, G=None: read_coloring(path))
        code = main(["verify", g, c])
    return code, out.getvalue(), err.getvalue()


def _same_answer_by_both_routes(g, c):
    taken = _verify(g, c)
    assert taken == _verify(g, c, decline=True)
    return taken


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(graph_edits=_EDITS, coloring_edits=_EDITS)
def test_both_verify_routes_answer_alike_on_mangled_files(graph_edits, coloring_edits):
    graph_lines, coloring_lines = _pair_texts()
    with tempfile.TemporaryDirectory() as d:
        g, c = os.path.join(d, "g.col"), os.path.join(d, "g.tc")
        with open(g, "w") as fh:
            fh.write(_mangle(graph_lines, graph_edits))
        with open(c, "w") as fh:
            fh.write(_mangle(coloring_lines, coloring_edits))
        _same_answer_by_both_routes(g, c)


def _variants(lines, rnd):
    """The lines of a `.tc` file (the `t` header, n vertex lines, then the
    edge lines) and each of its edits, by name."""
    n, count = map(int, lines[0].split()[1:])
    first_edge = n + 1

    def recolored(i):
        tok = lines[i].split()
        tok[-1] = str(int(tok[-1]) % 8 + 1)
        return lines[:i] + [" ".join(tok)] + lines[i + 1:]

    i = rnd.randrange(1, len(lines))
    out = {"canonical": lines,
           "recolored-vertex": recolored(rnd.randrange(1, first_edge)),
           "blank": lines[:i] + [""] + lines[i:],
           "merged": lines[:i - 1] + [lines[i - 1] + " " + lines[i]] + lines[i + 1:],
           "crlf": [line + "\r" for line in lines],
           "wrong-n": ["t %d %d" % (n + rnd.choice([-1, 1]), count)] + lines[1:]}
    if len(lines) > first_edge:
        e = rnd.randrange(first_edge, len(lines))
        out["recolored-edge"] = recolored(e)
        tok = lines[e].split()
        tok[2] = "0" + tok[2]
        out["leading-zero"] = lines[:e] + [" ".join(tok)] + lines[e + 1:]
        tok[2] = str((int(tok[2]) + 1) % n)
        out["other-end"] = lines[:e] + [" ".join(tok)] + lines[e + 1:]
    if len(lines) > first_edge + 1:
        j = rnd.randrange(first_edge, len(lines) - 1)
        out["swapped"] = lines[:j] + [lines[j + 1], lines[j]] + lines[j + 2:]
    return out


def _coloring_of(G, rnd):
    """A total coloring of G: a construction's, an exact one, or random."""
    try:
        return constructions.color_auto(G)[1]
    except constructions.ConstructionError:
        pass
    res = oracles.exact_total_chromatic(G, oracles.SearchBudget(node_limit=2000))
    if res.status == "exact":
        return res.coloring
    k = G.max_degree + 2
    return coloring.TotalColoring(G.n, {v: rnd.randint(1, k) for v in range(G.n)},
                                  {e: rnd.randint(1, k) for e in G.edges()})


def test_both_verify_routes_answer_alike_on_edited_circulant_files(tmp_path):
    rnd = random.Random(2026)
    clean = 0
    for _ in range(40):
        n = rnd.randint(2, 40)
        half = [s for s in range(1, n // 2 + 1) if rnd.random() < 0.3] or [1]
        G = graphs.build_circulant(CirculantSpec(n, half + [n - s for s in half]))
        g = str(tmp_path / "g.col")
        write_dimacs(G, g)
        coloring.write_coloring(_coloring_of(G, rnd), tmp_path / "c.tc")
        lines = (tmp_path / "c.tc").read_text().splitlines()
        for name, variant in _variants(lines, rnd).items():
            c = tmp_path / ("%s.tc" % name)
            c.write_text("\n".join(variant) + "\n")
            code, _, _ = _same_answer_by_both_routes(g, str(c))
            clean += name == "canonical" and code == 0
    assert clean >= 20


def _read_or_error(path, *G):
    try:
        return read_coloring(path, *G)
    except coloring.ColoringError as exc:
        return str(exc)


def test_reading_with_the_graph_leaves_the_listing_as_the_read_without_it(tmp_path,
                                                                           monkeypatch):
    # Given a circulant, read_coloring reads its listing by columns until a
    # run departs from it, at any run length; the coloring read, or the
    # error, is that of the read with no graph.  A column coloring hands
    # over to its dicts on ==, so the comparison is between dicts.
    rnd = random.Random(2032)
    kinds = set()
    for spec in (CirculantSpec(21, {1, 3, 4, 17, 18, 20}), CirculantSpec(10, {1, 5, 9}),
                 CirculantSpec(30, set(range(1, 11)) | set(range(20, 30))),
                 build_unitary(24).circulant):
        G = graphs.build_circulant(spec)
        coloring.write_coloring(_coloring_of(G, rnd), tmp_path / "c.tc")
        lines = (tmp_path / "c.tc").read_text().splitlines()
        for name, variant in _variants(lines, rnd).items():
            path = tmp_path / ("%s.tc" % name)
            path.write_text("\n".join(variant) + "\n")
            for size in (1, 2, 3, 1024):
                monkeypatch.setattr(graphs, "CHUNK_LINES", size)
                got = _read_or_error(path, G)
                kinds.add((name, type(got)))
                assert got == _read_or_error(path), (spec, name, size)
    assert ("canonical", coloring.ColumnColoring) in kinds
    assert ("swapped", coloring.TotalColoring) in kinds


# The classify ladder of the benchmark and U_24: each canonical file is clean
# by both routes.
@pytest.mark.parametrize("gen, command", [
    (["circulant", 9, 1, 2, 3, 6, 7, 8], "classify"),
    (["unitary", 8], "classify"),
    (["circulant", 6, 1, 2, 3, 4, 5], "classify"),
    (["unitary", 9], "classify"),
    (["unitary", 15], "classify"),
    (["circulant", 7, 1, 2, 3, 4, 5, 6], "classify"),
    (["circulant", 10, 1, 2, 3, 7, 8, 9], "classify"),
    (["circulant", 21, 1, 3, 4, 17, 18, 20], "classify"),
    (["circulant", 21, 1, 2, 3, 18, 19, 20], "classify"),
    (["unitary", 24], "color"),
], ids=["Z_9", "U_8", "K_6", "U_9", "U_15", "K_7", "C_10", "C_21-134", "C_21-123", "U_24"])
def test_both_verify_routes_answer_alike_on_canonical_files(tmp_path, monkeypatch, gen,
                                                             command):
    run(["gen"] + gen + ["-o", "g.col"], tmp_path, monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([command, "g.col", "-o", "g.tc"], tmp_path, monkeypatch) == 0
    code, out, err = _same_answer_by_both_routes("g.col", "g.tc")
    assert (code, out.splitlines()[-1], err) == (0, "verification: clean", "")


def _swap_two_edge_lines(path):
    lines = path.read_text().splitlines(True)
    i = len(lines) - 5
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    path.write_text("".join(lines))


def _recolor_edge_0_1(path):
    c = read_coloring(path)
    c.edge_color[(0, 1)] = c.vertex_color[0]
    coloring.write_coloring(c, path)


# Every `.tc` is read once, by one read_in_chunks pass; kind is the class
# of the coloring verify_total is given.  A listing with a conflict is read
# by columns, and verify_total names the conflict from it.
@pytest.mark.parametrize("gen, edit, code, kind", [
    (["circulant", 21, 1, 3, 4, 17, 18, 20], None, 0, coloring.ColumnColoring),
    (["unitary", 24], None, 0, coloring.ColumnColoring),
    (["circulant", 105, 1, 3, 4, 101, 102, 104], None, 0, coloring.ColumnColoring),
    (["cayley", "z9.grp", 1, 2, 4, 5, 7, 8], None, 0, coloring.TotalColoring),
    (["circulant", 21, 1, 3, 4, 17, 18, 20], _swap_two_edge_lines, 0, coloring.TotalColoring),
    (["circulant", 21, 1, 3, 4, 17, 18, 20], _recolor_edge_0_1, 1, coloring.ColumnColoring),
], ids=["C_21", "U_24", "C_105", "Z_9-table", "C_21-swapped", "C_21-conflict"])
def test_verify_reads_a_circulants_listing_by_columns(tmp_path, monkeypatch, gen, edit,
                                                       code, kind):
    (tmp_path / "z9.grp").write_text(_Z9)
    run(["gen"] + gen + ["-o", "g.col"], tmp_path, monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["color", "g.col", "-o", "g.tc"], tmp_path, monkeypatch) == 0
    if edit:
        edit(tmp_path / "g.tc")
    counts, given = {}, _types_verified(monkeypatch)
    _count_calls(monkeypatch, coloring, "read_in_chunks", counts)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["verify", "g.col", "g.tc"], tmp_path, monkeypatch) == code
    assert (counts, given) == ({"read_in_chunks": 1}, [kind])


def _types_verified(monkeypatch):
    """The list to which each call of cli.verify_total from now on adds the
    class of the coloring it is given, on entry."""
    given, original = [], cli.verify_total

    def recorded(G, c):
        given.append(type(c))
        return original(G, c)

    monkeypatch.setattr(cli, "verify_total", recorded)
    return given


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_verify_reads_a_listing_from_a_pipe_by_columns(tmp_path, monkeypatch, capsys):
    # a pipe is read once, as a file is, so its listing is read by columns
    run(["gen", "circulant", 21, 1, 3, 4, 17, 18, 20, "-o", "g.col"], tmp_path, monkeypatch)
    run(["color", "g.col", "-o", "g.tc"], tmp_path, monkeypatch)
    capsys.readouterr()
    given = _types_verified(monkeypatch)
    r, w = os.pipe()
    try:
        os.write(w, (tmp_path / "g.tc").read_bytes())
        os.close(w)
        assert run(["verify", "g.col", "/dev/fd/%d" % r], tmp_path, monkeypatch) == 0
    finally:
        os.close(r)
    assert capsys.readouterr().out == "colors used: 7\nverification: clean\n"
    assert given == [coloring.ColumnColoring]


def _no_edge_dicts(*args):
    raise AssertionError("a column coloring built its dicts")


@pytest.mark.parametrize("gen", [
    ["circulant", 21, 1, 2, 3, 18, 19, 20],
    ["circulant", 21, 1, 3, 4, 17, 18, 20],
    ["circulant", 2009, 684, 807, 843, 1166, 1202, 1325],
], ids=["C_21-literal", "C_21-starter", "C_2009"])
def test_thm23_colors_classifies_and_verifies_with_no_edge_dict(tmp_path, monkeypatch, gen):
    # thm2.3's coloring is filled, checked and written by columns, and its
    # listing is read back and checked by columns: no dict is built for it
    run(["gen"] + gen + ["-o", "g.col"], tmp_path, monkeypatch)
    monkeypatch.setattr(coloring, "_column_dicts", _no_edge_dicts)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["color", "g.col", "-o", "color.tc"], tmp_path, monkeypatch) == 0
        assert run(["classify", "g.col", "-o", "cert.tc"], tmp_path, monkeypatch) == 0
        for tc in ("color.tc", "cert.tc"):
            assert run(["verify", "g.col", tc], tmp_path, monkeypatch) == 0
    assert (tmp_path / "color.tc").read_bytes() == (tmp_path / "cert.tc").read_bytes()


# sha256 of each output as the dict path wrote it before thm2.2 kept columns
@pytest.mark.parametrize("gen, argv, digest", [
    (["unitary", 30], ["--method", "thm2.2"],
     "8f1d2c291a097f064dbe2c1da31d3944faba6e197c1232930f9630a619826335"),
    (["circulant", 21, 1, 2, 3, 18, 19, 20], ["--format", "csv-matrix"],
     "fdae3fd598703904e39cc387e327d6d7db0595d393e6ad7117d1ca648bb9e31f"),
], ids=["U_30-thm2.2", "C_21-csv-matrix"])
def test_thm22_and_the_csv_matrix_build_no_edge_dict(tmp_path, monkeypatch, gen, argv,
                                                     digest):
    import hashlib

    run(["gen"] + gen + ["-o", "g.col"], tmp_path, monkeypatch)
    counts = {}
    _count_calls(monkeypatch, coloring, "_column_dicts", counts)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["color", "g.col", "-o", "out"] + argv, tmp_path, monkeypatch) == 0
    assert counts == {}
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("gen", [["unitary", 30], ["circulant", 21, 1, 2, 3, 18, 19, 20]],
                         ids=["U_30", "C_21"])
def test_verify_reads_a_circulants_csv_matrix_by_columns(tmp_path, monkeypatch, capsys, gen):
    # a clean matrix is read and checked by columns, with no edge dict; one
    # with a conflict hands over once and prints the dict route's lines
    run(["gen"] + gen + ["-o", "g.col"], tmp_path, monkeypatch)
    run(["color", "g.col", "--format", "csv-matrix", "-o", "g.csv"], tmp_path, monkeypatch)
    grid = matrix_from_csv(tmp_path / "g.csv")
    grid[0][1] = grid[1][0] = grid[0][0]  # edge {0,1} takes vertex 0's color
    matrix_to_csv(grid, tmp_path / "bad.csv")
    capsys.readouterr()
    with monkeypatch.context() as m:
        m.setattr(cli, "read_matrix",
                  lambda path, G: coloring.parse_matrix(matrix_from_csv(path)))
        assert run(["verify", "g.col", "bad.csv"], tmp_path, monkeypatch) == 1
    by_dicts = capsys.readouterr().out
    assert "conflict: ('vertex-edge', 0, (0, 1))\n" in by_dicts
    counts = {}
    _count_calls(monkeypatch, coloring, "_column_dicts", counts)
    assert run(["verify", "g.col", "g.csv"], tmp_path, monkeypatch) == 0
    assert counts == {}
    assert capsys.readouterr().out.endswith("verification: clean\n")
    assert run(["verify", "g.col", "bad.csv"], tmp_path, monkeypatch) == 1
    assert counts == {"_column_dicts": 1}
    assert capsys.readouterr().out == by_dicts
