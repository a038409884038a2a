import contextlib
import functools
import io
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import totcol
from totcol import cli, coloring, constructions, oracles
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

    monkeypatch.setattr(cli.resources, "files", missing)
    assert run(["tables", "--outdir", tmp_path], tmp_path, monkeypatch) == 4
    assert capsys.readouterr().err == (
        "input error: golden table table1_adjacency.csv is not installed\n")


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
    # render_matrix checks coverage through verify_total unless partial=True
    (["unitary", 24], ["--format", "csv-matrix", "-o", "g.csv"], 1),
], ids=["U_24", "C_21-starter-fallback", "C_21-literal", "U_24-csv-matrix"])
def test_color_verifies_once(tmp_path, monkeypatch, gen, output, verifications):
    run(["gen"] + gen + ["-o", "g.col"], tmp_path, monkeypatch)
    counts = {}
    for module in (cli, coloring, constructions, oracles):
        _count_calls(monkeypatch, module, "verify_total", counts)
    assert run(["color", "g.col"] + output, tmp_path, monkeypatch) == 0
    assert counts == {"verify_total": verifications}


@pytest.mark.parametrize("generators, strategy", [
    ([1, 3, 4, 17, 18, 20], "starter"),
    ([1, 2, 3, 18, 19, 20], "literal"),
], ids=["starter", "literal"])
def test_thm23_fills_only_the_coloring_it_returns(tmp_path, monkeypatch, capsys,
                                                 generators, strategy):
    run(["gen", "circulant", 21] + generators + ["-o", "g.col"], tmp_path, monkeypatch)
    counts = {}
    _count_calls(monkeypatch, constructions, "fill_diagonals", counts)
    capsys.readouterr()
    assert run(["color", "g.col", "--method", "thm2.3"], tmp_path, monkeypatch) == 0
    assert "note: strategy used: %s" % strategy in capsys.readouterr().out.splitlines()
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
        c.vertex_color[1] = c.vertex_color[0]  # 0 ~ 1 in U_24
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
    (["unitary", 30], "thm2.2", []),
    (["circulant", 21, 1, 2, 3, 18, 19, 20], "thm2.3", []),
    # the remainder of the accepted H = (1..7), then its even layer
    (["circulant", 30, *range(1, 11), *range(20, 30)], "thm2.5",
     [("build_circulant", CirculantSpec(30, {8, 9, 10, 20, 21, 22})),
      ("build_circulant", CirculantSpec(15, {4, 5, 10, 11}))]),
], ids=["U_30", "C_21", "C_30"])
def test_color_builds_nothing_for_the_input_graph(tmp_path, monkeypatch, capsys,
                                                  gen, method, builds):
    run(["gen"] + gen + ["-o", "g.col"], tmp_path, monkeypatch)
    built = _spy_on_builds(monkeypatch)
    assert run(["color", "g.col", "-o", "g.tc"], tmp_path, monkeypatch) == 0
    assert "auto-selected method: %s" % method in capsys.readouterr().out
    assert built == builds


def test_color_help_has_no_strategy_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["color", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--method" in out
    assert "--strategy" not in out


def test_verify_corrupted_csv_exits_1(tmp_path, monkeypatch, capsys):
    run(["gen", "unitary", "24"], tmp_path, monkeypatch)
    run(["color", "unitary_24.col", "--format", "csv-matrix", "-o", "u24.csv"],
        tmp_path, monkeypatch)
    m = matrix_from_csv(tmp_path / "u24.csv")
    m.grid[0][1] = m.grid[1][0] = m.grid[0][0]  # edge {0,1} takes vertex 0's color
    matrix_to_csv(m, tmp_path / "bad.csv")
    code = run(["verify", "unitary_24.col", "bad.csv"], tmp_path, monkeypatch)
    out = capsys.readouterr().out
    assert code == 1
    assert "vertex-edge" in out


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
], ids=["U_8", "U_24", "C_21", "C_10", "U_9"])
def test_auto_picks_method_and_reports_rejections(tmp_path, monkeypatch, capsys,
                                                 gen, method):
    run(["gen"] + gen + ["-o", "g.col"], tmp_path, monkeypatch)
    capsys.readouterr()
    assert run(["color", "g.col", "-o", "g.tc"], tmp_path, monkeypatch) == 0
    out = capsys.readouterr().out.splitlines()
    assert "auto-selected method: %s" % method in out
    earlier = ["thm2.1", "thm2.2", "thm2.3", "thm2.5", "thm2.7"]
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
    for name in ("thm2.1", "thm2.2", "thm2.3", "thm2.5", "thm2.7"):
        assert "%s: " % name in err


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
    ("bad.csv", ",0,1,2\n0,1,2,3\n1,2,x,1\n2,3,1,2\n", ["verify", "k3.col", "bad.csv"],
     "line 3: "),
    ("bad.grp", "2 0 0 1 1 x\n", ["gen", "cayley", "bad.grp", "1"], "group table: "),
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
        "tc-repeated-header", "csv-token", "grp-token",
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


def test_import_leaves_networkx_unloaded():
    src = os.path.dirname(os.path.dirname(totcol.__file__))
    code = "import sys, totcol; sys.exit('networkx' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0


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
    assert "total chromatic number: 7 (lower bound 7, 1771 nodes)" in capsys.readouterr().out


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
    code = run(["classify", "unitary_8.col", "--max-colors", "8",
                "-o", "cert.tc"], tmp_path, monkeypatch)
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
