"""The graph and coloring files: the coloring reader takes a file a chunk of
lines at a time, the graph reader compares a circulant's file with the
writer's text, and both read every accepted form as the line-by-line grammar
does; the writers' bytes are pinned."""
import bisect
import contextlib
import hashlib
import io
import itertools
import os
import random
import tempfile
import threading
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from totcol import graphs
from totcol.cli import main, unitary_even_parts
from totcol.coloring import (
    TotalColoring,
    matrix_to_csv,
    read_coloring,
    render_matrix,
    write_coloring,
)
from totcol.constructions import color_auto, color_unitary_even
from totcol.graphs import (
    CirculantSpec,
    GraphError,
    build_circulant,
    build_unitary,
    read_dimacs,
    subgraph_of_edges,
    write_dimacs,
)


@st.composite
def graphs_and_colorings(draw):
    """A graph, half the time a circulant (with its `c circulant` line), and
    a total coloring of it with arbitrary colors."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        half = draw(st.sets(st.integers(1, n // 2)))
        G = build_circulant(CirculantSpec(n, half | {n - s for s in half}))
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        G = subgraph_of_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True)))
    color = st.integers(1, 40)
    c = TotalColoring(n, {v: draw(color) for v in range(n)},
                      {e: draw(color) for e in G.edges()})
    return G, c


# What may change in a canonical line and still be read the same: a blank
# line or a comment before it, a tab for a space, a CRLF ending, and an
# edge given as v u instead of u v.
_LINE_EDITS = st.lists(st.sampled_from(["blank", "comment", "tab", "crlf", "reverse"]),
                       max_size=3)


def _loosen(text, edits, comments, rnd, final_newline):
    """text with each line changed by its list of edits (no comments unless
    `comments`), the lines after the header shuffled by rnd unless it is
    None, and the final newline dropped unless `final_newline`."""
    lines = text.splitlines()
    body = next(i for i, line in enumerate(lines) if line[0] in "pt") + 1
    if rnd is not None:
        lines[body:] = rnd.sample(lines[body:], len(lines) - body)
    out = []
    for line, todo in zip(lines, edits + [[]] * len(lines)):
        tok = line.split(" ")
        if "reverse" in todo and tok[0] == "e":
            tok[1], tok[2] = tok[2], tok[1]
        if "blank" in todo:
            out.append("")
        if "comment" in todo and comments:
            out.append("c a comment")
        out.append(("\t" if "tab" in todo else " ").join(tok)
                   + ("\r" if "crlf" in todo else ""))
    return "\n".join(out) + ("\n" if final_newline else "")


def _read_at_chunk_sizes(read, path):
    """read(path) at the default chunk size, then at 1, 2 and 3 lines."""
    results = [read(path)]
    with pytest.MonkeyPatch.context() as mp:
        for size in (1, 2, 3):
            mp.setattr(graphs, "CHUNK_LINES", size)
            results.append(read(path))
    return results


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pair=graphs_and_colorings(),
       graph_edits=st.lists(_LINE_EDITS, max_size=40),
       coloring_edits=st.lists(_LINE_EDITS, max_size=40),
       rnd=st.none() | st.randoms(use_true_random=False),
       final_newline=st.booleans())
def test_chunked_readers_read_every_accepted_form_alike(pair, graph_edits, coloring_edits,
                                                        rnd, final_newline):
    G, c = pair
    with tempfile.TemporaryDirectory() as d:
        g_path, c_path = os.path.join(d, "g.col"), os.path.join(d, "g.tc")
        write_dimacs(G, g_path)
        write_coloring(c, c_path)
        for path, edits, comments in ((g_path, graph_edits, True),
                                      (c_path, coloring_edits, False)):
            with open(path) as fh:
                text = _loosen(fh.read(), edits, comments, rnd, final_newline)
            with open(path, "w", newline="") as fh:  # keeps the CRs
                fh.write(text)
        assert _read_at_chunk_sizes(read_dimacs, g_path) == [G] * 4
        assert _read_at_chunk_sizes(read_coloring, c_path) == [c] * 4


# How a circulant's `.col` may differ from the writer's: after these the
# circulant check must fail, or pass with the graph the line reader returns.
# The last four still hold the circulant but differ from the writer's text:
# the text comparison refuses them, and the line reader reads the graph.
_HARMLESS = ("leading-zero", "comment-unsorted", "comment-doubled-space", "trailing-blank")
_MUTATIONS = ("none", "repeat-later", "reverse", "swap", "off-difference",
              "comment-after-p", "comment-other-n", "missing", "extra", "self-loop",
              "out-of-range", "problem-line-repeated") + _HARMLESS


@st.composite
def circulant_files(draw):
    """The text of write_dimacs for a circulant with n <= 60, changed by one
    mutation, and that mutation ("none" if it found nothing to change)."""
    kind = draw(st.sampled_from(_MUTATIONS))
    if kind in ("none", "comment-after-p", "comment-other-n", "comment-unsorted",
                "comment-doubled-space", "trailing-blank"):
        n = draw(st.integers(1, 60))
        half = draw(st.sets(st.integers(1, n // 2))) if n > 1 else set()
    else:  # at least two edges to change
        n = draw(st.integers(3, 60))
        half = draw(st.sets(st.integers(1, n // 2), min_size=1))
    G = build_circulant(CirculantSpec(n, half | {n - s for s in half}))
    with tempfile.TemporaryDirectory() as d:
        write_dimacs(G, os.path.join(d, "g.col"))
        with open(os.path.join(d, "g.col")) as fh:
            lines = fh.read().splitlines()
    body = range(2, len(lines))  # the edge lines
    index = st.sampled_from(body)
    if kind == "repeat-later":
        i = draw(st.sampled_from(body[:-1]))
        lines[draw(st.integers(i + 1, body[-1]))] = lines[i]
    elif kind == "reverse":
        i = draw(index)
        tag, u, v = lines[i].split()
        lines[i] = " ".join((tag, v, u))
    elif kind == "swap":
        i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "off-difference":
        off = [(i, u, v) for i in body for u in [int(lines[i].split()[1])]
               for v in range(u + 1, n + 1) if v - u not in G.circulant.connection]
        if not off:  # a complete graph
            return "\n".join(lines) + "\n", "none"
        i, u, v = draw(st.sampled_from(off))
        lines[i] = "e %d %d" % (u, v)
    elif kind == "comment-after-p":
        lines[0], lines[1] = lines[1], lines[0]
    elif kind == "comment-other-n":
        tok = lines[0].split()
        tok[2] = str(draw(st.integers(1, 61).filter(lambda k: k != n)))
        lines[0] = " ".join(tok)
    elif kind == "missing":
        del lines[draw(index)]
    elif kind == "extra":
        u = draw(st.integers(1, n - 1))
        edge = "e %d %d" % (u, draw(st.integers(u + 1, n)))
        lines.insert(draw(st.integers(2, len(lines))), edge)
    elif kind == "self-loop":
        i = draw(index)
        u = lines[i].split()[1]
        lines[i] = "e %s %s" % (u, u)
    elif kind == "out-of-range":
        # 0 or n+1 at either end, or a v beyond n whose difference is in S
        i, k, value = draw(st.sampled_from(
            [(i, k, value) for i in body for k in (1, 2) for value in (0, n + 1)]
            + [(i, 2, u + s) for i in body for u in [int(lines[i].split()[1])]
               for s in G.circulant.connection if u + s > n]))
        tok = lines[i].split()
        tok[k] = str(value)
        lines[i] = " ".join(tok)
    elif kind == "problem-line-repeated":
        lines.insert(2, lines[1])
    elif kind == "leading-zero":
        i = draw(index)
        tok = lines[i].split()
        k = draw(st.sampled_from((1, 2)))
        tok[k] = "0" + tok[k]
        lines[i] = " ".join(tok)
    elif kind == "comment-unsorted":
        tok = lines[0].split()
        if len(tok) < 5:  # fewer than two generators to reorder
            return "\n".join(lines) + "\n", "none"
        lines[0] = " ".join(tok[:3] + tok[:2:-1])
    elif kind == "comment-doubled-space":
        head, _, tail = lines[0].rpartition(" ")
        lines[0] = head + "  " + tail
    elif kind == "trailing-blank":
        lines.append("")
    return "\n".join(lines) + "\n", kind


def _read_circulant(path):
    with open(path) as fh:
        return graphs._read_circulant(fh)


def _graph_or_error(path):
    try:
        return read_dimacs(path)
    except GraphError as exc:
        return "GraphError: %s" % exc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=circulant_files())
def test_circulant_check_reads_what_the_line_reader_reads(case):
    text, kind = case
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.col")
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_read_circulant", lambda fh: None)
            expected = _graph_or_error(path)
        assert _read_at_chunk_sizes(_graph_or_error, path) == [expected] * 4
        if kind == "none":
            assert _read_circulant(path) == expected
        if kind in _HARMLESS:
            assert _read_circulant(path) is None
            assert isinstance(expected, graphs.Graph)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 60), unitary=st.booleans(), data=st.data())
def test_gen_output_never_reaches_the_slow_reread(n, unitary, data):
    if unitary:
        argv, G = ["unitary", str(n)], build_unitary(n)
    else:
        half = data.draw(st.sets(st.integers(1, n // 2), min_size=1))
        G = build_circulant(CirculantSpec(n, half | {n - s for s in half}))
        argv = ["circulant", str(n)] + [str(s) for s in sorted(G.circulant.connection)]
    slow = []
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        path = os.path.join(d, "g.col")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", *argv, "-o", path]) == 0
        mp.setattr(graphs, "_read_edge_list", lambda fh: slow.append(fh))
        assert _read_at_chunk_sizes(read_dimacs, path) == [G] * 4
    assert slow == []


@pytest.mark.parametrize("text, error", [
    # 2^20 edges claimed over two edge lines: the file has no room for them,
    # so the text comparison stops before it builds 2^20 vertex names
    ("c circulant 1048576 1 1048575\np edge 1048576 1048576\ne 1 2\ne 2 3\n",
     "line 2: problem line declares 1048576 edges, the file lists 2"),
    # the writer's text for an edgeless circulant, one vertex too many
    ("c circulant 1048577 \np edge 1048577 0\n", "line 2: vertex count 1048577 outside"),
    # one edge more than a reader takes, by the `p` line alone
    ("p edge 1048576 16777217\ne 1 2\n", "line 1: edge count 16777217 above 16777216"),
    # the header of the writer's text for a circulant of 33 * 2^19 edges
    ("c circulant 1048576 %s\np edge 1048576 17301504\n" % " ".join(map(str, sorted(
        {s for d in range(1, 17) for s in (d, 1048576 - d)} | {524288}))),
     "line 2: edge count 17301504 above 16777216"),
], ids=["edges-claimed", "too-many-vertices", "too-many-edges", "circulant-too-many-edges"])
def test_a_short_file_claiming_a_large_circulant_is_refused_in_little_memory(
        tmp_path, text, error):
    path = tmp_path / "big.col"
    path.write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_read_circulant", lambda fh: None)
        expected = _graph_or_error(path)
    assert expected.startswith("GraphError: " + error)
    assert _graph_or_error(path) == expected
    tracemalloc.start()
    try:
        assert _read_circulant(path) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_circulant_above_the_edge_bound_is_left_to_the_line_reader(tmp_path, monkeypatch):
    # the writer's own text for C_10{±1}, 10 edges, read with a bound of 9:
    # the text comparison passes it over, and the line reader refuses its
    # `p` line
    path = tmp_path / "c10.col"
    write_dimacs(build_circulant(CirculantSpec(10, [1, 9])), path)
    monkeypatch.setattr(graphs, "MAX_EDGES", 9)
    assert _read_circulant(path) is None
    assert _graph_or_error(path) == "GraphError: line 2: edge count 10 above 9: 'p edge 10 10'"


def test_the_line_reader_allocates_no_rows_before_the_edge_count_holds(tmp_path):
    # these 65 bytes once peaked at 8.4 MB: the line reader allocated 2^20
    # rows at the `p` line, before it read an edge
    path = tmp_path / "big.col"
    path.write_text("c circulant 1048576 1 1048575\np edge 1048576 1048576\ne 1 2\ne 2 3\n")
    tracemalloc.start()
    try:
        error = _graph_or_error(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert error == "GraphError: line 2: problem line declares 1048576 edges, the file lists 2"
    assert peak < 1 << 20


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_a_circulant_reads_from_a_pipe(tmp_path):
    # a pipe has no size to check, and what is read from it cannot be read
    # again by the line reader
    G = build_circulant(CirculantSpec(21, {1, 2, 3, 18, 19, 20}))
    write_dimacs(G, tmp_path / "g.col")
    r, w = os.pipe()
    try:
        os.write(w, (tmp_path / "g.col").read_bytes())
        os.close(w)
        assert read_dimacs("/dev/fd/%d" % r) == G
    finally:
        os.close(r)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_a_refused_circulant_reads_from_a_pipe_by_its_lines(tmp_path):
    # two edge lines swapped: the text comparison refuses the file, and the
    # line reader must still see all of it, not what the comparison left
    G = build_circulant(CirculantSpec(2009, {684, 807, 843, 1166, 1202, 1325}))
    write_dimacs(G, tmp_path / "g.col")
    lines = (tmp_path / "g.col").read_text().splitlines(keepends=True)
    lines[100], lines[101] = lines[101], lines[100]
    (tmp_path / "swapped.col").write_text("".join(lines))
    from_disk = read_dimacs(tmp_path / "swapped.col")
    assert from_disk == G
    r, w = os.pipe()
    # the writer runs in a thread: the file is larger than a pipe's buffer
    writer = threading.Thread(target=lambda: (os.write(w, "".join(lines).encode()),
                                              os.close(w)))
    writer.start()
    try:
        assert read_dimacs("/dev/fd/%d" % r) == from_disk
    finally:
        os.close(r)  # a writer still blocked on a full pipe then fails
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_undecodable_graph_file_is_a_graph_error(tmp_path):
    path = tmp_path / "bad.col"
    path.write_bytes(b"p edge 3 1\ne 1 2\n\xff\n")
    with pytest.raises(GraphError, match="not UTF-8 text"):
        read_dimacs(path)


def test_read_coloring_holds_one_chunk_beyond_what_it_returns(tmp_path):
    # a whole-file read would hold the text and its tokens at once
    path = tmp_path / "u420.tc"
    write_coloring(color_unitary_even(build_unitary(420)).coloring, path)
    tracemalloc.start()
    try:
        c = read_coloring(path)
        returned, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(c.edge_color) == 20160
    assert peak - returned < 1 << 20


# sha256 of the .col, .tc and csv-matrix bytes that `totcol gen` and
# `totcol color` wrote before the writers built their lines in bulk
WRITTEN = [
    ("U_24", lambda: build_unitary(24), (
        "268cdfbceaba7004d115f5f2e120eb028c304bdc124d4e12bee73f71e547ec80",
        "bb40cd4fc2b6db8ad930c7711a2fd1762bcd8d75b07d700c997518d48ab2e75c",
        "3bdd142457f3981d77a04f4509ccf267545a333b5772dcbe6b8d74b21692af64")),
    ("U_306", lambda: build_unitary(306), (
        "3648fc08d7c7d508d476f4b51272b3f7f6d86d64ae2fb27dd82a756bc1726619",
        "0342be444f6daf17afaf366c5496954fa9931668a0fcfc42b504107f470671a8",
        "d7c813940bfef4917889a987961a0b1cb36d36c39408cb49df902bc1f256f18a")),
    ("U_420", lambda: build_unitary(420), (
        "ecd9d9030a5e3bad73e9f0a10fac9af5fa201d1e43de4f6a97a874ac968814cf",
        "fa3a719fb77ffd1088c336cf5d8b122c008467a8fe8d00dff6b0f6fc7aa39d59",
        "6438e287f85f745ea28621b40f595ffa916a4f163c1830eaf3e621d1397402b2")),
    ("C_2009", lambda: build_circulant(CirculantSpec(2009, {684, 807, 843, 1166, 1202, 1325})), (
        "5ba5fe18dc2f647fb4c331c802ee14e98f2ad5f1294b44156ce0ab4698a8bde2",
        "0c0e5abe22b61ef4cd9fbf3ea613414ed93c8d13b076358755a4c920e480e7b6",
        "c9a3a40597fdb82809b013bcdb470a853c72a055123738e9a9ab054c669ed0f1")),
]


@pytest.mark.parametrize("build, digests", [w[1:] for w in WRITTEN],
                         ids=[w[0] for w in WRITTEN])
def test_writers_bytes_are_pinned(tmp_path, build, digests):
    G = build()
    _, c, _, _ = color_auto(G)
    write_dimacs(G, tmp_path / "g.col")
    write_coloring(c, tmp_path / "g.tc")
    matrix_to_csv(render_matrix(G, c), tmp_path / "g.csv")
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("g.col", "g.tc", "g.csv")) == digests


def reference_write_coloring(c, path):
    """write_coloring as it was before its number-text table: one "%d"
    format per line."""
    es = sorted(c.edge_color)
    us, ws = zip(*es) if es else ((), ())
    with open(path, "w") as fh:
        fh.write("t %d %d\n" % (c.n, c.colors_used())
                 + "".join(map("v %d %d\n".__mod__, sorted(c.vertex_color.items())))
                 + "".join(map("e %d %d %d\n".__mod__,
                               zip(us, ws, map(c.edge_color.__getitem__, es)))))


@st.composite
def colorings_to_write(draw):
    """A coloring as write_coloring may get one: a part of thm2.2's
    coloring of U_n (vertex and edge colors, or edge colors only), or
    arbitrary vertex and edge colors, vertex-only or edge-only, with vertex
    numbers up to 20 000 and colors up to 30 000 for n up to 12."""
    if draw(st.booleans()):
        c = color_unitary_even(build_unitary(draw(st.sampled_from([6, 10, 12, 24])))).coloring
        return draw(st.sampled_from(unitary_even_parts(c) + (c,)))
    n = draw(st.integers(0, 12))
    vertex = st.integers(0, 20_000)
    color = st.integers(1, 30_000)
    kinds = draw(st.sampled_from(["both", "vertices", "edges"]))
    vertices = draw(st.dictionaries(vertex, color)) if kinds != "edges" else {}
    pairs = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]).map(sorted).map(tuple)
    edges = draw(st.dictionaries(pairs, color)) if kinds != "vertices" else {}
    return TotalColoring(n, vertices, edges)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(c=colorings_to_write())
@example(c=TotalColoring(0))
@example(c=TotalColoring(1, {0: 1}))
@example(c=TotalColoring(3, {}, {(0, 2): 7}))
@example(c=TotalColoring(20_001, {20_000: 1, 10_000: 30_000}))
@example(c=TotalColoring(2, {0: True, 1: 2.0}, {(0, 1): 3}))  # "%d" % each number
def test_write_coloring_matches_the_per_line_reference(c):
    with tempfile.TemporaryDirectory() as d:
        mine, reference = os.path.join(d, "a.tc"), os.path.join(d, "b.tc")
        write_coloring(c, mine)
        reference_write_coloring(c, reference)
        with open(mine, "rb") as a, open(reference, "rb") as b:
            assert a.read() == b.read()


def reference_circulant_text(spec):
    """_circulant_text as it was before it built the text by columns: one
    bisect, comprehension and join per vertex."""
    n, conn = spec.n, sorted(spec.connection)
    yield "c circulant %d %s\n" % (n, " ".join(map(str, conn)))
    yield "p edge %d %d\n" % (n, n * len(conn) // 2)
    if not conn:
        return
    names = list(map(str, range(1, n + 1)))
    piece, count = [], 0
    for u in range(n - conn[0]):
        head = "e " + names[u] + " "
        gens = conn[:bisect.bisect_left(conn, n - u)]
        piece.append(head + ("\n" + head).join([names[u + s] for s in gens]) + "\n")
        count += len(gens)
        if count >= graphs.CHUNK_LINES:
            yield "".join(piece)
            piece, count = [], 0
    yield "".join(piece)


def _same_pieces_as_the_reference(spec):
    """True when _circulant_text yields the reference's pieces, each after
    the header holding at most CHUNK_LINES + |S| - 1 lines."""
    pieces = list(graphs._circulant_text(spec))
    return (pieces == list(reference_circulant_text(spec))
            and all(piece.count("\n") <= graphs.CHUNK_LINES + spec.degree - 1
                    for piece in pieces[2:]))


@pytest.mark.parametrize("chunk", [1, 2, 3, 1024])
def test_circulant_text_is_the_per_vertex_text_for_every_small_circulant(chunk):
    # every symmetric connection set with n <= 16, n/2 included where n is
    # even: n = 1 and n = 2 and the empty sets are among them
    specs = [CirculantSpec(n, set(half) | {n - s for s in half})
             for n in range(1, 17)
             for size in range(n // 2 + 1)
             for half in itertools.combinations(range(1, n // 2 + 1), size)]
    assert len(specs) == 765
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "CHUNK_LINES", chunk)
        assert [spec for spec in specs if not _same_pieces_as_the_reference(spec)] == []


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 300), density=st.floats(0, 1),
       rnd=st.randoms(use_true_random=False), chunk=st.sampled_from([1, 2, 3, 1024]))
@example(n=300, density=1.0, rnd=random.Random(0), chunk=1024)  # K_300
@example(n=297, density=0.02, rnd=random.Random(1), chunk=3)
def test_circulant_text_is_the_per_vertex_text(n, density, rnd, chunk):
    half = {s for s in range(1, n // 2 + 1) if rnd.random() < density}
    spec = CirculantSpec(n, half | {n - s for s in half})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "CHUNK_LINES", chunk)
        assert _same_pieces_as_the_reference(spec)


def test_a_refused_circulant_file_reads_as_its_spec_in_memory_linear_in_m(tmp_path, monkeypatch):
    # two edge lines swapped: the line reader reads the file, catches
    # repeated edges with one code per edge, not an n-bit mask per vertex,
    # and returns the circulant of the comment with no rows
    n = 10007
    spec = CirculantSpec(n, {1, 3, 4, n - 4, n - 3, n - 1})
    write_dimacs(build_circulant(spec), tmp_path / "g.col")
    lines = (tmp_path / "g.col").read_text().splitlines(keepends=True)
    lines[100], lines[101] = lines[101], lines[100]
    (tmp_path / "swapped.col").write_text("".join(lines))

    def no_rows(spec):
        raise AssertionError("circulant_rows(%r)" % (spec,))

    monkeypatch.setattr(graphs, "circulant_rows", no_rows)
    tracemalloc.start()
    try:
        G = read_dimacs(tmp_path / "swapped.col")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (G.n, G.circulant) == (n, spec) and "rows" not in vars(G)
    assert peak < n * n // 16  # what the masks of the upper triangle alone take
