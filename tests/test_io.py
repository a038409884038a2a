"""The graph and coloring files: the readers take a file a chunk of lines at
a time, and read every accepted form as the line-by-line grammar does; the
writers' bytes are pinned."""
import hashlib
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from totcol import graphs
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
    matrix_to_csv(render_matrix(G, c, partial=True), tmp_path / "g.csv")
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("g.col", "g.tc", "g.csv")) == digests
