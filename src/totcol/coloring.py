"""Total colorings, strict verification, and color matrices.

Color ids are 1-based positive integers; 0 never appears as a color and is
reserved for "blank" when a matrix is rendered.  Edge keys are normalized
(u, v) tuples with u < v.
"""
from __future__ import annotations

import csv
import operator
import re
from dataclasses import dataclass, field
from typing import Dict

from .graphs import Graph, read_in_chunks


def ekey(u: int, v: int) -> tuple:
    """Normalized unordered edge key."""
    return (u, v) if u < v else (v, u)


class ColoringError(ValueError):
    """Raised for malformed coloring inputs or file formats."""


@dataclass
class TotalColoring:
    """Vertex and edge color assignment (possibly partial, e.g. one part of a
    split construction)."""

    n: int
    vertex_color: Dict[int, int] = field(default_factory=dict)
    edge_color: Dict[tuple, int] = field(default_factory=dict)

    def colors_used(self) -> int:
        return len(set(self.vertex_color.values()) | set(self.edge_color.values()))

    def set_edge(self, u: int, v: int, c: int) -> None:
        self.edge_color[ekey(u, v)] = c

    def merged_with(self, other: "TotalColoring") -> "TotalColoring":
        """Union of two fragments; overlapping assignments must agree."""
        if self.n != other.n:
            raise ColoringError("fragment sizes differ")
        out = TotalColoring(self.n, dict(self.vertex_color), dict(self.edge_color))
        for v, c in other.vertex_color.items():
            if out.vertex_color.get(v, c) != c:
                raise ColoringError("vertex %d colored twice inconsistently" % v)
            out.vertex_color[v] = c
        for e, c in other.edge_color.items():
            if out.edge_color.get(e, c) != c:
                raise ColoringError("edge %r colored twice inconsistently" % (e,))
            out.edge_color[e] = c
        return out


@dataclass
class VerificationReport:
    """Exhaustive conflict and coverage diagnostics for a total coloring.

    Conflicts are tagged tuples, sorted lexicographically:
      ("vertex-vertex", u, v)             adjacent vertices share a color
      ("edge-edge", e1, e2, shared)       adjacent edges share a color
      ("vertex-edge", v, e)               an edge matches an incident vertex
    Coverage errors (missing / extra assignments) are reported separately.
    """

    conflicts: list
    coverage_errors: list
    colors_used: int

    @property
    def ok(self) -> bool:
        return not self.conflicts and not self.coverage_errors


def verify_total(G: Graph, c: TotalColoring) -> VerificationReport:
    """Strict, complete verification of a total coloring against G, in one
    pass over its edge colors.

    A key of `c.edge_color` is an edge of G exactly when it is a pair
    (u, v) with 0 <= u < v < n and bit v of `G.rows[u]` set; any other key
    is a non-edge.  Each edge is checked against the colors of its ends,
    and its color joins the color lists of u and v.  Only when fewer than
    `G.edge_count` edges are seen are the edges of G walked, once, to
    report the missing ones.  A vertex whose color list has no repeat costs
    O(deg); only where a color repeats are the edges of its star grouped.

    The cost is O(n + m) dict work, plus a shift of an n-bit row for each
    edge.  `G.edge_count` popcounts every row on its first access only, as
    it is cached on the Graph: on C_21007{1,2,3} (Python 3.11, 2 vCPUs)
    that first access took 35 ms and the check itself 54 ms.  The
    popcounts and the shifts go once adjacency is stored as neighbor
    tuples instead of bitmask rows.
    """
    n, rows, vertex_color = G.n, G.rows, c.vertex_color
    coverage = []
    if c.n != n:
        coverage.append(("size-mismatch", c.n, n))
    for v in range(n):
        if v not in vertex_color:
            coverage.append(("missing-vertex", v))
    for v in vertex_color:
        if not (0 <= v < n):
            coverage.append(("extra-vertex", v))

    conflicts = []
    vcol = [vertex_color.get(v) for v in range(n)]
    at = [[] for _ in range(n)]  # the colors of the edges at each vertex
    seen = 0
    for e, ce in c.edge_color.items():
        try:
            u, v = e
            is_edge = 0 <= u < v < n and rows[u] >> v & 1
        except (TypeError, ValueError):  # not a pair of vertex indices
            is_edge = False
        if not is_edge:
            coverage.append(("non-edge", tuple(e)))
            continue
        seen += 1
        cu, cv = vcol[u], vcol[v]
        if cu is not None and cu == cv:
            conflicts.append(("vertex-vertex", u, v))
        if ce is not None:
            if ce == cu:
                conflicts.append(("vertex-edge", u, (u, v)))
            if ce == cv:
                conflicts.append(("vertex-edge", v, (u, v)))
            at[u].append(ce)
            at[v].append(ce)
    if seen < G.edge_count:
        for (u, v) in G.edges():
            if (u, v) not in c.edge_color:
                coverage.append(("missing-edge", (u, v)))
                if vcol[u] is not None and vcol[u] == vcol[v]:
                    conflicts.append(("vertex-vertex", u, v))
    coverage.sort(key=repr)
    # Adjacent edges share a vertex w: where a color repeats in w's list,
    # group the edges of w's star by color and report the pairs in a group.
    # Neighbors ascend, so each group, and each pair in it, is sorted.
    for w in range(n):
        present = at[w]
        if len(set(present)) == len(present):
            continue
        star = [ekey(w, u) for u in G.neighbors(w)]
        colors = [c.edge_color.get(e) for e in star]
        by_color: dict = {}
        for e, ce in zip(star, colors):
            if ce is not None:
                by_color.setdefault(ce, []).append(e)
        for same in by_color.values():
            for i in range(len(same)):
                for j in range(i + 1, len(same)):
                    conflicts.append(("edge-edge", same[i], same[j], w))
    conflicts = sorted(set(conflicts), key=repr)
    return VerificationReport(conflicts, coverage, c.colors_used())


# ---------------------------------------------------------------------------
# Total color matrix


@dataclass
class TotalColorMatrix:
    """n x n grid; diagonal = vertex colors, cell (i,j) = color of edge {i,j},
    None on blanks."""

    n: int
    grid: list


def render_matrix(G: Graph, c: TotalColoring, partial: bool = False) -> TotalColorMatrix:
    """Render a coloring as the symmetric color matrix.

    With partial=False the coloring must exactly cover G (coverage errors
    raise); partial=True renders whatever is present, leaving blanks.
    """
    if not partial:
        coverage = verify_total(G, c).coverage_errors
        if coverage:
            raise ColoringError("coverage errors: %r" % coverage[:5])
    grid = [[None] * G.n for _ in range(G.n)]
    for v, col in c.vertex_color.items():
        grid[v][v] = col
    for (u, v), col in c.edge_color.items():
        grid[u][v] = col
        grid[v][u] = col
    return TotalColorMatrix(G.n, grid)


def parse_matrix(grid) -> TotalColoring:
    """Inverse of render_matrix: read vertex colors off the diagonal and edge
    colors off the filled off-diagonal cells.  The grid must be symmetric."""
    n = len(grid)
    c = TotalColoring(n)
    for i in range(n):
        if len(grid[i]) != n:
            raise ColoringError("grid is not square")
        if grid[i][i] is not None:
            c.vertex_color[i] = int(grid[i][i])
    for i in range(n):
        for j in range(i + 1, n):
            if grid[i][j] != grid[j][i]:
                raise ColoringError("grid asymmetric at (%d,%d)" % (i, j))
            if grid[i][j] is not None:
                c.edge_color[(i, j)] = int(grid[i][j])
    return c


# ---------------------------------------------------------------------------
# File formats


def write_coloring(c: TotalColoring, path) -> None:
    """Line format: `t <n> <color-count>`, then `v <vertex> <color>` and
    `e <u> <v> <color>` lines, 0-indexed, deterministic order."""
    es = sorted(c.edge_color)
    us, ws = zip(*es) if es else ((), ())
    with open(path, "w") as fh:
        fh.write("t %d %d\n" % (c.n, c.colors_used())
                 + "".join(map("v %d %d\n".__mod__, sorted(c.vertex_color.items())))
                 + "".join(map("e %d %d %d\n".__mod__,
                               zip(us, ws, map(c.edge_color.__getitem__, es)))))


_FIELDS = {"t": 3, "v": 3, "e": 4}

# write_coloring's vertex lines, then its edge lines
_COLORING_LINES = r"(?:v [0-9]+ [0-9]+\n)*(?:e [0-9]+ [0-9]+ [0-9]+\n)*"


def read_coloring(path) -> TotalColoring:
    """Inverse of write_coloring; errors name the offending line.  A second
    `t` header, or a vertex or an edge (in either orientation) given twice,
    is an error, as a repeated edge is in `read_dimacs`."""
    c = None

    def walk(first, lines):
        """Read lines one at a time: the grammar and its error texts."""
        nonlocal c
        for lineno, raw in enumerate(lines, first):
            tok = raw.split()
            if not tok:
                continue
            tag = tok[0]
            try:
                if len(tok) != _FIELDS.get(tag):
                    raise ColoringError("expected `t n k`, `v x c` or `e u v c`")
                if tag == "t":
                    if c is not None:
                        raise ColoringError("repeated `t` header")
                    c = TotalColoring(int(tok[1]))
                elif c is None:
                    raise ColoringError("%r line before the `t` header" % tag)
                elif tag == "v":
                    v = int(tok[1])
                    if v in c.vertex_color:
                        raise ColoringError("repeated vertex %d" % v)
                    c.vertex_color[v] = int(tok[2])
                else:
                    e = ekey(int(tok[1]), int(tok[2]))
                    if e in c.edge_color:
                        raise ColoringError("repeated edge %r" % (e,))
                    c.edge_color[e] = int(tok[3])
            except ValueError as exc:
                raise ColoringError("line %d: %s: %r" % (lineno, exc, raw.strip())) from None

    def bulk(text):
        """Read a chunk of vertex and edge lines at once, unless an edge
        comes as v u with v > u, or a vertex or an edge comes twice, in the
        chunk or before it."""
        if c is None:
            return False
        tok = text.split()
        cut = 3 * text.count("v")
        vertices = dict(zip(map(int, tok[1:cut:3]), map(int, tok[2:cut:3])))
        us = list(map(int, tok[cut + 1::4]))
        ws = list(map(int, tok[cut + 2::4]))
        edges = dict(zip(zip(us, ws), map(int, tok[cut + 3::4])))
        if not (all(map(operator.lt, us, ws))
                and 3 * len(vertices) == cut and 4 * len(edges) == len(tok) - cut
                and c.vertex_color.keys().isdisjoint(vertices)
                and c.edge_color.keys().isdisjoint(edges)):
            return False
        c.vertex_color.update(vertices)
        c.edge_color.update(edges)
        return True

    read_in_chunks(path, _COLORING_LINES, bulk, walk)
    if c is None:
        raise ColoringError("missing header line")
    return c


def matrix_to_csv(matrix: TotalColorMatrix, path) -> None:
    """CSV with a header row/column of vertex labels; empty cell = blank,
    matching the printed table layout."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(range(matrix.n)))
        # the csv module writes None as an empty cell
        writer.writerows([i] + row for i, row in enumerate(matrix.grid))


def matrix_from_csv(path) -> TotalColorMatrix:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ColoringError("empty CSV")
    n = len(rows[0]) - 1
    if len(rows) != n + 1:
        raise ColoringError("CSV not square")
    grid = []
    for lineno, raw in enumerate(rows[1:], 2):
        try:
            grid.append([None if cell == "" else int(cell) for cell in raw[1:]])
        except ValueError as exc:
            raise ColoringError("line %d: %s" % (lineno, exc)) from None
    return TotalColorMatrix(n, grid)


def adjacency_matrix_csv(G: Graph, path) -> None:
    """Adjacency table in the same layout: 0 on the diagonal, 1 on edges,
    blank elsewhere."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(range(G.n)))
        writer.writerows([i] + [0 if i == j else 1 if G.has_edge(i, j) else None
                                for j in range(G.n)] for i in range(G.n))
