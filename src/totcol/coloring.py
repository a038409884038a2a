"""Total colorings, strict verification, and color matrices.

Color ids are 1-based positive integers; 0 never appears as a color and is
reserved for "blank" when a matrix is rendered.  Edge keys are normalized
(u, v) tuples with u < v.  A coloring holds its edge colors as a dict on
those keys, except a coloring of a circulant held by generator columns
(ColumnColoring: the layered fill of thm2.2, thm2.3 and thm2.5, a `.tc`
listing that read_coloring, the one `.tc` reader, reads by columns, and a
color matrix that read_matrix, the one CSV coloring reader, reads by
columns), whose dicts are built only when a caller reads them;
verify_total, write_coloring and write_matrix read the columns.

A column coloring's color matrix is written and read as cell texts, by
write_matrix and read_matrix's text route.  The csv module is imported
only inside matrix_to_csv, which writes every other CSV table, and the
grid route of matrix_from_csv, which reads every other CSV file, so a
command that writes or reads no such file does not load it.
"""
from __future__ import annotations

import io
import itertools
import math
import operator

from .graphs import CHUNK_LINES, MAX_EDGES, Graph, Record, circulant_bands, read_in_chunks


def ekey(u: int, v: int) -> tuple:
    """Normalized unordered edge key."""
    return (u, v) if u < v else (v, u)


class ColoringError(ValueError):
    """Raised for malformed coloring inputs or file formats."""


class TotalColoring(Record):
    """Vertex and edge color assignment (possibly partial, e.g. one part of a
    split construction).  Each coloring made without dicts gets new ones."""

    _fields = ("n", "vertex_color", "edge_color")

    def __init__(self, n: int, vertex_color: dict[int, int] | None = None,
                 edge_color: dict[tuple, int] | None = None) -> None:
        self.n = n
        self.vertex_color = {} if vertex_color is None else vertex_color
        self.edge_color = {} if edge_color is None else edge_color

    def colors_used(self) -> int:
        return len(set(self.vertex_color.values()) | set(self.edge_color.values()))

    def set_edge(self, u: int, v: int, c: int) -> None:
        self.edge_color[ekey(u, v)] = c


class ColumnColoring(TotalColoring):
    """A total coloring of the circulant C_n(S) by generator columns, with
    no dicts: conn is S ascending, vcol the colors of the vertices 0..n-1,
    and cols[j] the colors of the edges {u, u + conn[j]} for u = 0..n -
    conn[j] - 1.  The edge {w, w + s mod n} with w + s >= n is the edge
    {u, u + (n - s)} with u = w + s - n, held in column n - s, which is
    cols[-1 - j] as S is symmetric.

    The first read of vertex_color or edge_color builds both
    (_column_dicts) and hands the coloring over to them: the object becomes
    a plain TotalColoring, so an edit of a dict is an edit of the coloring,
    and every reader after it takes the dicts.  Only this class has the
    __getattr__ hook, which keeps attribute reads on every other coloring
    at their plain cost."""

    def __init__(self, n: int, conn: list, vcol: list, cols: list) -> None:
        self.n, self.conn, self.vcol, self.cols = n, conn, vcol, cols

    def __getattr__(self, name):
        # Python calls this only for an attribute it did not find
        if name not in ("vertex_color", "edge_color"):
            raise AttributeError(name)
        # the lists come off the object, and _column_dicts consumes a copy
        # of the column list, so no list another coloring shares is written
        pop = self.__dict__.pop
        self.vertex_color, self.edge_color = _column_dicts(
            self.n, pop("conn"), pop("vcol"), [*pop("cols")])
        self.__class__ = TotalColoring
        return self.__dict__[name]

    def __eq__(self, other):
        self.vertex_color  # hands over, so that == compares two TotalColorings
        return self == other

    def colors_used(self) -> int:
        return len(set(self.vcol).union(*self.cols))


def _column_dicts(n: int, conn: list, vcol: list, cols: list) -> tuple:
    """(vertex_color, edge_color) of the column coloring (n, conn, vcol,
    cols), each column one dict update, after which cols lets go of it.  The
    vertices come in order, and the edges in the order in which
    fill_diagonals once set them one at a time: for each s of the half set
    ascending, the edges {u, u + s}, then those of n - s."""
    verts = list(range(n))  # one int per vertex, shared by all of its keys
    edge_color: dict = {}
    for j in range((len(conn) + 1) // 2):
        for k in dict.fromkeys((j, len(conn) - 1 - j)):  # once when s = n/2
            edge_color.update(zip(zip(verts, itertools.islice(verts, conn[k], None)), cols[k]))
            cols[k] = None
    return dict(zip(verts, vcol)), edge_color


class VerificationReport(Record):
    """Exhaustive conflict and coverage diagnostics for a total coloring.

    Conflicts are tagged tuples, sorted lexicographically:
      ("vertex-vertex", u, v)             adjacent vertices share a color
      ("edge-edge", e1, e2, shared)       adjacent edges share a color
      ("vertex-edge", v, e)               an edge matches an incident vertex
    Coverage errors (missing / extra assignments) are reported separately.
    """

    _fields = ("conflicts", "coverage_errors", "colors_used")

    @property
    def ok(self) -> bool:
        return not self.conflicts and not self.coverage_errors


def verify_total(G: Graph, c: TotalColoring) -> VerificationReport:
    """Strict, complete verification of a total coloring against G, in one
    pass over its edge colors and one over its vertices.

    A key of `c.edge_color` is an edge of G exactly when it is a pair
    (u, v) with 0 <= u < v < n and v - u in the connection set of a
    circulant G, or bit v of `G.rows[u]` set for any other G; any other key
    is a non-edge.  Each edge's ends are compared, and its color joins the
    color lists of u and v, each seeded with its vertex's own color.  Only
    when fewer than `G.edge_count` edges are seen are the edges of G
    walked, once, to report the missing ones.  A vertex passes when its
    list has no repeat; the lists are compared with their sets by map, with
    no Python step per vertex.  Only a vertex that fails has the edges of
    its star grouped by color, which names each conflict at w.

    The cost is O(n + m) dict and list work.  A circulant's test and counts
    read only its connection set, so checking one builds no n-bit rows;
    any other graph shifts a row for each edge.

    A ColumnColoring of the circulant G itself (same n, same S, each list
    of its length) is first checked by _columns_proper, with no dict and no
    Python step per edge or per vertex, as one-hot bytes when Delta + 1 <= 8
    and every color is in 1..8; a proper one gets the clean report at once.
    On any fault the dicts are built (the hand-over) and the check above
    runs, so every conflict and coverage list is the dict path's.
    """
    colors = _columns_proper(G, c)
    if colors is not None:
        return VerificationReport([], [], colors)
    n, vertex_color = G.n, c.vertex_color
    conn = rows = None
    if G.circulant is not None:
        conn = G.circulant.connection
    else:
        rows = G.rows
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
    at = [[col] for col in vcol]  # the color of each vertex, then of its edges
    non_edges = 0
    for e, ce in c.edge_color.items():
        try:
            u, v = e
            is_edge = 0 <= u < v < n and (v - u in conn if rows is None else rows[u] >> v & 1)
            if is_edge:
                cu, cv = vcol[u], vcol[v]
        except (TypeError, ValueError):  # not a pair of vertex indices
            is_edge = False
        if not is_edge:
            coverage.append(("non-edge", tuple(e)))
            non_edges += 1
            continue
        if cu is not None and cu == cv:
            conflicts.append(("vertex-vertex", u, v))
        if ce is not None:
            at[u].append(ce)
            at[v].append(ce)
    if len(c.edge_color) - non_edges < G.edge_count:
        for (u, v) in G.edges():
            if (u, v) not in c.edge_color:
                coverage.append(("missing-edge", (u, v)))
                if vcol[u] is not None and vcol[u] == vcol[v]:
                    conflicts.append(("vertex-vertex", u, v))
    coverage.sort(key=repr)
    # An edge at w conflicts with w's color or with another edge at w: then
    # w's list has a repeat.  Group the edges of such a star by color and
    # report the pairs in a group.  Neighbors ascend, so each group, and
    # each pair in it, is sorted.
    for w in itertools.compress(range(n), map(operator.ne, map(len, at), map(len, map(set, at)))):
        by_color: dict = {}
        for u in G.neighbors(w):
            e = ekey(w, u)
            ce = c.edge_color.get(e)
            if ce is not None:
                if ce == vcol[w]:
                    conflicts.append(("vertex-edge", w, e))
                by_color.setdefault(ce, []).append(e)
        for same in by_color.values():
            for i in range(len(same)):
                for j in range(i + 1, len(same)):
                    conflicts.append(("edge-edge", same[i], same[j], w))
    conflicts = sorted(set(conflicts), key=repr)
    return VerificationReport(conflicts, coverage, c.colors_used())


def _columns_proper(G: Graph, c: TotalColoring) -> int | None:
    """The color count of c if c is a ColumnColoring that has not handed
    over, of the circulant G (same n and S), with vcol of length n and
    column s of length n - s (a zip would cut a longer or shorter list), and
    proper; else None.  The star of w is its vertex color and, for each s
    in S, the color of {w, w + s mod n}: column s for w < n - s, then
    column n - s.  _stars_by_bytes checks Delta + 1 <= 8 colors in 1..8;
    any other coloring is checked by sets: adjacent vertices differ when
    the vertex colors rotated by s differ from them, for each s of the half
    set, and each star, zipped, must hold Delta + 1 distinct colors."""
    spec = G.circulant
    if (not isinstance(c, ColumnColoring) or spec is None or c.n != G.n
            or spec.connection != set(c.conn)):
        return None
    n, vcol, cols = c.n, c.vcol, c.cols
    if len(vcol) != n or list(map(len, cols)) != [n - s for s in c.conn]:
        return None
    half = c.conn[:(len(cols) + 1) // 2]  # the half set: S ascending is symmetric
    try:
        colors = _stars_by_bytes(n, half, vcol, cols) if len(cols) < 8 else None
    except (TypeError, ValueError):  # a color that is no int in 0..255
        colors = None
    if colors is not None:
        return colors
    for s in half:
        if any(map(operator.eq, vcol, itertools.chain(vcol[s:], vcol))):
            return None
    stars = zip(vcol, *map(itertools.chain, cols, reversed(cols)))
    if any(map((len(cols) + 1).__ne__, map(len, map(set, stars)))):
        return None
    return c.colors_used()


# color c in 1..8 -> bit c - 1, any other byte -> 0
_ONE_HOT = bytes([0, 1, 2, 4, 8, 16, 32, 64, 128]) + bytes(247)
_POPCOUNT = bytes(map(int.bit_count, range(256)))
_BYTES = bytes(range(256))


def _stars_by_bytes(n: int, half: list, vcol: list, cols: list) -> int | None:
    """_columns_proper's color count for a proper coloring whose Delta + 1
    <= 8 colors are in 1..8, else None; a color outside 0..255 raises.
    Adjacent vertices differ when the vertex colors XOR their rotation by
    s (bytes read as ints) hold no zero byte.  The one-hot bytes of the
    vertex colors and of each generator's colors of {w, w + s mod n}, one
    at a time, are ORed into star bytes, each of which must have Delta + 1
    bits; a color outside 1..8 has none."""
    v = bytes(bytearray(vcol))  # bytearray reads a list faster than bytes does
    whole = int.from_bytes(v, "little")
    for s in half:
        if b"\0" in (whole ^ int.from_bytes(v[s:] + v[:s], "little")).to_bytes(n, "little"):
            return None
    stars = int.from_bytes(v.translate(_ONE_HOT), "little")
    del v, whole  # from here on, one n-byte sequence at a time
    for col, back in zip(cols, reversed(cols)):
        hot = bytes(bytearray(col) + bytearray(back)).translate(_ONE_HOT)
        stars |= int.from_bytes(hot, "little")
    stars = stars.to_bytes(n, "little")
    if stars.translate(_POPCOUNT).count(len(cols) + 1) != n:
        return None
    union = 0
    for star in _BYTES.translate(None, _BYTES.translate(None, stars)):  # each value once
        union |= star
    return union.bit_count()


# ---------------------------------------------------------------------------
# Total color matrix


# The most vertices of a rendered or read color matrix: n^2 <= MAX_EDGES
# cells, 128 MB of row pointers on a 64-bit build
MAX_MATRIX_VERTICES = math.isqrt(MAX_EDGES)
# write_matrix builds the cells of a column coloring's matrix in bands of
# rows this large (2 MB of pointers), and read_matrix reads a quarter as
# many at a time: fewer cost a slice per column per band, more are held
# at once
_BAND_CELLS = 1 << 18


def render_matrix(G: Graph, c: TotalColoring) -> list:
    """Render a coloring as the symmetric n x n color matrix, a list of rows:
    the diagonal holds the vertex colors, cell (i, j) the color of edge
    {i, j}, and None marks a blank.  It checks nothing; every caller renders
    a coloring (or a part of one) that has been verified."""
    n = G.n
    grid = [[None] * n for _ in range(n)]
    for v, col in c.vertex_color.items():
        grid[v][v] = col
    for (u, v), col in c.edge_color.items():
        grid[u][v] = col
        grid[v][u] = col
    return grid


def parse_matrix(grid) -> TotalColoring:
    """Inverse of render_matrix: read vertex colors off the diagonal and edge
    colors off the filled off-diagonal cells.  The grid must be symmetric.

    The upper triangle is walked row by row.  A grid equal to its
    transpose, one list comparison, is not compared pair by pair; any other
    grid is, so the walk names its first asymmetric pair, or the first cell
    that is not a color if that comes first."""
    n = len(grid)
    c = TotalColoring(n)
    for i in range(n):
        if len(grid[i]) != n:
            raise ColoringError("grid is not square")
        if grid[i][i] is not None:
            c.vertex_color[i] = int(grid[i][i])
    symmetric = grid == [list(col) for col in zip(*grid)]
    for i, row in enumerate(grid):
        for j in range(i + 1, n):
            cell = row[j]
            if not symmetric and cell != grid[j][i]:
                raise ColoringError("grid asymmetric at (%d,%d)" % (i, j))
            if cell is not None:
                c.edge_color[(i, j)] = int(cell)
    return c


# ---------------------------------------------------------------------------
# File formats


def write_coloring(c: TotalColoring, path) -> None:
    """Line format: `t <n> <color-count>`, then `v <vertex> <color>` and
    `e <u> <v> <color>` lines, 0-indexed, deterministic order: vertices
    ascending, then edges (u, v) ascending.  Each distinct color is
    formatted once per call, by a _NumberTexts table.

    A coloring with dicts has its vertices and edges sorted.  A
    ColumnColoring is written from its columns, and its dicts are not
    built: the vertex numbers are one table of texts, made once, and the
    edge lines are in the order of circulant_bands (_edge_ends), which is
    the sorted order, with the colors of each vertex's edges taken from the
    columns row by row.  The bytes are those of the dict path."""
    name = _NumberTexts().__getitem__
    with open(path, "w") as fh:
        fh.write("t %d %d\n" % (c.n, c.colors_used()))
        if isinstance(c, ColumnColoring):
            conn, cols = c.conn, c.cols
            names = _vertex_names(c.n)
            _write_lines(fh, "v ", names, map(name, c.vcol))
            # row u of the columns holds the colors of u's edges, s ascending;
            # zip_longest pads the columns that end before u with None
            colors = filter(None, itertools.chain.from_iterable(
                itertools.zip_longest(*[map(name, col) for col in cols])))
            _write_lines(fh, "e ", *_edge_ends(names, conn, circulant_bands(c.n, conn)), colors)
            return
        vs = sorted(c.vertex_color)
        es = sorted(c.edge_color)
        us, ws = zip(*es) if es else ((), ())
        _write_lines(fh, "v ", map(name, vs), map(name, map(c.vertex_color.__getitem__, vs)))
        _write_lines(fh, "e ", map(name, us), map(name, ws),
                     map(name, map(c.edge_color.__getitem__, es)))


def _write_lines(fh, tag, *columns) -> None:
    """Write one line per row of the text columns, tag and then the row's
    texts joined by spaces, one join per CHUNK_LINES lines, so the line
    texts held at once stay few; nothing for no rows."""
    lines = map(" ".join, zip(*columns))
    while chunk := list(itertools.islice(lines, CHUNK_LINES)):
        fh.write(tag)
        fh.write(("\n" + tag).join(chunk))
        fh.write("\n")


def _vertex_names(n: int) -> list:
    """The texts of the vertex numbers 0..n-1, by one format and one split."""
    return ("%d\n" * n % tuple(range(n))).split()


def _edge_ends(names: list, conn: list, bands: list) -> tuple:
    """Two iterators over the endpoints of the edges of C_n(S), S given
    ascending as conn, names being the n vertex texts (_vertex_names) or
    ints and bands circulant_bands(n, conn), in the order of the bands: the
    lower ends and the upper ends.  Over a band of k generators, u comes k
    times.  The upper ends are the rows of the columns names[s:], less the
    None that zip_longest pads a short one with; vertex 0 is never one."""
    flat = itertools.chain.from_iterable
    heads = flat(flat(zip(*[names[lo:hi]] * k)) for lo, hi, k in bands)
    tails = filter(None, flat(itertools.zip_longest(
        *[itertools.islice(names, s, None) for s in conn])))
    return heads, tails


class _NumberTexts(dict):
    """Number -> "%d" % number, made once per distinct number: the reverse
    of _CellValues."""

    def __missing__(self, number):
        return self.setdefault(number, "%d" % number)


_FIELDS = {"t": 3, "v": 3, "e": 4}

# write_coloring's vertex lines, then its edge lines: the colors are positive
_COLORING_LINES = r"(?:v [0-9]+ [1-9][0-9]*\n)*(?:e [0-9]+ [0-9]+ [1-9][0-9]*\n)*"


def _color(text) -> int:
    """The color id that the field text names, refused below 1."""
    color = int(text)
    if color < 1:
        raise ColoringError("color %d below 1" % color)
    return color


def read_coloring(path, G: Graph | None = None) -> TotalColoring:
    """Inverse of write_coloring; errors name the offending line.  A second
    `t` header, or a vertex or an edge (in either orientation) given twice,
    is an error, as a repeated edge is in `read_dimacs`, and so is a color
    below 1 or a header color count that is no integer >= 0.  The count is
    not compared with the colors used.  Text that is not UTF-8 raises
    ColoringError.

    The file is read once, CHUNK_LINES lines at a time (read_in_chunks).
    Given a circulant G, a file whose first line is the header alone, `t
    <G.n> <k>`, is read in listing mode: while each run of lines continues
    write_coloring's listing of G (the vertex lines of 0..n-1, then the
    edge lines in the order of circulant_bands), its vertex and endpoint
    texts are compared with one table of vertex-number texts and the
    _edge_ends streams of it, and only the colors are kept.  A complete
    listing is returned as a ColumnColoring, unchecked, with no Python step
    per edge or per vertex.  The first run that departs from the listing (a
    text mismatch, a run for walk, a second header) ends listing mode: the
    colors kept become the dicts, and that run and the rest are read as
    with no G, so every error and every coloring is the read's with no G."""
    c = None
    number = _CellValues().__getitem__
    spec = None if G is None else G.circulant
    if spec is not None:
        conn = sorted(spec.connection)
        bands = circulant_bands(spec.n, conn)
    listing = None  # in listing mode: the vertex-number texts and _edge_ends streams
    vcol, colors = [], []  # the colors of the listing so far

    def leave():
        """End listing mode: the colors kept go into c's dicts, keyed by
        the ints of the number table, one per vertex."""
        nonlocal listing
        verts = list(map(number, listing[0]))
        listing = None
        c.vertex_color.update(zip(verts, vcol))
        c.edge_color.update(zip(zip(*_edge_ends(verts, conn, bands)), colors))
        del vcol[:], colors[:]

    def walk(first, lines):
        """Read lines one at a time: the grammar and its error texts."""
        nonlocal c, listing
        if listing is not None:
            leave()
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
                    n, count = int(tok[1]), int(tok[2])
                    if count < 0:
                        raise ColoringError("color count %d below 0" % count)
                    c = TotalColoring(n)
                    if (spec is not None and first == 1 and len(lines) == 1
                            and raw == "t %d %d\n" % (spec.n, count)):
                        names = _vertex_names(n)
                        listing = (names, *_edge_ends(names, conn, bands))
                elif c is None:
                    raise ColoringError("%r line before the `t` header" % tag)
                elif tag == "v":
                    v = int(tok[1])
                    if v in c.vertex_color:
                        raise ColoringError("repeated vertex %d" % v)
                    c.vertex_color[v] = _color(tok[2])
                else:
                    e = ekey(int(tok[1]), int(tok[2]))
                    if e in c.edge_color:
                        raise ColoringError("repeated edge %r" % (e,))
                    c.edge_color[e] = _color(tok[3])
            except ValueError as exc:
                raise ColoringError("line %d: %s: %r" % (lineno, exc, raw.strip())) from None

    def listed(tok, cut):
        """Keep the colors of a run (its tokens, the first cut of them in
        vertex lines) that continues the listing; False, with nothing kept,
        for any other run."""
        names, heads, tails = listing
        v0 = len(vcol)
        if cut and (colors or tok[1:cut:3] != names[v0:v0 + cut // 3]):
            return False
        us, ws = tok[cut + 1::4], tok[cut + 2::4]
        if us and (v0 + cut // 3 != len(names) or us != list(itertools.islice(heads, len(us)))
                   or ws != list(itertools.islice(tails, len(ws)))):
            return False
        vcol.extend(map(number, tok[2:cut:3]))
        colors.extend(map(number, tok[cut + 3::4]))
        return True

    def bulk(text):
        """Read a chunk of vertex and edge lines at once, unless an edge
        comes as v u with v > u, or a vertex or an edge comes twice, in the
        chunk or before it."""
        if c is None:
            return False
        tok = text.split()
        cut = 3 * text.count("v")
        if listing is not None:
            if listed(tok, cut):
                return True
            leave()
        vertices = dict(zip(map(number, tok[1:cut:3]), map(number, tok[2:cut:3])))
        us = list(map(number, tok[cut + 1::4]))
        ws = list(map(number, tok[cut + 2::4]))
        edges = dict(zip(zip(us, ws), map(number, tok[cut + 3::4])))
        if not (all(map(operator.lt, us, ws))
                and 3 * len(vertices) == cut and 4 * len(edges) == len(tok) - cut
                and c.vertex_color.keys().isdisjoint(vertices)
                and c.edge_color.keys().isdisjoint(edges)):
            return False
        c.vertex_color.update(vertices)
        c.edge_color.update(edges)
        return True

    try:
        read_in_chunks(path, _COLORING_LINES, bulk, walk)
    except UnicodeDecodeError as exc:
        raise ColoringError("not UTF-8 text: %s" % exc) from None
    if c is None:
        raise ColoringError("missing header line")
    if listing is None:
        return c
    if len(vcol) != c.n or len(colors) != G.edge_count:
        leave()
        return c
    listing = None  # the name table and the streams go before the columns come
    # A band's colors are its rows of k, one per vertex.  A band wider than
    # k + 1 vertices gives generator j every k-th color from the j-th; a
    # narrower one, where k slices would cost a step per edge, is transposed
    # whole.  extend returns None, so any() runs every extend.
    cols, base = [[] for _ in conn], 0
    for lo, hi, k in bands:
        end = base + (hi - lo) * k
        if hi - lo > k + 1:
            for j in range(k):
                cols[j] += colors[base + j:end:k]
        else:
            any(map(list.extend, cols, zip(*zip(*[iter(colors[base:end])] * k))))
        base = end
    return ColumnColoring(c.n, conn, vcol, cols)


def matrix_to_csv(grid, path) -> None:
    """CSV of a render_matrix grid with a header row/column of vertex
    labels; empty cell = blank, matching the printed table layout."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(range(len(grid))))
        # the csv module writes None as an empty cell
        writer.writerows([i] + row for i, row in enumerate(grid))


def _band_slices(n: int, conn: list, lo: int, hi: int) -> tuple:
    """Where the CSV rows lo..hi-1 of a column coloring's matrix of C_n(S),
    S ascending as conn, hold its lists, in the list of the rows' fields
    (each row its label, then its n cells): (diagonal, columns), each place
    a pair of slices (at, entries), fields[at] holding list[entries].
    columns[j] places cols[j] twice: at (u, u + s) in the rows u, and at
    (u + s, u) in the rows u + s, s = conn[j].  Cell (v, w) is field
    (v - lo)(n + 1) + 1 + w, so each place has stride n + 2."""
    step = n + 2

    def place(start, a, b):  # entries a..b-1 into every step-th field from start
        b = max(a, b)
        return slice(start, start + (b - a) * step, step), slice(a, b)

    columns = []
    for s in conn:
        first = max(0, lo - s)
        columns.append((place(lo + 1 + s, lo, min(hi, n - s)),
                        place((first + s - lo) * step + lo + 1 - s, first, hi - s)))
    return place(lo + 1, lo, hi), columns


def write_matrix(G: Graph, c: TotalColoring, path) -> None:
    """Write the coloring c of G as its CSV color matrix: the bytes of
    matrix_to_csv(render_matrix(G, c), path).

    A ColumnColoring of G's n is written from its columns, with no dicts,
    no grid of ints and no csv module.  Each vertex color and each column
    entry is formatted once (_NumberTexts).  A band of rows of about
    _BAND_CELLS cells is one list of field texts, each row's label and then
    its cells, "" for a blank, into which each list of the coloring goes by
    the slices of _band_slices, a column into both triangles.  Each row is
    one join, and a band is written before the next one is built."""
    n = G.n
    if not (isinstance(c, ColumnColoring) and c.n == n):
        matrix_to_csv(render_matrix(G, c), path)
        return
    name = _NumberTexts().__getitem__
    names = _vertex_names(n)
    vtexts = list(map(name, c.vcol))
    texts = [list(map(name, col)) for col in c.cols]
    rows = max(1, _BAND_CELLS // n)
    with open(path, "w", newline="") as fh:
        fh.write(",%s\r\n" % ",".join(names))
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            fields = [""] * ((hi - lo) * (n + 1))
            fields[::n + 1] = names[lo:hi]
            (at, entries), columns = _band_slices(n, c.conn, lo, hi)
            fields[at] = vtexts[entries]
            for col, places in zip(texts, columns):
                for at, entries in places:
                    fields[at] = col[entries]
            fh.write("\r\n".join([",".join(fields[i:i + n + 1])
                                    for i in range(0, len(fields), n + 1)]))
            fh.write("\r\n")


class _CellValues(dict):
    """Number text -> its int, converted once per distinct text, so a file
    with n vertices and k colors makes at most about n + k conversions.
    matrix_from_csv seeds it with the blank cell, "" -> None; in
    read_matrix's text route a blank raises ValueError, as any non-number."""

    def __missing__(self, text):
        return self.setdefault(text, int(text))


def matrix_from_csv(path) -> list:
    """Inverse of matrix_to_csv: the grid of rows, blanks as None.  A row
    whose field count is not the header's, or a cell that is no integer, is
    an error naming its line as the row is read; a color below 1 too, once
    every row is read.  A header row of more than MAX_MATRIX_VERTICES labels
    is refused before any other row is read, and a file with a row past the
    header's count is refused at that row.  Each row is converted as it is
    read, so no row of texts is held beside the grid."""
    with open(path, newline="") as fh:
        return _grid_from_csv(fh)


def _grid_from_csv(fh) -> list:
    """matrix_from_csv of the text file fh, open with newline="" at its
    start."""
    import csv

    cells = _CellValues({"": None})
    grid = []
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ColoringError("empty CSV")
        n = len(header) - 1
        if n > MAX_MATRIX_VERTICES:
            raise ColoringError("matrix of %d vertices, above %d, the most a color "
                                "matrix holds" % (n, MAX_MATRIX_VERTICES))
        # an empty header line has n = -1: no rows, and not square
        for lineno, raw in enumerate(itertools.islice(reader, max(n, 0)), 2):
            if len(raw) != n + 1:
                raise ColoringError("line %d: %d fields, expected %d"
                                    % (lineno, len(raw), n + 1))
            try:
                grid.append(list(map(cells.__getitem__, raw[1:])))
            except ValueError as exc:
                raise ColoringError("line %d: %s" % (lineno, exc)) from None
        if len(grid) != n or next(reader, None) is not None:
            raise ColoringError("CSV not square")
    except UnicodeDecodeError as exc:
        raise ColoringError("not UTF-8 text: %s" % exc) from None
    # each distinct cell text is checked once; only a bad color is looked for
    if any(color is not None and color < 1 for color in cells.values()):
        lineno, color = next((k, color) for k, row in enumerate(grid, 2)
                             for color in row if color is not None and color < 1)
        raise ColoringError("line %d: color %d below 1" % (lineno, color))
    return grid


def read_matrix(path, G: Graph | None = None) -> TotalColoring:
    """The one CSV coloring reader, as read_coloring is the one `.tc`
    reader: parse_matrix of matrix_from_csv's grid, whose errors are every
    error of the read but an asymmetric pair, which parse_matrix names.

    Given a circulant G of at most MAX_MATRIX_VERTICES vertices, the file is
    first read as write_matrix's text for a column coloring of G
    (_matrix_columns), with no grid and no csv module, and such a text is
    returned as a ColumnColoring, unchecked, whose dicts, once read, are
    parse_matrix's.  At its first departure from that text the file is read
    again from its start by the grid route, so every error text and every
    coloring is that route's.  Input that cannot seek, such as a pipe, is
    read into memory first, so that both routes see all of it."""
    spec = None if G is None else G.circulant
    with open(path, newline="") as fh:
        if spec is not None and spec.n <= MAX_MATRIX_VERTICES:
            if not fh.seekable():
                fh = io.TextIOWrapper(io.BytesIO(fh.buffer.read()), fh.encoding, newline="")
            c = _matrix_columns(fh, spec.n, sorted(spec.connection), G.edge_count)
            if c is not None:
                return c
            fh.seek(0)
        return parse_matrix(_grid_from_csv(fh))


def _matrix_columns(fh, n: int, conn: list, m: int) -> ColumnColoring | None:
    """The ColumnColoring of C_n(S), S ascending as conn and m edges, whose
    matrix is write_matrix's text, read from the text file fh (open with
    newline="" at its start), or None at the first departure from that
    text, fh read up to it.

    The header must be the labels 0..n-1.  Then each band of rows of about
    _BAND_CELLS / 4 cells is read: each line must end in CR LF and hold its
    row's label and n cells, and the band's fields are one split.  The
    texts of the diagonal and of the upper slice (u, u + s) of each column
    (_band_slices) are converted, each distinct text once, and must each be
    "%d" of a color of at least 1.  The lower slices are joined and
    compared with the upper ones as texts once the file is read, the file
    must end after row n - 1, and the cells filled must be n + 2m, so every
    other cell is blank.  Every field is then a label, a color's "%d" or
    blank, with no quote character: a text that passes is one that
    matrix_from_csv reads with no error to the grid of the coloring
    returned."""
    names = _vertex_names(n)
    header = ",%s\r\n" % ",".join(names)
    number = _CellValues()
    vcol, cols = [], [[] for _ in conn]
    # the joined texts of each column's upper and lower slices, band by band
    upper, lower = [[] for _ in conn], [[] for _ in conn]
    # a band also holds a text object, about 50 bytes, for each filled cell
    filled, rows = 0, max(1, (_BAND_CELLS >> 2) // n)
    try:
        if fh.readline(len(header) + 1) != header:
            return None
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            lines = list(itertools.islice(fh, hi - lo))
            # a line ends at its first CR or LF, so one that ends in CR LF
            # holds no other; a missing line fails the label check
            if (not all(map(str.endswith, lines, itertools.repeat("\r\n")))
                    or any(map(n.__ne__, map(str.count, lines, itertools.repeat(","))))):
                return None
            fields = ",".join(map(str.rstrip, lines, itertools.repeat("\r\n"))).split(",")
            if fields[::n + 1] != names[lo:hi]:
                return None
            filled += len(fields) - fields.count("") - (hi - lo)
            (at, _), columns = _band_slices(n, conn, lo, hi)
            vcol += map(number.__getitem__, fields[at])
            for col, ups, lows, ((up, _), (low, _)) in zip(cols, upper, lower, columns):
                texts = fields[up]
                col += map(number.__getitem__, texts)
                ups.append(",".join(texts))
                lows.append(",".join(fields[low]))
            del fields  # before the next band's split
        if fh.read(1) or filled != n + 2 * m:
            return None
    except ValueError:  # a text that is no integer, or not UTF-8
        return None
    # the empty joins of empty slices drop out; no upper text is blank
    joined = [",".join(filter(None, pieces)) for pieces in upper + lower]
    if (any(color < 1 or "%d" % color != text for text, color in number.items())
            or joined[:len(conn)] != joined[len(conn):]):
        return None
    return ColumnColoring(n, conn, vcol, cols)


def adjacency_matrix_csv(G: Graph, path) -> None:
    """Adjacency table in matrix_to_csv's layout: 0 on the diagonal, 1 on
    edges, blank elsewhere."""
    matrix_to_csv([[0 if i == j else 1 if G.has_edge(i, j) else None for j in range(G.n)]
                   for i in range(G.n)], path)
