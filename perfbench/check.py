"""Independent output checker for the benchmark.

It shares no code with totcol: it parses the DIMACS graph file and the
written coloring (`.tc` line format or `--format csv-matrix` CSV) itself and
runs an O(n + m) star check.  A total coloring is proper exactly when

  * every vertex and every edge has a color, and nothing else does;
  * the two ends of every edge differ; and
  * at every vertex v the colors of v and of its incident edges are pairwise
    distinct (the "star" of v), which covers edge-edge and vertex-edge
    conflicts.

`check` returns None when the coloring is proper and uses exactly the
expected number of colors, and a one-line reason otherwise.
"""
import csv


class CheckError(ValueError):
    pass


def read_graph(path):
    """Return (n, edges) from a DIMACS `p edge` file, 0-indexed, u < v."""
    n = None
    edges = []
    with open(path) as fh:
        for line in fh:
            tok = line.split()
            if not tok or tok[0] == "c":
                continue
            if tok[0] == "p":
                n = int(tok[2])
            elif tok[0] == "e":
                u, v = int(tok[1]) - 1, int(tok[2]) - 1
                edges.append((u, v) if u < v else (v, u))
            else:
                raise CheckError("unexpected graph line %r" % line.strip())
    if n is None:
        raise CheckError("graph file has no problem line")
    return n, edges


def read_tc(path):
    """Return (n, vertex colors, edge colors) from the `.tc` line format."""
    n = None
    vcol, ecol = {}, {}
    with open(path) as fh:
        for line in fh:
            tok = line.split()
            if not tok:
                continue
            if tok[0] == "t":
                n = int(tok[1])
            elif tok[0] == "v":
                vcol[int(tok[1])] = int(tok[2])
            elif tok[0] == "e":
                u, v = int(tok[1]), int(tok[2])
                key = (u, v) if u < v else (v, u)
                if key in ecol:
                    raise CheckError("edge %r listed twice" % (key,))
                ecol[key] = int(tok[3])
            else:
                raise CheckError("unexpected coloring line %r" % line.strip())
    if n is None:
        raise CheckError("coloring file has no header")
    return n, vcol, ecol


def read_csv_matrix(path):
    """Return (n, vertex colors, edge colors) from a color-matrix CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    n = len(rows) - 1
    vcol, ecol = {}, {}
    for i, row in enumerate(rows[1:]):
        cells = row[1:]
        if len(cells) != n:
            raise CheckError("CSV row %d has %d cells, expected %d" % (i, len(cells), n))
        for j, cell in enumerate(cells):
            value = None if cell == "" else int(cell)
            if i > j:
                if ecol.get((j, i)) != value:
                    raise CheckError("CSV not symmetric at (%d,%d)" % (i, j))
            elif value is None:
                continue
            elif i == j:
                vcol[i] = value
            else:
                ecol[(i, j)] = value
    return n, vcol, ecol


def read_coloring_file(path):
    return read_csv_matrix(path) if path.endswith(".csv") else read_tc(path)


def star_check(n, edges, vcol, ecol):
    """None if (vcol, ecol) is a proper total coloring of the graph, else a reason."""
    if len(vcol) != n or any(not (0 <= v < n) for v in vcol):
        return "vertex coverage: %d colored, %d vertices" % (len(vcol), n)
    if len(ecol) != len(edges):
        return "edge coverage: %d colored, %d edges" % (len(ecol), len(edges))
    star = [{vcol[v]} for v in range(n)]
    size = [1] * n
    for (u, v) in edges:
        c = ecol.get((u, v))
        if c is None:
            return "edge (%d,%d) uncolored" % (u, v)
        if vcol[u] == vcol[v]:
            return "vertex-vertex conflict on (%d,%d)" % (u, v)
        for w in (u, v):
            star[w].add(c)
            size[w] += 1
    for w in range(n):
        if len(star[w]) != size[w]:
            return "star conflict at vertex %d" % w
    if any(c < 1 for c in vcol.values()) or any(c < 1 for c in ecol.values()):
        return "color id below 1"
    return None


def color_count(vcol, ecol):
    return len(set(vcol.values()) | set(ecol.values()))


def check(graph_path, coloring_path, expected_colors):
    """None if the written coloring is proper with `expected_colors` colors."""
    try:
        n, edges = read_graph(graph_path)
        cn, vcol, ecol = read_coloring_file(coloring_path)
    except (OSError, ValueError, IndexError) as exc:
        return "unreadable output: %s" % exc
    if cn != n:
        return "coloring is for %d vertices, graph has %d" % (cn, n)
    reason = star_check(n, edges, vcol, ecol)
    if reason:
        return reason
    used = color_count(vcol, ecol)
    if used != expected_colors:
        return "%d colors used, expected %d" % (used, expected_colors)
    return None


def negative_control(graph_path, coloring_path):
    """Corrupt one edge color of a proper coloring and return the checker's
    verdict on the result; a working checker returns a reason, never None."""
    n, edges = read_graph(graph_path)
    _, vcol, ecol = read_coloring_file(coloring_path)
    u, v = edges[0]
    # give (u, v) the color of another edge at u: a guaranteed star conflict
    other = next(e for e in edges[1:] if u in e)
    bad = dict(ecol)
    bad[(u, v)] = ecol[other]
    return star_check(n, edges, vcol, bad)
