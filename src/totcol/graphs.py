"""Circulant, unitary Cayley, and table-defined Cayley graphs.

Vertices are always labeled 0..n-1.  A circulant C_n(S) is stored as its
spec, n and S, and answers every adjacency query from S: u ~ v iff
(v - u) mod n lies in S.  Any other graph is stored densely, one bitmask
row per vertex, so membership tests are O(1) and the exact solvers can
hammer them freely; a circulant builds its rows, the connection mask
rotated by each vertex (circulant_rows), only when such a solver reads
them.  All constructors are pure.  Every record of the package is a
Record, set by position and compared by value; the ones here are
FrozenRecord classes, read-only after construction and hashed by value.
None is a dataclass, which would import inspect at every CLI start.

read_dimacs takes the spec of a file whose text is write_dimacs's text for
the circulant its first line names; it reads every other file by the line
grammar, one edge at a time.
"""
from __future__ import annotations

import bisect
import itertools
import io
import math
import re
import warnings
from functools import cached_property


class GraphError(ValueError):
    """Raised for structurally invalid graph inputs."""


class Record:
    """A value record: the attributes named in _fields are set by the
    positional __init__ and shown by repr and compared by ==, in that
    order.  A mutable record is not hashable.  A subclass declares its
    fields by _fields alone, or writes its own __init__ when it converts,
    checks or defaults them."""

    _fields = ()
    __hash__ = None

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError("%s takes %d fields, got %d" % (
                type(self).__qualname__, len(self._fields), len(values)))
        # through __dict__, so that a FrozenRecord is set the same way
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


class FrozenRecord(Record):
    """A Record whose attributes cannot be assigned or deleted, hashed by
    its fields.  An __init__ of its own sets the fields through _set."""

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __hash__(self) -> int:
        return hash(self._values())


def totient(n: int) -> int:
    """Euler's totient of n (n >= 1)."""
    if n < 1:
        raise ValueError("totient requires n >= 1")
    result = n
    temp = n
    p = 2
    while p * p <= temp:
        if temp % p == 0:
            while temp % p == 0:
                temp //= p
            result -= result // p
        p += 1
    if temp > 1:
        result -= result // temp
    return result


def least_prime_factor(m: int) -> int:
    """Smallest prime dividing m (m >= 2)."""
    if m < 2:
        raise ValueError("least_prime_factor requires m >= 2")
    d = 2
    while d * d <= m:
        if m % d == 0:
            return d
        d += 1
    return m


class CirculantSpec(FrozenRecord):
    """Vertex count n plus a symmetric, identity-free connection set in 1..n-1."""

    _fields = ("n", "connection")

    def __init__(self, n: int, connection) -> None:
        self._set(n=int(n), connection=frozenset(int(s) for s in connection))
        if self.n < 1:
            raise GraphError("vertex count must be >= 1")
        for s in self.connection:
            if not (1 <= s <= self.n - 1):
                raise GraphError("connection element %d outside 1..n-1" % s)
            if (self.n - s) % self.n not in self.connection:
                raise GraphError(
                    "connection set not symmetric: %d present but %d missing"
                    % (s, self.n - s)
                )

    @property
    def degree(self) -> int:
        return len(self.connection)

    def half_set(self) -> list:
        """Representatives s <= n/2, one per inverse pair (n/2 itself included once)."""
        return sorted(s for s in self.connection if s <= self.n // 2)


class GroupTable(FrozenRecord):
    """A finite group given by its multiplication table of element indices."""

    _fields = ("n", "product", "identity")

    def __init__(self, n: int, product, identity: int) -> None:
        self._set(n=int(n), product=tuple(tuple(row) for row in product),
                  identity=int(identity))
        self._validate()

    def _validate(self) -> None:
        n, t, e = self.n, self.product, self.identity
        if len(t) != n or any(len(row) != n for row in t):
            raise GraphError("product table must be n x n")
        for row in t:
            for x in row:
                if not (0 <= x < n):
                    raise GraphError("table entry %r not an element index" % (x,))
        if not (0 <= e < n):
            raise GraphError("identity index out of range")
        for g in range(n):
            if t[e][g] != g or t[g][e] != g:
                raise GraphError("identity law fails at element %d" % g)
        for g in range(n):
            if e not in t[g]:
                raise GraphError("element %d has no inverse" % g)
        if n <= 64:
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if t[t[a][b]][c] != t[a][t[b][c]]:
                            raise GraphError(
                                "associativity fails at (%d,%d,%d)" % (a, b, c)
                            )
        else:
            warnings.warn(
                "group table too large (n=%d > 64); associativity not checked" % n
            )

    def inverse(self, g: int) -> int:
        return self.product[g].index(self.identity)


class Graph(FrozenRecord):
    """Simple undirected graph on 0..n-1.

    A circulant, with its CirculantSpec as circulant, answers has_edge,
    degree, neighbors, edges and the degree sums from the connection set
    and is given rows None; its rows are built from the spec on their
    first read.  Any other graph is given its bitmask rows: bit v of
    rows[u] is set iff u ~ v.  A graph is (n, its spec) if it is a
    circulant and (n, its rows) if not, for ==, hash and repr alike, so
    that none of them builds a circulant's rows."""

    def __init__(self, n: int, rows: tuple | None, circulant: CirculantSpec | None = None) -> None:
        self._set(n=n, circulant=circulant)
        if rows is not None:
            self._set(rows=rows)

    def _values(self) -> tuple:
        return (self.n, self.rows if self.circulant is None else self.circulant)

    def __repr__(self) -> str:
        if self.circulant is not None:
            return "Graph(n=%d, circulant=%r)" % (self.n, self.circulant)
        return "Graph(n=%d, edge_count=%d)" % (self.n, self.edge_count)

    # cached_property writes each value into the instance __dict__ directly,
    # past FrozenRecord's __setattr__, on its first access; rows given to
    # __init__ are there already.
    @cached_property
    def rows(self) -> tuple:
        return circulant_rows(self.circulant)

    @cached_property
    def _gens(self) -> list:
        """The connection set, ascending."""
        return sorted(self.circulant.connection)

    def has_edge(self, u: int, v: int) -> bool:
        if self.circulant is not None:
            return (v - u) % self.n in self.circulant.connection
        return bool((self.rows[u] >> v) & 1)

    def neighbors(self, u: int) -> list:
        """Ascending neighbors of u: of a circulant, u + s - n for the s in
        S with u + s >= n, then u + s for the others; of any other graph,
        the set bits of its row, in O(deg(u)) steps."""
        if self.circulant is not None:
            n, gens = self.n, self._gens
            k = bisect.bisect_left(gens, n - u)
            return [u + s - n for s in gens[k:]] + [u + s for s in gens[:k]]
        out = []
        row = self.rows[u]
        while row:
            low = row & -row
            out.append(low.bit_length() - 1)
            row ^= low
        return out

    def degree(self, u: int) -> int:
        if self.circulant is not None:
            return self.circulant.degree
        return self.rows[u].bit_count()

    def edges(self) -> list:
        """All edges as sorted (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in self.neighbors(u) if v > u]

    # A circulant's degree sums come from |S|.  Any other graph's popcount
    # every row, with no Python step per vertex, once per Graph.
    @cached_property
    def edge_count(self) -> int:
        if self.circulant is not None:
            return self.n * self.circulant.degree // 2
        return sum(map(int.bit_count, self.rows)) // 2

    @cached_property
    def max_degree(self) -> int:
        if self.circulant is not None:
            return self.circulant.degree
        return max(map(int.bit_count, self.rows), default=0)

    @cached_property
    def regular_degree(self) -> int | None:
        if self.circulant is not None:
            return self.circulant.degree
        degs = set(map(int.bit_count, self.rows))
        return degs.pop() if len(degs) == 1 else None


def _graph_from_edges(n: int, edges) -> Graph:
    rows = [0] * n
    for (u, v) in edges:
        if u == v:
            raise GraphError("self-loop at vertex %d" % u)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def circulant_rows(spec: CirculantSpec) -> tuple:
    """Adjacency rows of the circulant, which its Graph builds when they are
    first read: row u is the connection mask rotated left by u within n
    bits, the bits s < n - u moved up by u and the rest wrapped down by
    n - u.  The | comes last so that each row is allocated at its own
    length: an & last would keep n bits for every row, twice the memory of
    a sparse circulant."""
    n = spec.n
    mask = sum(1 << s for s in spec.connection)
    full = (1 << n) - 1
    return tuple(((mask << u) & full) | (mask >> (n - u)) for u in range(n))


def build_circulant(spec: CirculantSpec) -> Graph:
    """Circulant graph: u ~ v iff (v - u) mod n lies in the connection set."""
    return Graph(spec.n, None, spec)


def units(n: int) -> frozenset:
    """The units of Z_n: the connection set of the unitary graph U_n."""
    return frozenset(i for i in range(1, n) if math.gcd(i, n) == 1)


def build_unitary(n: int) -> Graph:
    """Unitary Cayley graph U_n: connection set = units mod n."""
    if n < 2:
        raise GraphError("build_unitary requires n >= 2")
    return build_circulant(CirculantSpec(n, units(n)))


def build_cayley(table: GroupTable, S) -> Graph:
    """Cayley graph of a finite group: g ~ g*s for s in the symmetric set S."""
    S = frozenset(int(s) for s in S)
    outside = sorted(s for s in S if not 0 <= s < table.n)
    if outside:
        raise GraphError("generator %d outside 0..%d" % (outside[0], table.n - 1))
    if table.identity in S:
        raise GraphError("generating set contains the identity")
    for s in S:
        if table.inverse(s) not in S:
            raise GraphError("generating set not symmetric: inverse of %d missing" % s)
    edges = set()
    for g in range(table.n):
        for s in S:
            h = table.product[g][s]
            if g != h:
                edges.add((min(g, h), max(g, h)))
    return _graph_from_edges(table.n, sorted(edges))


def complement(G: Graph) -> Graph:
    """Complement graph; a circulant's is the circulant on the other
    differences."""
    if G.circulant is not None:
        return Graph(G.n, None, CirculantSpec(
            G.n, frozenset(range(1, G.n)) - G.circulant.connection))
    full = (1 << G.n) - 1
    return Graph(G.n, tuple((full & ~G.rows[u]) & ~(1 << u) for u in range(G.n)))


def connected(G: Graph) -> bool:
    """True iff G has a single connected component (K_1 counts as connected)."""
    if G.n == 0:
        return True
    seen = 1
    frontier = [0]
    while frontier:
        u = frontier.pop()
        row = G.rows[u] & ~seen
        seen |= row
        while row:
            low = row & -row
            frontier.append(low.bit_length() - 1)
            row ^= low
    return seen == (1 << G.n) - 1


class TwoFactor(FrozenRecord):
    """One factor of a circulant 2-factor decomposition.

    generators is the inverse pair (s, n-s), or the singleton (n/2,) whose
    factor degenerates to a perfect matching (cycles of length 2).
    """

    _fields = ("generators", "cycles")


class TwoFactorDecomposition(FrozenRecord):
    _fields = ("n", "factors")


def two_factors(spec: CirculantSpec) -> TwoFactorDecomposition:
    """Decompose a circulant into 2-factors, one per generator pair {s, n-s}.

    The factor for s has gcd(n, s) cycles of length n/gcd(n, s); the
    singleton generator n/2 yields a perfect matching.
    """
    n = spec.n
    factors = []
    for s in spec.half_set():
        if 2 * s == n:
            cycles = tuple((i, i + s) for i in range(s))
            factors.append(TwoFactor((s,), cycles))
        else:
            g = math.gcd(n, s)
            cycles = tuple(
                tuple((c + k * s) % n for k in range(n // g)) for c in range(g)
            )
            factors.append(TwoFactor((s, n - s), cycles))
    return TwoFactorDecomposition(n, tuple(factors))


def factor_edges(factor: TwoFactor):
    """Edge list (u < v pairs) of a single 2-factor."""
    edges = set()
    for cyc in factor.cycles:
        k = len(cyc)
        if k == 2:
            u, v = cyc
            edges.add((min(u, v), max(u, v)))
        else:
            for i in range(k):
                u, v = cyc[i], cyc[(i + 1) % k]
                edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def subgraph_of_edges(n: int, edges) -> Graph:
    """Spanning subgraph on 0..n-1 containing exactly the given edges."""
    return _graph_from_edges(n, edges)


# ---------------------------------------------------------------------------
# DIMACS-style graph files


def write_dimacs(G: Graph, path) -> None:
    """Write `p edge n m` / `e u v` lines, 1-indexed; circulant provenance
    goes into a `c circulant n s1 s2 ...` comment."""
    with open(path, "w") as fh:
        if G.circulant is not None:
            fh.writelines(_circulant_text(G.circulant))
        else:
            edges = G.edges()
            fh.write("p edge %d %d\n" % (G.n, len(edges))
                     + "".join("e %d %d\n" % (u + 1, v + 1) for (u, v) in edges))


# The most vertices and edges a `p edge n m` line may declare, so that a
# short header cannot make the reader allocate unbounded rows, and `gen`
# writes no file that the reader refuses.
MAX_VERTICES = 1 << 20
MAX_EDGES = 1 << 24

# read_in_chunks takes this many lines at a time, and _circulant_text yields
# about this many edge lines per piece.  A whole file at once costs memory
# in proportion to the file; a chunk keeps it flat.
CHUNK_LINES = 1024


def read_in_chunks(path, pattern, bulk, walk) -> None:
    """Pass each run of CHUNK_LINES lines of the text file at path to
    bulk(text) if the run's text fullmatches the regex pattern, and to
    walk(number of its first line, its lines) if it does not or bulk
    returns False.  Of the first run, the leading lines that do not each
    fullmatch the pattern (a file's header) go to walk on their own, and
    the rest of the run as above.  bulk must change nothing when it
    returns False."""
    fullmatch = re.compile(pattern).fullmatch
    first = 1
    with open(path) as fh:
        while lines := list(itertools.islice(fh, CHUNK_LINES)):
            if first == 1:
                head = next((k for k, line in enumerate(lines) if fullmatch(line)), len(lines))
                walk(1, lines[:head])
                first, lines = 1 + head, lines[head:]
            if lines:
                text = "".join(lines)
                if not (fullmatch(text) and bulk(text)):
                    walk(first, lines)
                first += len(lines)


def _heads(lo: int, hi: int) -> list:
    """The line heads `e u+1 ` of the vertices u in [lo, hi), by one format
    and one split."""
    return ("e %d \n" * (hi - lo) % tuple(range(lo + 1, hi + 1))).splitlines()


def circulant_bands(n: int, conn: list) -> list:
    """The line order of C_n(S), S given ascending as conn = s_0 < s_1 <
    ..., in bands: (lo, hi, k) for k = |S| down to 1, where [lo, hi) are
    the vertices u whose edges {u, u + s} with u + s < n are exactly those
    of s_0..s_(k-1); with s_|S| taken as n, [lo, hi) = [n - s_k,
    n - s_(k-1)).  Vertex u lists those edges with s ascending, so a band
    lists k edges per vertex, u ascending.  The bands ascend, are never
    empty and cover [0, n - s_0): this is the order of Graph.edges, of
    write_dimacs and of write_coloring."""
    ends = conn + [n]
    return [(n - ends[k], n - ends[k - 1], k) for k in range(len(conn), 0, -1)]


def _circulant_text(spec: CirculantSpec):
    """write_dimacs's text for C_n(S) in pieces: the two header lines, then
    runs of about CHUNK_LINES edge lines.  Vertex u's lines are
    `e u+1 u+s+1` for s in S ascending with u + s < n, the order of
    circulant_bands; a piece ends after the first vertex that takes it to
    CHUNK_LINES lines or more, so it holds at most CHUNK_LINES + |S| - 1.

    The text is built by columns.  Once the header lines are taken, one
    table is made: tails[v] = `v+1` and a newline.  A head `e u+1 ` serves
    vertex u's lines only, so the heads are made a run of vertices at a
    time.  Over a band of k generators s_0..s_(k-1) the text is head u,
    tails[u + s_0], head u, tails[u + s_1], ... for u ascending: each piece
    of it is one zip of 2k columns, joined with no Python step per vertex
    or line.  Setting up 2k columns costs more than joining a few vertices
    one at a time, so a band at most k + 1 vertices wide, as most are in a
    dense circulant, is joined vertex by vertex with its generators found
    by bisect, as are the vertices between two such bands."""
    n, conn = spec.n, sorted(spec.connection)
    yield "c circulant %d %s\n" % (n, " ".join(map(str, conn)))
    yield "p edge %d %d\n" % (n, n * len(conn) // 2)
    if not conn:
        return
    tails = ("%d\n" * n % tuple(range(1, n + 1))).splitlines(True)
    # (lo, hi, k): the band [lo, hi) of k generators, or with k = 0 vertices
    # that are joined one at a time
    runs, lo = [], 0
    for band in circulant_bands(n, conn):
        if band[1] - band[0] > band[2] + 1:
            runs += [(lo, band[0], 0), band]
            lo = band[1]
    runs.append((lo, n - conn[0], 0))
    piece, count = [], 0
    for lo, hi, k in runs:
        heads = None if k else _heads(lo, hi)
        u = lo
        while u < hi:
            if k:  # the vertices u..b-1, b - 1 the first to reach CHUNK_LINES
                b = min(hi, u - (count - CHUNK_LINES) // k)
                col = _heads(u, b)
                piece.append("".join(itertools.chain.from_iterable(zip(
                    *[c for s in conn[:k] for c in (iter(col), tails[u + s:b + s])]))))
                count += k * (b - u)
                u = b
            else:
                head = heads[u - lo]
                gens = conn[:bisect.bisect_left(conn, n - u)]
                piece.append(head + head.join([tails[u + s] for s in gens]))
                count += len(gens)
                u += 1
            if count >= CHUNK_LINES:
                yield "".join(piece)
                piece, count = [], 0
    yield "".join(piece)


def read_dimacs(path) -> Graph:
    """Inverse of write_dimacs.  The `e` lines must list each of the m edges
    of the `p edge n m` line exactly once, with 1 <= n <= MAX_VERTICES and
    m at most n(n-1)/2 and MAX_EDGES; errors name the offending line.  A
    `c circulant` comment must describe the same graph.

    The file is opened once, and its text takes one of two routes.  A file
    with write_dimacs's text for the circulant its first line names reads
    as the Graph of that spec, with no rows (_read_circulant).  Every other
    file is read again from its start by the line grammar
    (_read_edge_list), which defines every error text.  Input that cannot seek, such as a pipe, is
    read into memory first, so that both see all of it.  Text that is not
    UTF-8 raises GraphError."""
    with open(path) as raw:
        try:
            fh = raw if raw.seekable() else io.StringIO(raw.read())
            G = _read_circulant(fh)
            if G is None:
                fh.seek(0)
                G = _read_edge_list(fh)
        except UnicodeDecodeError as exc:
            raise GraphError("not UTF-8 text: %s" % exc) from None
    return G


def _read_circulant(fh) -> Graph | None:
    """C_n(S), named by a `c circulant n S` line 1 with n <= MAX_VERTICES
    and n|S|/2 <= MAX_EDGES, if the text of the open file fh is
    write_dimacs's text for it (_circulant_text's pieces, then the end),
    else None: that text reads as C_n(S), a Graph of the spec alone.  A
    larger n or n|S|/2 is left to the line reader, which refuses its `p`
    line.  fh must be seekable.  The text's O(n) table of vertex numbers
    is built only when the file has room for n|S|/2 edge lines of 6 or
    more characters, so a short file claiming a large n costs little."""
    try:
        size = fh.seek(0, io.SEEK_END)
        fh.seek(0)
        first = fh.readline()
        tok = first.split()
        if len(tok) < 3 or tok[:2] != ["c", "circulant"]:
            return None
        spec = CirculantSpec(int(tok[2]), map(int, tok[3:]))
        text = _circulant_text(spec)
        m = spec.n * spec.degree // 2
        if next(text) != first or spec.n > MAX_VERTICES or m > MAX_EDGES or size < 6 * m:
            return None
        if any(fh.read(len(piece)) != piece for piece in text) or fh.read(1):
            return None
    except ValueError:  # int's, CirculantSpec's GraphError, or a decoding error
        return None
    return Graph(spec.n, None, spec)


def _read_edge_list(fh) -> Graph:
    """read_dimacs for the text of any open file fh, one line at a time: the
    grammar and its error texts.  The edges are kept as a set of codes
    u*n + v with u < v, which catches a repeated edge in O(m) memory.  A
    file whose circulant comment describes its edges reads as the Graph of
    that spec, with no rows; any other graph's rows are built from the
    codes once the edge count holds, so that a short file whose `p` line
    claims many vertices allocates nothing in proportion to n."""
    n = m = p_line = None
    edges = set()
    circ = None
    diffs = set()  # (v - u) mod n over the edges
    for lineno, raw in enumerate(fh, 1):
        tok = raw.split()
        if not tok:
            continue
        try:
            if tok[0] == "e":
                if n is None:
                    raise GraphError("edge line before problem line")
                if len(tok) != 3:
                    raise GraphError("edge line needs two endpoints")
                u, v = int(tok[1]) - 1, int(tok[2]) - 1
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphError("edge endpoint out of range")
                if u == v:
                    raise GraphError("self-loop")
                code = u * n + v if u < v else v * n + u
                if code in edges:
                    raise GraphError("repeated edge")
                edges.add(code)
                diffs.add((v - u) % n)
            elif tok[0] == "c":
                if len(tok) >= 3 and tok[1] == "circulant":
                    circ = CirculantSpec(int(tok[2]), [int(x) for x in tok[3:]])
            elif tok[0] == "p":
                if len(tok) != 4 or tok[1] != "edge" or n is not None:
                    raise GraphError("malformed or repeated problem line")
                n, m, p_line = int(tok[2]), int(tok[3]), lineno
                if not 1 <= n <= MAX_VERTICES:
                    raise GraphError("vertex count %d outside 1..%d" % (n, MAX_VERTICES))
                if not 0 <= m <= n * (n - 1) // 2:
                    raise GraphError("edge count %d outside 0..n(n-1)/2 = %d"
                                     % (m, n * (n - 1) // 2))
                if m > MAX_EDGES:
                    raise GraphError("edge count %d above %d" % (m, MAX_EDGES))
            else:
                raise GraphError("unrecognized line")
        except ValueError as exc:
            raise GraphError("line %d: %s: %r" % (lineno, exc, raw.strip())) from None
    if n is None:
        raise GraphError("missing problem line")
    if len(edges) != m:
        raise GraphError("line %d: problem line declares %d edges, the file lists %d"
                         % (p_line, m, len(edges)))
    if circ is None:
        return _graph_from_edges(n, map(divmod, edges, itertools.repeat(n)))
    # The edges are distinct, so if each difference lies in the connection
    # set and there are as many as the circulant has, the edge sets are equal.
    if circ.n != n or not diffs <= circ.connection or 2 * m != n * circ.degree:
        raise GraphError("circulant comment inconsistent with edge list")
    return Graph(n, None, circ)
