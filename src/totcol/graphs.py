"""Circulant, unitary Cayley, and table-defined Cayley graphs.

Vertices are always labeled 0..n-1.  Adjacency is stored densely, one
bitmask row per vertex, so membership tests are O(1) and the verifier /
exact solvers can hammer them freely.  All constructors are pure; Graph
objects are immutable after construction.
"""
from __future__ import annotations

import itertools
import math
import operator
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional


class GraphError(ValueError):
    """Raised for structurally invalid graph inputs."""


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


@dataclass(frozen=True)
class CirculantSpec:
    """Vertex count n plus a symmetric, identity-free connection set in 1..n-1."""

    n: int
    connection: frozenset

    def __init__(self, n: int, connection) -> None:
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "connection", frozenset(int(s) for s in connection))
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


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its multiplication table of element indices."""

    n: int
    product: tuple
    identity: int

    def __init__(self, n: int, product, identity: int) -> None:
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "product", tuple(tuple(row) for row in product))
        object.__setattr__(self, "identity", int(identity))
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


def cyclic_group(n: int) -> GroupTable:
    """The cyclic group Z_n as an explicit table."""
    return GroupTable(n, [[(i + j) % n for j in range(n)] for i in range(n)], 0)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with dense bitmask adjacency rows."""

    n: int
    rows: tuple
    circulant: Optional[CirculantSpec] = None
    cayley: Optional[tuple] = None  # (GroupTable, frozenset of generators)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def neighbors(self, u: int) -> list:
        """Ascending neighbors of u, in O(deg(u)) steps over the set bits."""
        out = []
        row = self.rows[u]
        while row:
            low = row & -row
            out.append(low.bit_length() - 1)
            row ^= low
        return out

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def edges(self) -> list:
        """All edges as sorted (u, v) pairs with u < v."""
        out = []
        for u in range(self.n):
            row = (self.rows[u] >> (u + 1)) << (u + 1)
            while row:
                low = row & -row
                out.append((u, low.bit_length() - 1))
                row ^= low
        return out

    # The degree sums popcount every row, so each is computed once per
    # Graph: cached_property stores it in the instance __dict__, which a
    # frozen dataclass without slots still has.
    @cached_property
    def edge_count(self) -> int:
        return sum(self.degree(u) for u in range(self.n)) // 2

    @cached_property
    def max_degree(self) -> int:
        return max((self.degree(u) for u in range(self.n)), default=0)

    @cached_property
    def regular_degree(self) -> Optional[int]:
        degs = {self.degree(u) for u in range(self.n)}
        return degs.pop() if len(degs) == 1 else None


def _graph_from_edges(n: int, edges, circulant=None, cayley=None) -> Graph:
    rows = [0] * n
    for (u, v) in edges:
        if u == v:
            raise GraphError("self-loop at vertex %d" % u)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows), circulant, cayley)


def build_circulant(spec: CirculantSpec) -> Graph:
    """Circulant graph: u ~ v iff (v - u) mod n lies in the connection set."""
    edges = []
    for u in range(spec.n):
        for s in spec.connection:
            v = (u + s) % spec.n
            if u < v:
                edges.append((u, v))
    return _graph_from_edges(spec.n, edges, circulant=spec)


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
    return _graph_from_edges(table.n, sorted(edges), cayley=(table, S))


def complement(G: Graph) -> Graph:
    """Complement graph; circulant / Cayley provenance is carried along."""
    full = (1 << G.n) - 1
    rows = tuple((full & ~G.rows[u]) & ~(1 << u) for u in range(G.n))
    circ = None
    if G.circulant is not None:
        circ = CirculantSpec(
            G.n, frozenset(range(1, G.n)) - G.circulant.connection
        )
    cay = None
    if G.cayley is not None:
        table, S = G.cayley
        comp_S = frozenset(range(table.n)) - S - {table.identity}
        cay = (table, comp_S)
    return Graph(G.n, rows, circ, cay)


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


@dataclass(frozen=True)
class TwoFactor:
    """One factor of a circulant 2-factor decomposition.

    generators is the inverse pair (s, n-s), or the singleton (n/2,) whose
    factor degenerates to a perfect matching (cycles of length 2).
    """

    generators: tuple
    cycles: tuple


@dataclass(frozen=True)
class TwoFactorDecomposition:
    n: int
    factors: tuple


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
    lines = []
    if G.circulant is not None:
        conn = " ".join(str(s) for s in sorted(G.circulant.connection))
        lines.append("c circulant %d %s" % (G.circulant.n, conn))
    edges = G.edges()
    lines.append("p edge %d %d" % (G.n, len(edges)))
    for (u, v) in edges:
        lines.append("e %d %d" % (u + 1, v + 1))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# The most vertices a `p edge n m` line may declare, so that a short header
# cannot make the reader allocate unbounded rows.
MAX_VERTICES = 1 << 20

# The file readers take this many lines at a time.  A chunk in the writer's
# own line form is parsed and checked in bulk; any other chunk, and one that
# fails a bulk check, is walked line by line.  A whole file at once costs
# memory in proportion to the file; a chunk keeps it flat.
CHUNK_LINES = 1024


def read_in_chunks(path, pattern, bulk, walk) -> None:
    """Pass each run of CHUNK_LINES lines of the text file at path to
    bulk(text) if the run's text fullmatches the regex pattern, and to
    walk(number of its first line, its lines) if it does not or bulk
    returns False.  bulk must change nothing when it returns False."""
    first = 1
    with open(path) as fh:
        while lines := list(itertools.islice(fh, CHUNK_LINES)):
            text = "".join(lines)
            if not (re.fullmatch(pattern, text) and bulk(text)):
                walk(first, lines)
            first += len(lines)


# write_dimacs's edge lines
_EDGE_LINES = r"(?:e [0-9]+ [0-9]+\n)+"


def read_dimacs(path) -> Graph:
    """Inverse of write_dimacs.  The `e` lines must list each of the m edges
    of the `p edge n m` line exactly once, with n <= MAX_VERTICES and m at
    most n(n-1)/2; errors name the offending line.  A `c circulant` comment
    must describe the same graph."""
    n = m = p_line = None
    rows: list = []
    count = 0
    circ = None
    diffs = set()  # (v - u) mod n over the edges

    def walk(first, lines):
        """Read lines one at a time: the grammar and its error texts."""
        nonlocal n, m, p_line, rows, count, circ
        for lineno, raw in enumerate(lines, first):
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
                    if (rows[u] >> v) & 1:
                        raise GraphError("repeated edge")
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    diffs.add((v - u) % n)
                    count += 1
                elif tok[0] == "c":
                    if len(tok) >= 3 and tok[1] == "circulant":
                        circ = CirculantSpec(int(tok[2]), [int(x) for x in tok[3:]])
                elif tok[0] == "p":
                    if len(tok) != 4 or tok[1] != "edge" or n is not None:
                        raise GraphError("malformed or repeated problem line")
                    n, m, p_line = int(tok[2]), int(tok[3]), lineno
                    if not 0 <= n <= MAX_VERTICES:
                        raise GraphError("vertex count %d outside 0..%d" % (n, MAX_VERTICES))
                    if not 0 <= m <= n * (n - 1) // 2:
                        raise GraphError("edge count %d outside 0..n(n-1)/2 = %d"
                                         % (m, n * (n - 1) // 2))
                    rows = [0] * n
                else:
                    raise GraphError("unrecognized line")
            except ValueError as exc:
                raise GraphError("line %d: %s: %r" % (lineno, exc, raw.strip())) from None

    def bulk(text):
        """Read a chunk of edge lines at once, if they come in the writer's
        order: u ascending and 1 <= u < v <= n.  Then the v's of each u are
        a run, and their bits one mask: a v repeated in the run carries in
        the sum, and an edge read before meets the row of u."""
        nonlocal count
        tok = text.split()
        us = list(map(int, tok[1::3]))
        vs = list(map(int, tok[2::3]))
        if n is None or not (0 < us[0] and max(vs) <= n and all(map(operator.le, us, us[1:]))
                             and all(map(operator.lt, us, vs))):
            return False
        masks = []
        i = 0
        for u, k in Counter(us).items():
            mask = sum(map((1).__lshift__, vs[i:i + k])) >> 1
            i += k
            if mask.bit_count() != k or rows[u - 1] & mask:
                return False
            masks.append((u - 1, mask))
        for u, mask in masks:
            rows[u] |= mask
        for u, v in zip(us, vs):
            rows[v - 1] |= 1 << (u - 1)
        diffs.update(map(operator.sub, vs, us))
        count += len(us)
        return True

    read_in_chunks(path, _EDGE_LINES, bulk, walk)
    if n is None:
        raise GraphError("missing problem line")
    if count != m:
        raise GraphError("line %d: problem line declares %d edges, the file lists %d"
                         % (p_line, m, count))
    # The edges are distinct, so if each difference lies in the connection
    # set and there are as many as the circulant has, the edge sets are equal.
    if circ is not None and (circ.n != n or not diffs <= circ.connection
                             or 2 * count != n * circ.degree):
        raise GraphError("circulant comment inconsistent with edge list")
    return Graph(n, tuple(rows), circ)
