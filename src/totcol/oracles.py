"""Desk-scale exact solvers certifying optimality and impossibility claims.

The total-coloring solver works on the "total graph" view: colorable items
are the vertices and edges, conflicts are adjacency / shared endpoints /
incidence.  "Inconclusive" is a first-class outcome carrying the exhausted
budget; the solvers never silently overclaim.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from .graphs import Graph, complement
from .coloring import TotalColoring, ekey, verify_total


class OracleError(ValueError):
    """An oracle cannot take this input (size limit, irregular graph, bad budget)."""


class BudgetExhausted(OracleError):
    """A search used up its SearchBudget without an answer."""


@dataclass
class SearchBudget:
    """Limits for the exact searches; exhaustion yields an explicit
    inconclusive outcome."""

    max_colors: int = 64
    node_limit: int = 50_000_000
    time_limit_secs: float = 600.0

    def __post_init__(self):
        if self.max_colors <= 0 or self.node_limit <= 0 or self.time_limit_secs <= 0:
            raise OracleError("budget limits must be positive")


class _Budget:
    def __init__(self, budget: SearchBudget):
        self.node_limit = budget.node_limit
        self.deadline = time.monotonic() + budget.time_limit_secs
        self.nodes = 0

    def tick(self) -> bool:
        self.nodes += 1
        if self.nodes > self.node_limit:
            return False
        if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            return False
        return True


def _solve_list_coloring(adj: List[List[int]], k: int, precolor: Dict[int, int],
                         budget: _Budget):
    """Feasibility of a proper k-coloring of a conflict graph.

    adj: neighbor index lists.  Returns ("sat", colors), ("unsat", None), or
    ("budget", None).  Deterministic: MRV with index tie-break, ascending
    colors, and the classic cap that a fresh color may only be the smallest
    unused one.  Each search node costs one budget tick.  The search keeps
    its path on an explicit stack, so its depth is not bounded by Python's
    recursion limit.
    """
    n = len(adj)
    full = (1 << (k + 1)) - 2  # bits 1..k
    domain = [full] * n
    color = [0] * n
    for item, c in precolor.items():
        if c > k:
            return "unsat", None
        domain[item] = 1 << c

    def assign(item: int, c: int, trail: list) -> bool:
        color[item] = c
        bit = 1 << c
        for nb in adj[item]:
            if color[nb] == 0 and domain[nb] & bit:
                domain[nb] &= ~bit
                trail.append(nb)
                if domain[nb] == 0:
                    return False
        return True

    def undo(item: int, c: int, trail: list) -> None:
        bit = 1 << c
        for nb in trail:
            domain[nb] |= bit
        color[item] = 0

    # seed: apply precolors first (propagation included)
    pre_trail: list = []
    maxused = 0
    for item, c in sorted(precolor.items()):
        maxused = max(maxused, c)
        if color[item] == 0:
            if not assign(item, c, pre_trail):
                return "unsat", None

    # One frame per node on the current path: [item, its domain on entry,
    # color cap, maxused on entry, color being tried, that color's trail].
    stack: list = []
    while True:
        # enter a new node
        if not budget.tick():
            return "budget", None
        best, best_count = -1, k + 2
        for i in range(n):
            if color[i] == 0:
                cnt = domain[i].bit_count()
                if cnt < best_count:
                    best, best_count = i, cnt
                    if cnt <= 1:
                        break
        if best == -1:
            return "sat", list(color)
        stack.append([best, domain[best], min(k, maxused + 1), maxused, 0, None])
        # assign the next color at the deepest node that has one left
        while stack:
            frame = stack[-1]
            item, dom, cap, maxused, tried, trail = frame
            if trail is not None:
                undo(item, tried, trail)
            for c in range(tried + 1, cap + 1):
                if (dom >> c) & 1:
                    trail = []
                    if assign(item, c, trail):
                        break
                    undo(item, c, trail)
            else:
                stack.pop()
                continue
            frame[4], frame[5] = c, trail
            maxused = max(maxused, c)
            break
        else:
            return "unsat", None


# ---------------------------------------------------------------------------
# Total graph view


def total_items(G: Graph):
    """Items of the total graph (vertices then edges) and their conflict
    adjacency lists."""
    items = [("v", v) for v in range(G.n)] + [("e", e) for e in G.edges()]
    index = {it: i for i, it in enumerate(items)}
    adj: List[set] = [set() for _ in items]

    def link(a, b):
        ia, ib = index[a], index[b]
        adj[ia].add(ib)
        adj[ib].add(ia)

    for (u, v) in G.edges():
        link(("v", u), ("v", v))
        link(("v", u), ("e", (u, v)))
        link(("v", v), ("e", (u, v)))
    for w in range(G.n):
        nbrs = G.neighbors(w)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                link(("e", ekey(w, nbrs[i])), ("e", ekey(w, nbrs[j])))
    return items, [sorted(s) for s in adj], index


def _star_clique(G: Graph, index) -> Dict[int, int]:
    """Precolor the star of a maximum-degree vertex (a clique of size
    Delta+1 in the total graph) with colors 1..Delta+1."""
    if G.n == 0:
        return {}
    v = max(range(G.n), key=lambda u: (G.degree(u), -u))
    pre = {index[("v", v)]: 1}
    c = 2
    for u in G.neighbors(v):
        pre[index[("e", ekey(v, u))]] = c
        c += 1
    return pre


# Steps the Delta+1 conformability check may take in exact_total_chromatic
# before it leaves the bound to the search; it also takes at most a tenth of
# the node limit, so that the search keeps the rest.  Over 383 random
# circulants with n <= 40, every refutation took at most 17 343 steps, but 44
# checks were still open after 2 M steps; on C_23{6,8,11,12,15,17} the check
# is, while the search finds a 7-coloring in 954 nodes.  A step costs about
# 1.5 us, a search node about 6 us.
_CONFORMABLE_STEPS = 100_000

# What proves chi'' >= the value found (or, when inconclusive, >= lower_bound).
LOWER_EVIDENCE = {
    "clique": "the star of a maximum-degree vertex is a clique of Delta+1 items",
    "conformability": "a regular graph with no conformable Delta+1 partition has "
                      "no Delta+1 total coloring [Chetwynd-Hilton 1988]",
    "search": "exhaustive search refuted every smaller color count",
}


@dataclass
class TotalChromaticResult:
    status: str  # "exact" or "inconclusive"
    value: Optional[int]
    coloring: Optional[TotalColoring]
    lower_bound: int  # the certified bound the color loop starts at
    nodes: int  # search nodes only
    conformability_steps: int
    lower_evidence: str  # a key of LOWER_EVIDENCE


def exact_total_chromatic(G: Graph, budget: Optional[SearchBudget] = None) -> TotalChromaticResult:
    """Least c admitting a proper total coloring, by exhaustive backtracking
    per candidate c from a certified lower bound.

    The star of a maximum-degree vertex is a clique of Delta+1 items, so
    chi'' >= Delta+1.  A regular graph may do better (Chetwynd-Hilton,
    1988): in a Delta+1 total coloring of a Delta-regular graph every vertex
    sees all Delta+1 colors, so the vertices outside a color's vertex class
    are perfectly matched by that color's edges, and every vertex class has
    the parity of n.  The vertex classes then form a conformable partition;
    when `conformable_exists(G, Delta+1)` finds none, chi'' >= Delta+2 and
    the Delta+1 search never runs.  The argument needs every vertex to have
    degree Delta, so an irregular graph starts at Delta+1, and so does a
    regular graph whose check is still open after its step allowance (see
    _CONFORMABLE_STEPS).

    The conformability check and the searches share one budget tracker:
    `nodes` counts search nodes, `conformability_steps` the check's steps,
    and their sum is bounded by the node limit.  A budget that runs out in
    the check (its time limit) gives an inconclusive result.
    `lower_evidence` names what proves chi'' >= value: "clique",
    "conformability", or "search" when the value lies above the certified
    lower bound.
    """
    budget = budget or SearchBudget()
    delta = G.max_degree
    tracker = _Budget(budget)
    lower, evidence = delta + 1, "clique"
    if G.regular_degree is not None:
        try:
            conformable, _ = _conformable(G, delta + 1, tracker,
                                          min(_CONFORMABLE_STEPS, budget.node_limit // 10))
        except BudgetExhausted:
            return TotalChromaticResult("inconclusive", None, None, lower, 0,
                                        tracker.nodes, evidence)
        if conformable is False:  # None: still open, the search decides
            lower, evidence = delta + 2, "conformability"
    steps = tracker.nodes
    items, adj, index = total_items(G)
    pre = _star_clique(G, index)
    for c in range(lower, budget.max_colors + 1):
        status, colors = _solve_list_coloring(adj, c, pre, tracker)
        if status == "sat":
            tc = TotalColoring(G.n)
            for i, it in enumerate(items):
                if it[0] == "v":
                    tc.vertex_color[it[1]] = colors[i]
                else:
                    tc.edge_color[it[1]] = colors[i]
            report = verify_total(G, tc)
            if not report.ok:
                raise AssertionError("oracle certificate failed verification")
            return TotalChromaticResult("exact", c, tc, lower, tracker.nodes - steps, steps,
                                        evidence if c == lower else "search")
        if status == "budget":
            break
    return TotalChromaticResult("inconclusive", None, None, lower, tracker.nodes - steps,
                                steps, evidence)


def exact_chromatic(G: Graph, budget: Optional[SearchBudget] = None):
    """Exact chromatic number with a proper-coloring certificate."""
    budget = budget or SearchBudget()
    adj = [G.neighbors(v) for v in range(G.n)]
    # greedy clique from a max-degree vertex, for the lower bound + precolor
    clique: list = []
    if G.n:
        v0 = max(range(G.n), key=lambda u: (G.degree(u), -u))
        clique = [v0]
        for u in range(G.n):
            if u != v0 and all(G.has_edge(u, w) for w in clique):
                clique.append(u)
    tracker = _Budget(budget)
    for k in range(max(1, len(clique)), budget.max_colors + 1):
        pre = {v: i + 1 for i, v in enumerate(clique)}
        status, colors = _solve_list_coloring(adj, k, pre, tracker)
        if status == "sat":
            assignment = {v: colors[v] for v in range(G.n)}
            for (u, v) in G.edges():
                if assignment[u] == assignment[v]:
                    raise AssertionError("chromatic certificate invalid")
            return k, assignment
        if status == "budget":
            raise BudgetExhausted("chromatic search budget exhausted")
    raise BudgetExhausted("no coloring within max_colors")


def exact_edge_coloring(G: Graph, k: int, budget: SearchBudget):
    """A proper k-edge-coloring, as a k-coloring of the line graph.

    Returns ("sat", {edge: color}), ("unsat", None), or ("budget", None).
    """
    edges = G.edges()
    index = {e: i for i, e in enumerate(edges)}
    adj: List[list] = [[] for _ in edges]
    for w in range(G.n):
        star = [index[ekey(w, u)] for u in G.neighbors(w)]
        for i in star:
            adj[i].extend(j for j in star if j != i)
    status, colors = _solve_list_coloring(adj, k, {}, _Budget(budget))
    if status != "sat":
        return status, None
    return status, dict(zip(edges, colors))


# ---------------------------------------------------------------------------
# Cliques


@dataclass
class CliqueStats:
    cliques: list  # all maximal cliques, sorted
    omega: int
    maximal_count: int
    maximum_count: int


def maximal_cliques(G: Graph) -> CliqueStats:
    """All maximal cliques via pivoting enumeration, with clique-number and
    count statistics.  The enumeration runs on an explicit stack, so no
    clique size reaches Python's recursion limit."""
    out: list = []
    nbr = [set(G.neighbors(v)) for v in range(G.n)]
    # A frame: clique, candidates, excluded, and the branch vertices left
    # (the candidates outside the pivot's neighborhood).
    stack: list = []

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            out.append(tuple(sorted(clique)))
            return
        pivot_pool = candidates | excluded
        pivot = max(pivot_pool, key=lambda u: (len(candidates & nbr[u]), -u))
        stack.append((clique, candidates, excluded,
                      iter(sorted(candidates - nbr[pivot]))))

    if G.n:
        expand([], set(range(G.n)), set())
    while stack:
        clique, candidates, excluded, branches = stack[-1]
        v = next(branches, None)
        if v is None:
            stack.pop()
            continue
        expand(clique + [v], candidates & nbr[v], excluded & nbr[v])
        candidates.discard(v)
        excluded.add(v)
    out.sort()
    omega = max((len(c) for c in out), default=0)
    maximum_count = sum(1 for c in out if len(c) == omega)
    return CliqueStats(out, omega, len(out), maximum_count)


# ---------------------------------------------------------------------------
# Perfectness


def _has_odd_hole(G: Graph) -> bool:
    """Induced odd cycle of length >= 5, by chordless-path extension."""
    nbr = [set(G.neighbors(v)) for v in range(G.n)]
    for s in range(G.n):
        higher = [v for v in nbr[s] if v > s]
        for first in higher:
            # path = [s, first, ...]; internal vertices must avoid nbr[s]
            stack = [([s, first], {s, first})]
            while stack:
                path, members = stack.pop()
                last = path[-1]
                for u in sorted(nbr[last]):
                    if u <= s or u in members:
                        continue
                    # chordless: u may touch only the path's last vertex (and s at closure)
                    if any(w in nbr[u] for w in path[1:-1]):
                        continue
                    if u in nbr[s]:
                        cycle_len = len(path) + 1
                        if cycle_len >= 5 and cycle_len % 2 == 1 and u > first:
                            return True
                        continue  # chord to s: cannot be extended legally
                    stack.append((path + [u], members | {u}))
    return False


def is_perfect(G: Graph, size_limit: int = 20) -> bool:
    """No induced odd hole in G or its complement (exhaustive; desk scale)."""
    if G.n > size_limit:
        raise OracleError("is_perfect limited to n <= %d" % size_limit)
    if _has_odd_hole(G):
        return False
    return not _has_odd_hole(complement(G))


# ---------------------------------------------------------------------------
# Conformability


def conformable_exists(G: Graph, q: int, budget: Optional[SearchBudget] = None):
    """Does V partition into exactly q independent classes whose sizes all
    share n's parity (empty classes count as size 0)?

    Returns (bool, partition-or-None).  Exhaustive backtracking over the
    vertices in index order, with parity pruning and first-empty-class
    symmetry breaking, kept on an explicit stack.  Each step (placing or
    taking back one vertex) costs one budget tick; BudgetExhausted is raised
    when the budget runs out.
    """
    if G.regular_degree is None:
        raise OracleError("conformable check requires a regular graph")
    return _conformable(G, q, _Budget(budget or SearchBudget()), math.inf)


def _conformable(G: Graph, q: int, tracker: _Budget, max_steps):
    """conformable_exists on a regular graph, ticking the given tracker;
    (None, None) once max_steps steps leave the answer open."""
    stop = tracker.nodes + max_steps
    n = G.n
    parity = n % 2
    members = [0] * q  # vertex bitmask of each class
    sizes = [0] * q
    deficits = q * parity  # classes whose size parity differs from n's
    opened = 0  # nonempty classes; they fill in index order, so form a prefix
    choice: List[int] = []  # choice[v]: the class of vertex v
    start = 0  # first class to try for the next vertex
    while True:
        if tracker.nodes == stop:
            return None, None
        if not tracker.tick():
            raise BudgetExhausted("conformable search budget exhausted")
        v = len(choice)
        if v == n and deficits == 0:
            return True, [tuple(u for u in range(n) if choice[u] == ci)
                          for ci in range(q)]
        found = -1
        if v < n and n - v >= deficits and (n - v - deficits) % 2 == 0:
            # of the empty classes only the first is tried: they are
            # interchangeable
            for ci in range(start, min(q, opened + 1)):
                if not G.rows[v] & members[ci]:
                    found = ci
                    break
        if found >= 0:
            ci, start = found, 0
            choice.append(ci)
            members[ci] |= 1 << v
            opened += sizes[ci] == 0
            sizes[ci] += 1
        elif choice:
            ci = choice.pop()
            start = ci + 1
            members[ci] &= ~(1 << (v - 1))
            sizes[ci] -= 1
            opened -= sizes[ci] == 0
        else:
            return False, None
        # one vertex more or less flips the parity of class ci's size
        deficits += -1 if sizes[ci] % 2 == parity else 1


# ---------------------------------------------------------------------------
# Classification


@dataclass
class Classification:
    kind: str  # "type1" | "type2" | "inconclusive"
    delta: int
    certificate: Optional[TotalColoring]
    value: Optional[int]
    nodes: int  # search nodes only
    conformability_steps: int
    lower_evidence: str  # a key of LOWER_EVIDENCE
    upper_evidence: Optional[str]  # the construction's method name, "search", or None
    detail: str


def _type_one_certificate(G: Graph):
    """(method, coloring) from the first constructions.TYPE_ONE method that
    gives G a Delta+1 total coloring, or None when none does.  The method has
    verified the coloring; a VerificationFailure propagates."""
    # constructions imports this module at module level, so a module-level
    # import of it here would be circular
    from . import constructions

    for name in constructions.TYPE_ONE:
        try:
            coloring = constructions.METHODS[name](G).coloring
        except constructions.ConstructionError:
            continue
        if coloring.colors_used() == G.max_degree + 1:
            return name, coloring
    return None


def classify_type(G: Graph, budget: Optional[SearchBudget] = None) -> Classification:
    """Type I (a Delta+1 certificate), type II (chi'' >= Delta+2 plus a
    Delta+2 certificate), or inconclusive with the spent budget.

    The upper bound comes first from the paper's Delta+1 theorems
    (constructions.TYPE_ONE): when Delta+1 is within max_colors, a verified
    Delta+1 coloring proves type I against the star clique, with no search.
    The constructions run outside the budget: they spend no node and do not
    watch the time limit.  Otherwise
    this is exact_total_chromatic capped at Delta+2 colors, so the lower
    bound Delta+2 of a type II graph comes from conformability when the
    graph is regular and not conformable with Delta+1 classes (Chetwynd-
    Hilton: a type I regular graph is conformable), and from an exhausted
    Delta+1 search otherwise.  Irregular graphs always take the search.
    `lower_evidence`, `upper_evidence` and `detail` say which evidence
    closed each bound.
    """
    budget = budget or SearchBudget()
    delta = G.max_degree
    found = _type_one_certificate(G) if delta + 1 <= budget.max_colors else None
    if found is not None:
        method, coloring = found
        detail = "lower bound by clique: %s; Delta+1 certificate by construction %s" % (
            LOWER_EVIDENCE["clique"], method)
        return Classification("type1", delta, coloring, delta + 1, 0, 0, "clique",
                              method, detail)
    capped = SearchBudget(
        max_colors=min(budget.max_colors, delta + 2),
        node_limit=budget.node_limit,
        time_limit_secs=budget.time_limit_secs,
    )
    res = exact_total_chromatic(G, capped)
    why = "%s: %s" % (res.lower_evidence, LOWER_EVIDENCE[res.lower_evidence])
    if res.status == "exact":
        kind = "type1" if res.value == delta + 1 else "type2"
        upper = "search"
        detail = "lower bound by %s; Delta+%d certificate found by search" % (
            why, res.value - delta)
    else:
        kind, upper = "inconclusive", None
        detail = "budget exhausted; lower bound Delta+%d by %s" % (res.lower_bound - delta, why)
    return Classification(kind, delta, res.coloring, res.value, res.nodes,
                          res.conformability_steps, res.lower_evidence, upper, detail)
