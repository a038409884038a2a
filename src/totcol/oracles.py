"""Desk-scale exact solvers certifying optimality and impossibility claims.

The total-coloring solver works on the "total graph" view: colorable items
are the vertices and edges, conflicts are adjacency / shared endpoints /
incidence.  "Inconclusive" is a first-class outcome carrying the exhausted
budget; the solvers never silently overclaim.
"""
from __future__ import annotations

import itertools
import math
import time

from .graphs import Graph, Record, complement
from .coloring import TotalColoring, ekey, verify_total


class OracleError(ValueError):
    """An oracle cannot take this input (size limit, irregular graph, bad budget)."""


class BudgetExhausted(OracleError):
    """A search used up its SearchBudget without an answer."""


class SearchBudget(Record):
    """Limits for the exact searches; exhaustion yields an explicit
    inconclusive outcome."""

    _fields = ("node_limit", "time_limit_secs")

    def __init__(self, node_limit: int = 50_000_000, time_limit_secs: float = 600.0) -> None:
        # not x > 0, so that NaN, which compares false, is refused too
        if not (node_limit > 0 and time_limit_secs > 0):
            raise OracleError("budget limits must be positive")
        super().__init__(node_limit, time_limit_secs)


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


def _solve_list_coloring(adj: list[list[int]], k: int, precolor: dict[int, int],
                         budget: _Budget, *, busiest_first: bool = False):
    """Feasibility of a proper k-coloring of a conflict graph.

    adj: neighbor index lists; precolor fixes some items to colors in 1..k.
    Returns ("sat", colors), ("unsat", None), or ("budget", None).
    Deterministic: MRV, ascending colors, and the classic cap that a fresh
    color may only be the smallest unused one.  An item with at most one
    color left is taken at once, the first in index order.  Otherwise the
    next item has the fewest colors left; a tie goes to the lowest index,
    or with busiest_first first to the most unassigned neighbours (the
    degree tie-break of Brelaz's DSATUR, CACM 22, 1979).  That count is
    kept per item, updated by every assign and undo.  Each search node
    costs one budget tick.  The search keeps its path on an explicit stack,
    so its depth is not bounded by Python's recursion limit.
    """
    n = len(adj)
    full = (1 << (k + 1)) - 2  # bits 1..k
    domain = [full] * n
    color = [0] * n
    # free[i]: i's unassigned neighbours; all 0 (never a tie-break) without
    # busiest_first
    free = [len(a) for a in adj] if busiest_first else [0] * n
    for item, c in precolor.items():
        domain[item] = 1 << c

    def assign(item: int, c: int, trail: list) -> bool:
        color[item] = c
        if busiest_first:  # every neighbour, before a wipe-out can return
            for nb in adj[item]:
                free[nb] -= 1
        bit = 1 << c
        for nb in adj[item]:
            if color[nb] == 0 and domain[nb] & bit:
                domain[nb] &= ~bit
                trail.append(nb)
                if domain[nb] == 0:
                    return False
        return True

    def undo(item: int, c: int, trail: list) -> None:
        if busiest_first:
            for nb in adj[item]:
                free[nb] += 1
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
        best, best_count, best_free = -1, k + 2, -1
        for i in range(n):
            if color[i] == 0:
                cnt = domain[i].bit_count()
                if cnt < best_count or cnt == best_count and free[i] > best_free:
                    best, best_count, best_free = i, cnt, free[i]
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


def _line_graph(G: Graph):
    """(edges, nbrs, stars, adj): edges is G.edges(), nbrs[w] the list
    G.neighbors(w), stars[w] the indices of w's edges in neighbour order,
    and adj[i] the other edges at either end of edge i.  Each neighbour
    list is asked for once, and the edges are read from them as
    Graph.edges reads them."""
    nbrs = [G.neighbors(w) for w in range(G.n)]
    edges = [(w, u) for w, nbr in enumerate(nbrs) for u in nbr if u > w]
    index = {e: i for i, e in enumerate(edges)}
    stars = [[index[ekey(w, u)] for u in nbr] for w, nbr in enumerate(nbrs)]
    adj: list[list] = [[] for _ in edges]
    for star in stars:
        for i in star:
            adj[i].extend(j for j in star if j != i)
    return edges, nbrs, stars, adj


def total_items(G: Graph):
    """The total graph: vertex v is item v and edge i of G.edges() is item
    n + i.  Returns (edges, stars, adj), stars as in _line_graph and adj[i]
    the items in conflict with item i."""
    n = G.n
    edges, nbrs, stars, line = _line_graph(G)
    adj = [nbr + [n + i for i in star] for nbr, star in zip(nbrs, stars)]
    adj += [[u, v] + [n + j for j in others] for (u, v), others in zip(edges, line)]
    return edges, stars, adj


def _star_clique(G: Graph, stars) -> dict[int, int]:
    """Precolor the star of a maximum-degree vertex (a clique of size
    Delta+1 in the total graph) with colors 1..Delta+1."""
    if G.n == 0:
        return {}
    v = max(range(G.n), key=lambda u: (G.degree(u), -u))
    star = [v] + [G.n + i for i in stars[v]]
    return dict(zip(star, range(1, len(star) + 1)))


# Steps the Delta+1 conformability check may take in exact_total_chromatic
# before it leaves the bound to the search; it also takes at most a tenth of
# the node limit, so that the search keeps the rest.  Over 383 random
# circulants with n <= 40, every refutation took at most 17 343 steps, but 44
# checks were still open after 2 M steps; on C_23{6,8,11,12,15,17} the check
# is, while the search finds a 7-coloring in 651 nodes.  A step costs about
# 1.5 us, a search node about 7 us.
_CONFORMABLE_STEPS = 100_000

# What proves chi'' >= the value found (or, when inconclusive, >= lower_bound).
LOWER_EVIDENCE = {
    "clique": "the star of a maximum-degree vertex is a clique of Delta+1 items",
    "conformability": "a regular graph with no conformable Delta+1 partition has "
                      "no Delta+1 total coloring [Chetwynd-Hilton 1988]",
    "search": "exhaustive search refuted every smaller color count",
    "complete": "K_n with n even has chi'' = n+1 and K_{m,m} has chi'' = m+2 "
                "[Behzad-Chartrand-Cooper 1967]",
}


class TotalChromaticResult(Record):
    """exact_total_chromatic's answer.  status is "exact" or "inconclusive"
    (value and coloring None); lower_bound is the certified bound the color
    loop starts at; nodes counts search nodes only; lower_evidence is a key
    of LOWER_EVIDENCE."""

    _fields = ("status", "value", "coloring", "lower_bound", "nodes",
               "conformability_steps", "lower_evidence")


def exact_total_chromatic(G: Graph, budget: SearchBudget | None = None,
                          ceiling: int | None = None) -> TotalChromaticResult:
    """Least c admitting a proper total coloring, by exhaustive backtracking
    per candidate c from a certified lower bound up to ceiling colors.

    Without a ceiling the loop ends by 2*Delta+1 colors at the latest: an
    item meets at most 2*Delta others (a vertex its Delta neighbours and
    Delta edges, an edge its 2 ends and 2*(Delta-1) edges), so a greedy
    extension of the precolored star never needs more.  Only the node and
    time budget make the result inconclusive then.

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
    edges, stars, adj = total_items(G)
    pre = _star_clique(G, stars)
    top = 2 * delta + 1 if ceiling is None else ceiling
    for c in range(lower, top + 1):
        status, colors = _solve_list_coloring(adj, c, pre, tracker, busiest_first=True)
        if status == "sat":
            tc = TotalColoring(G.n, dict(enumerate(colors[:G.n])), dict(zip(edges, colors[G.n:])))
            report = verify_total(G, tc)
            if not report.ok:
                raise AssertionError("oracle certificate failed verification")
            return TotalChromaticResult("exact", c, tc, lower, tracker.nodes - steps, steps,
                                        evidence if c == lower else "search")
        if status == "budget":
            break
    return TotalChromaticResult("inconclusive", None, None, lower, tracker.nodes - steps,
                                steps, evidence)


def exact_chromatic(G: Graph, budget: SearchBudget | None = None):
    """Exact chromatic number with a proper-coloring certificate, counting
    colors up from a greedy clique.  The loop ends by Delta+1 colors at the
    latest, which a greedy coloring never exceeds, unless the node or time
    budget runs out first (BudgetExhausted)."""
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
    pre = {v: i + 1 for i, v in enumerate(clique)}
    for k in itertools.count(max(1, len(clique))):
        status, colors = _solve_list_coloring(adj, k, pre, tracker)
        if status == "sat":
            assignment = {v: colors[v] for v in range(G.n)}
            for (u, v) in G.edges():
                if assignment[u] == assignment[v]:
                    raise AssertionError("chromatic certificate invalid")
            return k, assignment
        if status == "budget":
            raise BudgetExhausted("chromatic search budget exhausted")


def exact_edge_coloring(G: Graph, budget: SearchBudget):
    """A proper Delta-edge-coloring, as a Delta-coloring of the line graph.

    Returns ("sat", {edge: color}), ("unsat", None), or ("budget", None).
    """
    edges, _, _, adj = _line_graph(G)
    status, colors = _solve_list_coloring(adj, G.max_degree, {}, _Budget(budget))
    if status != "sat":
        return status, None
    return status, dict(zip(edges, colors))


# ---------------------------------------------------------------------------
# Cliques


class CliqueStats(Record):
    """maximal_cliques' answer; cliques is all maximal cliques, sorted."""

    _fields = ("cliques", "omega", "maximal_count", "maximum_count")


def maximal_cliques(G: Graph, budget: SearchBudget | None = None) -> CliqueStats:
    """All maximal cliques via pivoting enumeration (E. Tomita, A. Tanaka
    and H. Takahashi, "The worst-case time complexity for generating all
    maximal cliques and computational experiments", Theoret. Comput. Sci.
    363, 2006), with clique-number and count statistics.

    Candidates and excluded vertices are bitmasks over G.rows.  The pivot u
    of candidates | excluded has the most candidates in N(u), the least u
    on a tie, and the candidates outside N(u) are branched on in ascending
    order.  The enumeration runs on an explicit stack, so no clique size
    reaches Python's recursion limit.  Each expanded node costs one tick of
    the budget, SearchBudget() by default, and BudgetExhausted is raised
    when it runs out."""
    out: list = []
    rows = G.rows
    tracker = _Budget(budget or SearchBudget())
    # A frame: [clique, candidates, excluded, the branch vertices left (the
    # candidates outside the pivot's neighborhood)], the last three as masks.
    stack: list = []

    def expand(clique, candidates, excluded):
        if not tracker.tick():
            raise BudgetExhausted("clique enumeration budget exhausted after %d nodes"
                                  % (tracker.nodes - 1))
        if not candidates and not excluded:
            out.append(tuple(sorted(clique)))
            return
        pool, best, pivot = candidates | excluded, -1, 0
        while pool:
            low = pool & -pool
            u = low.bit_length() - 1
            count = (candidates & rows[u]).bit_count()
            if count > best:
                best, pivot = count, u
            pool ^= low
        stack.append([clique, candidates, excluded, candidates & ~rows[pivot]])

    if G.n:
        expand([], (1 << G.n) - 1, 0)
    while stack:
        frame = stack[-1]
        clique, candidates, excluded, branches = frame
        if not branches:
            stack.pop()
            continue
        low = branches & -branches
        v = low.bit_length() - 1
        frame[1], frame[2], frame[3] = candidates ^ low, excluded | low, branches ^ low
        expand(clique + [v], candidates & rows[v], excluded & rows[v])
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


# The most vertices is_perfect's exhaustive odd-hole search takes.
_PERFECT_MAX_N = 20


def is_perfect(G: Graph) -> bool:
    """No induced odd hole in G or its complement (exhaustive; desk scale)."""
    if G.n > _PERFECT_MAX_N:
        raise OracleError("is_perfect limited to n <= %d" % _PERFECT_MAX_N)
    if _has_odd_hole(G):
        return False
    return not _has_odd_hole(complement(G))


# ---------------------------------------------------------------------------
# Conformability


def conformable_exists(G: Graph, q: int, budget: SearchBudget | None = None):
    """Does V partition into exactly q independent classes whose sizes all
    share n's parity (empty classes count as size 0)?

    Returns (bool, partition-or-None).  Exhaustive backtracking over the
    vertices in index order, with parity pruning and first-empty-class
    symmetry breaking, kept on an explicit stack.  Each step (placing or
    taking back one vertex) costs one budget tick; BudgetExhausted is raised
    when the budget runs out.  A q outside 1..n raises OracleError.
    """
    if q < 1:
        raise OracleError("class count q must be positive, got %d" % q)
    if q > G.n:
        # every class past the n-th would be empty
        raise OracleError("class count q must be at most n = %d, got %d" % (G.n, q))
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
    choice: list[int] = []  # choice[v]: the class of vertex v
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


class Classification(Record):
    """classify_type's answer.  kind is "type1", "type2" or "inconclusive";
    nodes counts search nodes only; lower_evidence is a key of
    LOWER_EVIDENCE; upper_evidence is a TYPE_ONE method, a
    complete_type_two construction, "search", or None."""

    _fields = ("kind", "delta", "certificate", "value", "nodes", "conformability_steps",
               "lower_evidence", "upper_evidence", "detail")


def classify_type(G: Graph, budget: SearchBudget | None = None) -> Classification:
    """Type I (a Delta+1 certificate), type II (chi'' >= Delta+2 plus a
    Delta+2 certificate), or inconclusive with the spent budget.

    constructions.certificate settles the type first when a theorem
    covers G: a verified Delta+1 coloring from the paper's Delta+1 methods
    (constructions.TYPE_ONE) proves type I against the star clique, and a
    graph that is exactly K_n with n even or K_{m,m}, in any labelling, is
    type II by a theorem (lower evidence "complete") with
    constructions.complete_type_two's verified Delta+2 coloring.  The
    constructions run outside the budget: they spend no node and do not
    watch the time limit.  Otherwise this is exact_total_chromatic with the
    ceiling Delta+2, so the lower bound Delta+2 of a type II graph comes
    from conformability when the graph is regular and not conformable with
    Delta+1 classes (Chetwynd-Hilton: a type I regular graph is
    conformable), and from an exhausted Delta+1 search otherwise.
    Irregular graphs always take the search.  `lower_evidence`,
    `upper_evidence` and `detail` say which evidence closed each bound.
    """
    # constructions imports this module at module level, so a module-level
    # import of it here would be circular
    from . import constructions

    delta = G.max_degree
    found = constructions.certificate(G)
    if found is not None:
        kind, evidence, upper, coloring = found
        value = delta + (1 if kind == "type1" else 2)
        nodes = steps = 0
        how = "by construction %s" % upper
    else:
        res = exact_total_chromatic(G, budget, ceiling=delta + 2)
        evidence, coloring, value = res.lower_evidence, res.coloring, res.value
        nodes, steps = res.nodes, res.conformability_steps
        if res.status == "exact":
            kind, upper = "type1" if value == delta + 1 else "type2", "search"
        else:
            kind, upper = "inconclusive", None
        how = "found by search"
    why = "%s: %s" % (evidence, LOWER_EVIDENCE[evidence])
    if kind == "inconclusive":
        detail = "budget exhausted; lower bound Delta+%d by %s" % (res.lower_bound - delta, why)
    else:
        detail = "lower bound by %s; Delta+%d certificate %s" % (why, value - delta, how)
    return Classification(kind, delta, coloring, value, nodes, steps, evidence, upper, detail)
