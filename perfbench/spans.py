"""Span tracing of totcol from outside the package.

`Tracer.install()` swaps module attributes (functions, and `Graph` methods)
for wrappers that record one span per call: name, start, end and the index
of the enclosing span.  Nothing inside totcol changes.  Spans stay in memory;
`Tracer.pass_metrics()` folds one pass's spans into the per-layer metrics and
`Tracer.dump()` writes them all at the end of the run.

A span name is `<layer>.<part>`; the layers are the package modules.  The
self time of a span is its duration minus that of its direct child spans,
so the self times of all spans in a pass add up to the time spent inside
`totcol.cli.main`.
"""
import functools
import importlib
import json
import os
import time

LAYERS = ("graphs", "coloring", "constructions", "oracles", "cli")

# (module, attribute path inside it, span name).  A function imported by name
# into several modules is patched in each of them.
PATCHES = (
    ("totcol.cli", "main", "cli.main"),
    ("totcol.graphs", "Graph.neighbors", "graphs.neighbors"),
    ("totcol.graphs", "Graph.edges", "graphs.edges"),
    ("totcol.graphs", "read_dimacs", "graphs.read_dimacs"),
    ("totcol.graphs", "build_circulant", "graphs.build"),
    ("totcol.graphs", "build_unitary", "graphs.build"),
    ("totcol.graphs", "_graph_from_edges", "graphs.build"),
    ("totcol.constructions", "build_circulant", "graphs.build"),
    ("totcol.constructions", "build_unitary", "graphs.build"),
    ("totcol.constructions", "subgraph_of_edges", "graphs.build"),
    ("totcol.constructions", "complement", "graphs.build"),
    ("totcol.constructions", "connected", "graphs.struct"),
    ("totcol.constructions", "two_factors", "graphs.struct"),
    ("totcol.constructions", "factor_edges", "graphs.struct"),
    ("totcol.coloring", "verify_total", "coloring.verify"),
    ("totcol.cli", "verify_total", "coloring.verify"),
    ("totcol.constructions", "verify_total", "coloring.verify"),
    ("totcol.oracles", "verify_total", "coloring.verify"),
    ("totcol.cli", "write_coloring", "coloring.io"),
    ("totcol.cli", "read_coloring", "coloring.io"),
    ("totcol.cli", "matrix_to_csv", "coloring.io"),
    ("totcol.coloring", "matrix_from_csv", "coloring.io"),
    ("totcol.cli", "render_matrix", "coloring.matrix"),
    ("totcol.coloring", "parse_matrix", "coloring.matrix"),
    ("totcol.constructions", "color_complete_bipartite", "constructions.construct"),
    ("totcol.constructions", "color_unitary_even", "constructions.construct"),
    ("totcol.constructions", "color_odd_circulant", "constructions.construct"),
    ("totcol.constructions", "color_even_dense_circulant", "constructions.construct"),
    ("totcol.constructions", "color_perfect_cayley", "constructions.construct"),
    ("totcol.constructions", "fill_diagonals", "constructions.fill"),
    ("totcol.constructions", "starter_search", "constructions.starter"),
    ("totcol.constructions", "edge_color_vizing", "constructions.edge_color"),
    ("totcol.oracles", "classify_type", "oracles.search"),
    ("totcol.oracles", "exact_total_chromatic", "oracles.search"),
    ("totcol.oracles", "_solve_list_coloring", "oracles.search"),
    ("totcol.oracles", "total_items", "oracles.total_items"),
)

# Per-layer metric names, in report order, with units.
PER_LAYER = (
    ("graphs.neighbors_calls", "count"),
    ("graphs.neighbors_s", "s"),
    ("graphs.edges_s", "s"),
    ("graphs.build_s", "s"),
    ("graphs.read_dimacs_s", "s"),
    ("graphs.self_s", "s"),
    ("coloring.verify_calls", "count"),
    ("coloring.verify_s", "s"),
    ("coloring.io_s", "s"),
    ("coloring.io_bytes", "bytes"),
    ("coloring.self_s", "s"),
    ("constructions.construct_s", "s"),
    ("constructions.fill_s", "s"),
    ("constructions.starter_calls", "count"),
    ("constructions.starter_s", "s"),
    ("constructions.literal_hit_ratio", "ratio"),
    ("constructions.edge_color_calls", "count"),
    ("constructions.edge_color_s", "s"),
    ("constructions.edge_color_class1_ratio", "ratio"),
    ("constructions.candidates_tried", "count"),
    ("constructions.self_s", "s"),
    ("oracles.total_items_s", "s"),
    ("oracles.search_s", "s"),
    ("oracles.search_nodes", "count"),
    ("oracles.nodes_per_s", "1/s"),
    ("oracles.certificate_verify_s", "s"),
    ("oracles.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.residual_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

_IO_PATH_ARG = {"write_coloring": 1, "matrix_to_csv": 1, "read_coloring": 0,
                "matrix_from_csv": 0}


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = {}     # counters read from returned results
        self._stack = []
        self._patched = []
        self._pass_start = 0

    def install(self):
        for module_name, path, name in PATCHES:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, attr))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _observe(self, attr, args, result):
        """Read counts off a returned result."""
        if attr == "color_odd_circulant":
            self._count("odd_calls")
            self._count("literal_hits", result.strategy == "literal")
        elif attr == "color_even_dense_circulant":
            # one or two notes per subset H tried, each starting "H=[...]:"
            self._count("candidates_tried", len({note.split(":")[0] for note in result.notes
                                                 if note.startswith("H=")}))
        elif attr == "edge_color_vizing":
            self._count("class1", result.delta_achieved)
        elif attr == "classify_type":
            self._count("search_nodes", result.nodes)
        elif attr in _IO_PATH_ARG:
            path = args[_IO_PATH_ARG[attr]]
            self._count("io_bytes", os.path.getsize(path))

    def _wrap(self, original, name, attr):
        spans, stack = self.spans, self._stack
        perf_counter = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            self._observe(attr, args, result)
            return result

        return wrapper

    def begin_pass(self):
        self._pass_start = len(self.spans)
        self.counts = {}

    def pass_metrics(self, wall_s):
        """Per-layer metrics of the spans recorded since begin_pass()."""
        first = self._pass_start
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        self_s, calls = {}, {}
        certificate_verify_s = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            own = (end - start) - child[i]
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if name == "coloring.verify" and parent >= first \
                    and self.spans[parent][0].startswith("oracles."):
                certificate_verify_s += own
        layer = {ly: 0.0 for ly in LAYERS}
        for name, seconds in self_s.items():
            layer[name.split(".")[0]] += seconds

        def s(name):
            return self_s.get(name, 0.0)

        def n(name):
            return calls.get(name, 0)

        c = self.counts.get
        odd_calls = c("odd_calls", 0)
        search_s = s("oracles.search")
        nodes = c("search_nodes", 0)
        m = {
            "graphs.neighbors_calls": n("graphs.neighbors"),
            "graphs.neighbors_s": s("graphs.neighbors"),
            "graphs.edges_s": s("graphs.edges"),
            "graphs.build_s": s("graphs.build"),
            "graphs.read_dimacs_s": s("graphs.read_dimacs"),
            "graphs.self_s": layer["graphs"],
            "coloring.verify_calls": n("coloring.verify"),
            "coloring.verify_s": s("coloring.verify"),
            "coloring.io_s": s("coloring.io"),
            "coloring.io_bytes": c("io_bytes", 0),
            "coloring.self_s": layer["coloring"],
            "constructions.construct_s": s("constructions.construct"),
            "constructions.fill_s": s("constructions.fill"),
            "constructions.starter_calls": n("constructions.starter"),
            "constructions.starter_s": s("constructions.starter"),
            "constructions.literal_hit_ratio":
                c("literal_hits", 0) / odd_calls if odd_calls else 0.0,
            "constructions.edge_color_calls": n("constructions.edge_color"),
            "constructions.edge_color_s": s("constructions.edge_color"),
            "constructions.edge_color_class1_ratio":
                c("class1", 0) / n("constructions.edge_color")
                if n("constructions.edge_color") else 0.0,
            "constructions.candidates_tried": c("candidates_tried", 0),
            "constructions.self_s": layer["constructions"],
            "oracles.total_items_s": s("oracles.total_items"),
            "oracles.search_s": search_s,
            "oracles.search_nodes": nodes,
            "oracles.nodes_per_s": nodes / search_s if search_s else 0.0,
            "oracles.certificate_verify_s": certificate_verify_s,
            "oracles.self_s": layer["oracles"],
            "cli.self_s": layer["cli"],
            "trace.wall_s": wall_s,
            "trace.residual_ratio": (wall_s - sum(layer.values())) / wall_s,
        }
        return m

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
