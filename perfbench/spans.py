"""In-memory span recorder and self-time arithmetic.

A span is ``(name, start, end, parent, op)``: the layer-qualified name
(``"<layer>.<what>"``), ``perf_counter`` start and end, the index of the
enclosing span (-1 for a root) and the op id (one per certify trial or
martingale seed, -1 before the first op).  Spans stay in memory and are
written once, when the traced invocation ends.

Spans are recorded from outside the program: :func:`install` replaces a
public function of a layer by a timing wrapper in every ``treespark``
module namespace that binds it, so the callers' own global lookups hit
the wrapper.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, module, attribute, starts a new op).  Private names are
# wrapped only where a public call hides a split the metrics need: the
# walk inside ``sample_tree_stream`` and the trial inside
# ``run_sum_trees``.
TARGETS = (
    ("graph.build", "treespark.cli", "parse_graph_spec", False),
    ("graph.laplacian", "treespark.graph", "laplacian", False),
    ("spectral.eig_sym", "treespark.spectral", "eig_sym", False),
    ("spectral.pencil", "treespark.spectral", "normalized_pencil", False),
    ("leverage.scores", "treespark.leverage", "leverage_scores", False),
    ("leverage.conditional", "treespark.leverage", "conditional_marginals", False),
    ("treesample.sample", "treespark.treesample", "sample_tree_stream", False),
    ("treesample.walk", "treespark.treesample", "_wilson_edge_ids", False),
    ("treesample.reweight", "treespark.treesample", "reweight_tree", False),
    ("treesample.average", "treespark.treesample", "average_trees", False),
    ("experiments.run_sum_trees", "treespark.experiments", "run_sum_trees", False),
    ("experiments.trial", "treespark.experiments", "_sum_trees_trial", True),
    ("srdiag.trace", "treespark.srdiag", "martingale_trace", True),
    ("srdiag.check", "treespark.srdiag", "check_trace_bounds", False),
)


class Recorder:
    """Collects spans of one single-threaded process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, op_start: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if op_start:
                self.op += 1
            idx = len(spans)
            spans.append(None)
            parent, op = stack[-1] if stack else -1, self.op
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # Tuples of atoms drop out of the garbage collector's scans.
                spans[idx] = (name, start, end, parent, op)

        return wrapper


def rebind(orig, replacement) -> int:
    """Point every ``treespark`` global bound to ``orig`` at ``replacement``."""
    count = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "treespark" and not modname.startswith("treespark."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
                count += 1
    return count


def install(rec: Recorder) -> None:
    """Wrap every target layer function, and the lazy adjacency build."""
    import importlib

    for name, modname, attr, op_start in TARGETS:
        orig = getattr(importlib.import_module(modname), attr)
        if rebind(orig, rec.wrap(name, orig, op_start)) == 0:
            raise RuntimeError(f"{modname}.{attr} is bound nowhere")

    from treespark.graph import WeightedGraph

    build = WeightedGraph.__dict__["adjacency"].func
    prop = functools.cached_property(rec.wrap("graph.adjacency", build))
    prop.__set_name__(WeightedGraph, "adjacency")
    WeightedGraph.adjacency = prop


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result never double counts.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]

