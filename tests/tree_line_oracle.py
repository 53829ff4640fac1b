"""Tree lines through the validated object route, as a test oracle.

``format_tree_line(sample_tree_wilson(g, seed))`` is one line of
``treespark sample`` drawn tree by tree through :class:`SpanningTree`
objects; the CLI reads the same tree off a checked edge-id row of
``wilson_tree_batches``, so the two must agree byte for byte.
:func:`parse_tree_line` reads a line back against its parent graph.
"""

from __future__ import annotations

from treespark.graph import WeightedGraph, philox_stream
from treespark.treesample import SpanningTree, sample_tree_stream


def sample_tree_wilson(g: WeightedGraph, rng_seed: int) -> SpanningTree:
    """Draw one spanning tree with probability proportional to its weight.

    The same ``(graph, rng_seed)`` pair always yields the same tree.
    """
    return sample_tree_stream(g, philox_stream(rng_seed))


def format_tree_line(tree: SpanningTree) -> str:
    """One-line text form: ``n; edge ids; weights`` with 17 digit weights."""
    ids = " ".join(str(e) for e in tree.edge_ids)
    ws = " ".join(f"{w:.17g}" for w in tree.weights)
    return f"{tree.graph.n}; {ids}; {ws}"


def parse_tree_line(
    line: str, g: WeightedGraph, weight_mode: str = "original"
) -> SpanningTree:
    """Parse :func:`format_tree_line` output against its parent graph."""
    parts = [p.strip() for p in line.split(";")]
    if len(parts) != 3:
        raise ValueError(f"bad tree line {line!r}")
    n = int(parts[0])
    if n != g.n:
        raise ValueError(f"tree line is for n = {n}, graph has n = {g.n}")
    ids = tuple(int(tok) for tok in parts[1].split())
    weights = tuple(float(tok) for tok in parts[2].split())
    return SpanningTree(g, ids, weights, weight_mode)
