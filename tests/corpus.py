"""Shared graph corpus for the test suite.

Small graphs with hand-checkable structure, used across the module
tests and the acceptance suite.  Each entry is (name, graph); the
weighted ones mix integer and fractional weights, and two entries carry
parallel edges so the multigraph paths stay exercised.
"""

from __future__ import annotations

import numpy as np

from treespark.graph import (
    DisconnectedGraphError,
    WeightedGraph,
    _unit_edges,
    clique_star,
    complete_graph,
    erdos_renyi_connected,
    philox_stream,
    ring_graph,
)


def path_graph(n: int, weights=None) -> WeightedGraph:
    if weights is None:
        weights = [1.0] * (n - 1)
    edges = tuple((i, i + 1, float(w)) for i, w in zip(range(n - 1), weights))
    return WeightedGraph(n, edges)


def star_graph(leaves: int, weight: float = 1.0) -> WeightedGraph:
    return WeightedGraph(leaves + 1, tuple((0, i, weight) for i in range(1, leaves + 1)))


def triangle() -> WeightedGraph:
    return complete_graph(3)


def weighted_triangle() -> WeightedGraph:
    """Unit edges 0-1 and 0-2, double-weight edge 1-2.

    Leverage scores are (3/5, 3/5, 4/5) and the three spanning trees
    have probabilities (0.2, 0.4, 0.4) in stored-edge order.
    """
    return WeightedGraph(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 2.0)))


def parallel_pair() -> WeightedGraph:
    """Two vertices joined by three parallel edges of mixed weight."""
    return WeightedGraph(2, ((0, 1, 1.0), (0, 1, 2.0), (0, 1, 0.5)))


def doubled_triangle() -> WeightedGraph:
    """Unit triangle plus a parallel copy of edge 0-1 at weight 1.5."""
    return WeightedGraph(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (0, 1, 1.5)))


def diamond() -> WeightedGraph:
    """K_4 minus the edge 2-3."""
    return WeightedGraph(4, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0)))


def weighted_k4() -> WeightedGraph:
    edges = ((0, 1, 1.0), (0, 2, 2.0), (0, 3, 0.5), (1, 2, 1.5), (1, 3, 3.0), (2, 3, 1.0))
    return WeightedGraph(4, edges)


def k5_minus_edge() -> WeightedGraph:
    full = complete_graph(5)
    return WeightedGraph(5, full.edges[:-1])


# ---------------------------------------------------------------------------
# Named corpora
# ---------------------------------------------------------------------------

SMALL: list[tuple[str, WeightedGraph]] = [
    ("p2", path_graph(2)),
    ("p3", path_graph(3)),
    ("wp3", path_graph(3, (1.0, 2.0))),
    ("p4", path_graph(4)),
    ("parallel_pair", parallel_pair()),
    ("triangle", triangle()),
    ("weighted_triangle", weighted_triangle()),
    ("doubled_triangle", doubled_triangle()),
    ("c4", ring_graph(4)),
    ("c5", ring_graph(5)),
    ("star5", star_graph(5)),
    ("diamond", diamond()),
    ("k4", complete_graph(4)),
    ("weighted_k4", weighted_k4()),
    ("k5_minus_edge", k5_minus_edge()),
    ("k5", complete_graph(5)),
    ("cliquestar_2_3", clique_star(2, 3)),
    ("c20", ring_graph(20)),
]

# Graphs small enough for exhaustive forest conditioning (m <= 9).
SHRINKING: list[tuple[str, WeightedGraph]] = [
    (name, g) for name, g in SMALL if g.m <= 9
]

# Graphs for exact martingale traces (n <= 8), heaviest last.
TRACE: list[tuple[str, WeightedGraph]] = [
    (name, g)
    for name, g in SMALL
    if 3 <= g.n <= 8
] + [
    ("star7", star_graph(7)),
    ("c8", ring_graph(8)),
    ("k6", complete_graph(6)),
    ("k8", complete_graph(8)),
]


def random_connected_graph(n: int, extra_edges: int, seed: int) -> WeightedGraph:
    """Random connected multigraph with mixed integer and odd weights.

    A random attachment tree guarantees connectivity; ``extra_edges``
    additional endpoints pairs are drawn uniformly (duplicates allowed,
    so parallel edges can appear).
    """
    gen = np.random.Generator(np.random.Philox(seed))
    pool = (0.5, 1.0, 1.0, 2.0, 3.0, 0.75, 1.25)

    def draw_weight() -> float:
        if gen.random() < 0.3:
            return float(gen.uniform(0.3, 2.7))
        return float(pool[int(gen.integers(0, len(pool)))])

    edges = []
    for v in range(1, n):
        edges.append((int(gen.integers(0, v)), v, draw_weight()))
    added = 0
    while added < extra_edges:
        u = int(gen.integers(0, n))
        v = int(gen.integers(0, n))
        if u == v:
            continue
        edges.append((u, v, draw_weight()))
        added += 1
    return WeightedGraph(n, tuple(edges))


def erdos_renyi_triu(n: int, p: float, seed: int) -> tuple[WeightedGraph, int]:
    """G(n, p) from one variate per vertex pair of ``np.triu_indices``, all
    drawn in one call per attempt, and the number of rejected attempts:
    the construction ``erdos_renyi_connected`` draws block by block."""
    gen = philox_stream(seed)
    us, vs = np.triu_indices(n, 1)
    for attempt in range(1000):
        picked = np.flatnonzero(gen.random(len(us)) < p)
        try:
            return WeightedGraph(n, _unit_edges(us[picked], vs[picked])), attempt
        except DisconnectedGraphError:
            continue
    raise AssertionError("reference builder found no connected draw")


def weighted_er(n: int, p: float, seed: int) -> WeightedGraph:
    """G(n, p) with weights uniform in [1, 8], like the weighted certify workload."""
    g = erdos_renyi_connected(n, p, seed)
    us, vs, _ = g.edge_arrays
    ws = philox_stream(seed + 1).uniform(1.0, 8.0, g.m)
    return WeightedGraph(n, np.column_stack((us, vs, ws)))


def write_graph(g: WeightedGraph, path: str) -> None:
    """Write the text format: header ``n m`` then one ``u v w`` line per edge.

    Weights are printed with 17 significant digits so a read back
    reproduces the exact float64 values.
    """
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v, w in zip(*(arr.tolist() for arr in g.edge_arrays)):
            fh.write(f"{u} {v} {w:.17g}\n")
