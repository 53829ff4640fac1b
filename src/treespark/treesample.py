"""Random spanning tree sampling, reweighting and averaging.

Trees are drawn with probability proportional to the product of their
edge weights.  The sampler is the loop-erased random walk construction:
walks step to a neighbour with probability proportional to the incident
edge weight, loops are erased implicitly by overwriting each vertex's
last exit choice, and the tree rooted at vertex 0 is returned as every
vertex's exit choice.  :func:`wilson_tree_batches` stacks such trees
into parent and edge-id arrays and certifies each stack at once with
:func:`check_parent_trees`.
:func:`tree_edge_counts` sums those batches into the per-edge counts
every tree average is built from.  Randomness comes from
:func:`~treespark.graph.philox_stream`, so a seed fully determines the
output at a fixed library version.

Exhaustive enumeration of the tree law lives with the tests, as the
oracle the sampler and the marginals are checked against.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .graph import WeightedGraph, component_labels, laplacian
from .leverage import LeverageProfile

WEIGHT_MODES = ("original", "inverse_leverage")

# Refill sizes for buffered uniform draws: start small so tiny graphs do
# not pay for thousands of unused variates, grow so long walks amortise
# the generator call.
_BUF_START = 64
_BUF_MAX = 8192

# Most vertex slots (trees times n) one batch of
# :func:`wilson_tree_batches` stacks.
_BATCH_SLOTS = 1 << 20


def check_tree_ids(g: WeightedGraph, ids) -> None:
    """Raise ValueError unless ``ids`` are the edge ids of a spanning tree.

    ``n - 1`` in-range ids form a tree exactly when they connect all
    ``n`` vertices; otherwise some close a cycle, a repeated id included.
    """
    n = g.n
    if len(ids) != n - 1:
        raise ValueError(f"expected {n - 1} edges, got {len(ids)}")
    ids = np.asarray(ids, dtype=np.int64)
    if ids.min() < 0 or ids.max() >= g.m:
        raise ValueError("edge id out of range")
    us, vs, _ = g.edge_arrays
    if component_labels(n, us[ids], vs[ids]).any():
        raise ValueError("tree edges close a cycle and leave a vertex unreached")


def check_parent_trees(g: WeightedGraph, parents, edge_ids) -> None:
    """Raise ValueError unless every row is a spanning tree rooted at 0.

    Row ``i`` gives each vertex ``v != 0``, at column ``v - 1``, a parent
    ``parents[i, v - 1]`` and the id ``edge_ids[i, v - 1]`` of an edge
    joining the two.  Parent pointers that all lead to the root span
    every vertex with ``n - 1`` links and no cycle, and an edge joins
    exactly one child to its parent, so the edges form a spanning tree
    of ``g``.  A repeated edge would make its two ends each other's
    parents, a cycle that misses the root.  Pointer jumping settles all
    rows at once in ``ceil(log2 n)`` gathers.
    """
    n, m = g.n, g.m
    parents = np.asarray(parents, dtype=np.int64)
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    if parents.ndim != 2 or parents.shape[1] != n - 1 or edge_ids.shape != parents.shape:
        raise ValueError(f"expected matching (trees, {n - 1}) parent and edge arrays")
    if parents.size and (parents.min() < 0 or parents.max() >= n):
        raise ValueError("parent vertex out of range")
    if edge_ids.size and (edge_ids.min() < 0 or edge_ids.max() >= m):
        raise ValueError("edge id out of range")
    us, vs, _ = g.edge_arrays
    child = np.arange(1, n)
    lo, hi = np.minimum(child, parents), np.maximum(child, parents)
    if not np.array_equal(us[edge_ids], lo) or not np.array_equal(vs[edge_ids], hi):
        raise ValueError("an edge does not join its vertex to the vertex's parent")
    jump = np.zeros((len(parents), n), dtype=np.int64)
    jump[:, 1:] = parents
    for _ in range((n - 1).bit_length()):
        jump = np.take_along_axis(jump, jump, axis=1)
    if jump.any():
        raise ValueError("parent pointers form a cycle that misses the root")


@dataclass(frozen=True)
class SpanningTree:
    """Spanning tree of a parent graph, with per-edge weights.

    ``edge_ids`` index into the parent's edge list, sorted ascending.
    ``weights`` align with ``edge_ids`` and are either the parent's
    weights (``weight_mode == "original"``) or inverse-leverage weights.
    """

    graph: WeightedGraph
    edge_ids: tuple[int, ...]
    weights: tuple[float, ...]
    weight_mode: str

    def __post_init__(self):
        order = sorted(range(len(self.edge_ids)), key=lambda i: int(self.edge_ids[i]))
        ids = tuple(int(self.edge_ids[i]) for i in order)
        check_tree_ids(self.graph, ids)
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")
        if len(self.weights) != len(ids):
            raise ValueError("weights do not align with edge ids")
        weights = tuple(float(self.weights[i]) for i in order)
        if any(not (0.0 < w < math.inf) for w in weights):
            raise ValueError("tree weights must be positive and finite")
        object.__setattr__(self, "edge_ids", ids)
        object.__setattr__(self, "weights", weights)


def _wilson_exits(g: WeightedGraph, gen: np.random.Generator) -> list[int]:
    """Exit choices of one Wilson tree rooted at vertex 0.

    Entry ``v`` (for ``v != 0``) indexes ``g.adjacency[0][v]``, and
    ``g.csr`` entry ``offsets[v] + nxt[v]``: the tree edge by which ``v``
    leaves towards the root.  Entry 0 is 0 and means nothing.

    numpy turns each buffer of variates into cells of the graph's
    :attr:`~WeightedGraph.exit_guide` at once, ``int(r * cells)``, and
    a step reads its vertex's guide row at the cell.  Only a cell that
    straddles an exit boundary (-1) takes the step rule on ``r`` itself:
    bisection of the vertex's running weights at ``r`` times their
    total.  A guide with no straddling cell, such as a regular graph's,
    leaves its walk no variate to convert to a float.  One pass over
    each buffer serves every walk that reaches into it; buffers start
    at ``_BUF_START`` variates and grow fourfold up to ``_BUF_MAX`` as
    the walk needs them.
    """
    nbrs, cumw = g.adjacency
    cells, guide, straddles = g.exit_guide
    n = g.n
    # A list, not a bytearray: CPython indexes lists on a faster path.
    in_tree = [0] * n
    in_tree[0] = 1
    nxt = [0] * n
    bufsize = _BUF_START
    start = u = 1
    while True:
        buf = gen.random(bufsize)
        rs = buf.tolist() if straddles else repeat(0.0)
        for q, r in zip((buf * cells).astype(np.int64).tolist(), rs):
            j = guide[u][q]
            if j < 0:
                c = cumw[u]
                j = bisect_right(c, r * c[-1])
            nxt[u] = j
            u = nbrs[u][j]
            if in_tree[u]:
                # The walk from start reached the tree: its loop-erased
                # path joins it, and the next walk starts at the next
                # vertex still outside.
                u = start
                while not in_tree[u]:
                    in_tree[u] = 1
                    u = nbrs[u][nxt[u]]
                while in_tree[start]:
                    start += 1
                    if start == n:
                        return nxt
                u = start
        bufsize = min(bufsize * 4, _BUF_MAX)


def _wilson_edge_ids(g: WeightedGraph, gen: np.random.Generator) -> list[int]:
    """Edge ids of one Wilson tree, ordered by the vertex that exits by each."""
    offsets, _, eid = g.csr
    nxt = _wilson_exits(g, gen)
    return eid[offsets[1:-1] + nxt[1:]].tolist()


def sample_tree_stream(g: WeightedGraph, gen: np.random.Generator) -> SpanningTree:
    """Draw the next tree of ``gen`` as a validated :class:`SpanningTree`."""
    ids = sorted(_wilson_edge_ids(g, gen))
    return SpanningTree(g, tuple(ids), g.edge_arrays[2][ids].tolist(), "original")


def wilson_tree_batches(g: WeightedGraph, gen: np.random.Generator, count: int):
    """Yield ``count`` Wilson trees from ``gen`` as checked array batches.

    Each batch is a pair of ``(trees, n - 1)`` int64 arrays: column
    ``v - 1`` holds vertex ``v``'s parent towards root 0 and the id of
    the edge joining them.  Trees come in the order
    :func:`sample_tree_stream` would draw them from the same generator,
    and :func:`check_parent_trees` has certified every one.  A batch
    holds at most ``_BATCH_SLOTS`` vertex slots, so long runs stay
    bounded in memory.
    """
    offsets, nbr, eid = g.csr
    per_batch = max(1, _BATCH_SLOTS // g.n)
    for done in range(0, count, per_batch):
        size = min(per_batch, count - done)
        exits = np.array([_wilson_exits(g, gen) for _ in range(size)], dtype=np.int64)
        at = offsets[1:-1] + exits[:, 1:]
        parents, ids = nbr[at], eid[at]
        check_parent_trees(g, parents, ids)
        yield parents, ids


def tree_edge_counts(g: WeightedGraph, gen: np.random.Generator, count: int) -> np.ndarray:
    """How many of the next ``count`` trees of ``gen`` hold each edge.

    An int64 vector over edge ids, summed over the checked batches of
    :func:`wilson_tree_batches`.  Every tree average is a function of
    these counts: the average of ``count`` trees weighted ``x_e`` per
    edge is ``laplacian(g, counts * x / count)``.
    """
    counts = np.zeros(g.m, dtype=np.int64)
    for _, ids in wilson_tree_batches(g, gen, count):
        counts += np.bincount(ids.ravel(), minlength=g.m)
    return counts


def reweight_tree(tree: SpanningTree, profile: LeverageProfile) -> SpanningTree:
    """Scale each tree edge weight by its inverse leverage score.

    The resulting random Laplacian has the parent graph's Laplacian as
    its exact expectation when trees are drawn weight-proportionally.
    """
    if profile.graph is not tree.graph:
        raise ValueError("leverage profile belongs to a different graph")
    if tree.weight_mode != "original":
        raise ValueError(f"can only reweight original-weight trees, got {tree.weight_mode!r}")
    weights = tuple(
        w / float(profile.values[eid]) for eid, w in zip(tree.edge_ids, tree.weights)
    )
    return SpanningTree(tree.graph, tree.edge_ids, weights, "inverse_leverage")


def average_trees(trees: list[SpanningTree], probabilities=None) -> np.ndarray:
    """Laplacian of the average of several trees over one parent graph.

    Uniform coefficients by default; pass ``probabilities`` (summing to
    1) to form an exact expectation over an enumerated distribution.
    Mixing parent graphs or weight modes is an error.
    """
    if not trees:
        raise ValueError("cannot average an empty tree list")
    first = trees[0]
    if probabilities is None:
        coeffs = [1.0 / len(trees)] * len(trees)
    else:
        coeffs = [float(p) for p in probabilities]
        if len(coeffs) != len(trees):
            raise ValueError("probabilities do not align with trees")
        if any(c < 0.0 for c in coeffs):
            raise ValueError("probabilities must be nonnegative")
        if abs(math.fsum(coeffs) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
    ids: list[int] = []
    scaled: list[float] = []
    for tree, c in zip(trees, coeffs):
        if tree.graph is not first.graph:
            raise ValueError("trees come from different parent graphs")
        if tree.weight_mode != first.weight_mode:
            raise ValueError("trees mix weight modes")
        ids.extend(tree.edge_ids)
        scaled.extend(c * w for w in tree.weights)
    g = first.graph
    return laplacian(g, np.bincount(ids, weights=scaled, minlength=g.m))
