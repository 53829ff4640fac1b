"""The reference Wilson walk, which chooses every step at its vertex.

:func:`~treespark.treesample._wilson_exits` reads its steps off the
graph's exit guide; this loop applies the step rule to every variate
and draws its buffers at the same sizes and moments, so the two must
return the same exits and leave the generator at the same position.
It reads the graph's edges from ``csr`` and ``edge_arrays``, not from
``adjacency``, and takes a step in one of two forms: ``int(r * d)`` at
a vertex of ``d`` equal weights, bisection of the running weights
elsewhere.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from treespark.graph import WeightedGraph
from treespark.treesample import _BUF_MAX, _BUF_START


@functools.cache
def step_lists(g: WeightedGraph) -> tuple[list, list, list]:
    """Per-vertex ``(nbrs, running weights, equal)`` in ``csr`` order."""
    offsets, nbr, eid = g.csr
    bounds = offsets.tolist()
    nbr_list, wt_list = nbr.tolist(), g.edge_arrays[2][eid].tolist()
    spans = list(zip(bounds, bounds[1:]))
    weights = [wt_list[a:b] for a, b in spans]
    return (
        [nbr_list[a:b] for a, b in spans],
        [list(accumulate(w)) for w in weights],
        [min(w) == max(w) for w in weights],
    )


def step_rule(g: WeightedGraph, v: int, r: float) -> int:
    """The entry the walk takes from ``v`` on the variate ``r``."""
    _, cumw, equal = step_lists(g)
    if equal[v]:
        return int(r * len(cumw[v]))
    return bisect_right(cumw[v], r * cumw[v][-1])


def _general_exits(g: WeightedGraph, gen: np.random.Generator) -> list[int]:
    """:func:`_wilson_exits` on any graph, choosing each step at its vertex.

    The walk reads the exit guide; this loop is the tests' reference
    for its choices and its use of the stream.  A uniform ``r <= 1
    - 2**-53`` (numpy's largest) gives ``r * x < x`` for every normal
    ``x``, so ``int(r * deg)`` and the bisection both land on an index
    below ``deg``.
    """
    nbrs, cumw, equal = step_lists(g)
    n = g.n
    in_tree = bytearray(n)
    in_tree[0] = 1
    nxt = [0] * n
    bufsize = _BUF_START
    buf = gen.random(bufsize).tolist()
    pos = 0
    for start in range(1, n):
        if in_tree[start]:
            continue
        u = start
        while not in_tree[u]:
            if pos == bufsize:
                bufsize = min(bufsize * 4, _BUF_MAX)
                buf = gen.random(bufsize).tolist()
                pos = 0
            r = buf[pos]
            pos += 1
            if equal[u]:
                j = int(r * len(cumw[u]))
            else:
                j = bisect_right(cumw[u], r * cumw[u][-1])
            nxt[u] = j
            u = nbrs[u][j]
        # Only the loop-erased path joins the tree; vertices the walk
        # left on erased loops are walked again later.
        u = start
        while not in_tree[u]:
            in_tree[u] = 1
            u = nbrs[u][nxt[u]]
    return nxt


