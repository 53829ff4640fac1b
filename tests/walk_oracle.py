"""The reference Wilson walk, which chooses every step at its vertex.

:func:`~treespark.treesample._wilson_exits` reads its steps off the
graph's exit guide; this loop applies the step rule to every variate
and draws its buffers at the same sizes and moments, so the two must
return the same exits and leave the generator at the same position.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from treespark.graph import WeightedGraph
from treespark.treesample import _BUF_MAX, _BUF_START


def _general_exits(g: WeightedGraph, gen: np.random.Generator) -> list[int]:
    """:func:`_wilson_exits` on any graph, choosing each step at its vertex.

    The walk reads the exit guide; this loop is the tests' reference
    for its choices and its use of the stream.  A uniform ``r <= 1
    - 2**-53`` (numpy's largest) gives ``r * x < x`` for every normal
    ``x``, so ``int(r * deg)`` and the bisection both land on an index
    below ``deg``.
    """
    nbrs, cumw, totw, uniform = g.adjacency
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
            row = nbrs[u]
            if uniform[u]:
                j = int(r * len(row))
            else:
                j = bisect_right(cumw[u], r * totw[u])
            nxt[u] = j
            u = row[j]
        # Only the loop-erased path joins the tree; vertices the walk
        # left on erased loops are walked again later.
        u = start
        while not in_tree[u]:
            in_tree[u] = 1
            u = nbrs[u][nxt[u]]
    return nxt


