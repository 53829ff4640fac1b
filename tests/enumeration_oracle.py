"""Exhaustive spanning tree enumeration, the exact oracle for the tree law.

Enumeration recurses over edge subsets with cycle and cardinality
pruning and cross-checks the total tree weight against the Laplacian
minor determinant; the two routes must agree or enumeration aborts.
Tests read the exact probabilities and marginals from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from treespark.graph import SizeGuardError, WeightedGraph, laplacian

ENUMERATION_EDGE_CAP = 22


class UnionFind:
    """Array-based disjoint sets with path halving and union by size.

    The loop-at-a-time reference for :func:`treespark.graph.component_labels`.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; return False if already merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.count -= 1
        return True


@dataclass(frozen=True)
class TreeDistributionTable:
    """Every spanning tree with its exact sampling probability.

    ``trees`` holds sorted edge-id tuples in lexicographic order;
    ``probabilities`` are the normalised weight products and sum to 1
    within 1e-12.  ``total_tree_weight`` is the unnormalised sum, equal
    to the Laplacian minor determinant.
    """

    graph: WeightedGraph
    trees: tuple[tuple[int, ...], ...]
    probabilities: np.ndarray
    total_tree_weight: float

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if probs.shape != (len(self.trees),):
            raise ValueError("probabilities do not align with trees")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError("tree probabilities must sum to 1")
        object.__setattr__(self, "probabilities", probs)

    def marginals(self) -> np.ndarray:
        """Per-edge containment probabilities implied by the table."""
        out = np.zeros(self.graph.m)
        for tree, p in zip(self.trees, self.probabilities):
            out[list(tree)] += p
        return out


def enumerate_trees(g: WeightedGraph) -> TreeDistributionTable:
    """List all spanning trees of a small graph with exact probabilities.

    Guarded at ``m <= 22`` edges.  The summed tree weight is checked
    against the Laplacian minor determinant; disagreement beyond 1e-9
    relative aborts with ArithmeticError since one of the two routes
    must then be wrong.
    """
    if g.m > ENUMERATION_EDGE_CAP:
        raise SizeGuardError(
            f"enumeration capped at m = {ENUMERATION_EDGE_CAP} edges, got m = {g.m}"
        )
    need = g.n - 1
    trees: list[tuple[int, ...]] = []
    products: list[float] = []

    def recurse(next_eid: int, chosen: list[int], product: float, uf: UnionFind):
        if len(chosen) == need:
            trees.append(tuple(chosen))
            products.append(product)
            return
        if g.m - next_eid < need - len(chosen):
            return
        u, v, w = g.edges[next_eid]
        if uf.find(u) != uf.find(v):
            sub = UnionFind(g.n)
            sub.parent = list(uf.parent)
            sub.size = list(uf.size)
            sub.count = uf.count
            sub.union(u, v)
            chosen.append(next_eid)
            recurse(next_eid + 1, chosen, product * w, sub)
            chosen.pop()
        recurse(next_eid + 1, chosen, product, uf)

    recurse(0, [], 1.0, UnionFind(g.n))
    total = math.fsum(products)
    minor = float(np.linalg.det(laplacian(g)[1:, 1:]))
    if abs(minor - total) > 1e-9 * max(abs(minor), abs(total), 1.0):
        raise ArithmeticError(
            f"tree weight mismatch: enumeration gives {total!r}, "
            f"Laplacian minor determinant gives {minor!r}"
        )
    probs = np.array(products) / total
    return TreeDistributionTable(g, tuple(trees), probs, total)
