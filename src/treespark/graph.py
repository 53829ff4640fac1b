"""Weighted multigraph representation, named constructions and file I/O.

Vertices are dense integers ``0..n-1``.  Edges are stored as an ordered
tuple of ``(u, v, w)`` triples with the orientation normalised to
``u < v``; parallel edges are allowed and keep their own identity (the
edge id is the position in the stored tuple).  Self loops and
non-positive weights are rejected, as are disconnected graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

ER_MAX_ATTEMPTS = 1000


class DisconnectedGraphError(ValueError):
    """Raised when an edge list does not connect all vertices."""


class GraphFileError(ValueError):
    """Raised when a graph file cannot be parsed."""


class SizeGuardError(ValueError):
    """Raised when an exhaustive routine is asked to exceed its size cap."""


class UnionFind:
    """Array-based disjoint sets with path halving and union by size."""

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
class WeightedGraph:
    """Connected weighted multigraph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices, at least 2.
    edges:
        Sequence of ``(u, v, w)`` triples with ``u != v`` and ``w > 0``.
        Orientation is normalised to ``u < v`` on construction; the
        position of a triple in the tuple is its edge id.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"need at least 2 vertices, got n={self.n}")
        canon = []
        uf = UnionFind(self.n)
        for u, v, w in self.edges:
            u, v = int(u), int(v)
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge endpoint out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            w = float(w)
            if not (w > 0.0) or not math.isfinite(w):
                raise ValueError(f"edge weight must be positive and finite, got {w}")
            if u > v:
                u, v = v, u
            canon.append((u, v, w))
            uf.union(u, v)
        if uf.count != 1:
            raise DisconnectedGraphError(
                f"graph on {self.n} vertices with {len(canon)} edges is disconnected"
            )
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Endpoint and weight arrays (us, vs, ws) aligned with edge ids."""
        us = np.fromiter((e[0] for e in self.edges), dtype=np.int64, count=self.m)
        vs = np.fromiter((e[1] for e in self.edges), dtype=np.int64, count=self.m)
        ws = np.fromiter((e[2] for e in self.edges), dtype=np.float64, count=self.m)
        return us, vs, ws

    @cached_property
    def adjacency(self) -> tuple[list, list, list, list]:
        """Per-vertex neighbour and cumulative-weight lists.

        Entries follow stored edge order, one entry per incident edge, so
        parallel edges appear once each; their edge ids sit at the same
        positions of :attr:`csr`.  Returns ``(nbrs, cumw, totw, uniform)``
        where ``cumw[v]`` is the running sum of incident weights,
        ``totw[v]`` its total and ``uniform[v]`` says all incident
        weights are equal; random walk steps draw a uniform ``r`` and
        take the first index with ``cumw[v][i] > r * totw[v]``.
        """
        offsets, nbr, eid = self.csr
        wts = self.edge_arrays[2][eid]
        bounds = offsets.tolist()
        spans = list(zip(bounds, bounds[1:]))
        nbr_list, wt_list = nbr.tolist(), wts.tolist()
        nbrs = [nbr_list[a:b] for a, b in spans]
        cumw = [list(accumulate(wt_list[a:b])) for a, b in spans]
        totw = [acc[-1] for acc in cumw]
        # A connected graph leaves no vertex without entries, so no
        # reduceat segment is empty.
        lo = np.minimum.reduceat(wts, offsets[:-1])
        hi = np.maximum.reduceat(wts, offsets[:-1])
        return nbrs, cumw, totw, (lo == hi).tolist()

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compressed adjacency ``(offsets, nbr, eid)``, O(m) int64 arrays.

        Vertex ``v``'s entries sit at ``offsets[v]:offsets[v + 1]`` in the
        same order as ``adjacency``, so ``offsets[v] + j`` locates the
        ``j``-th entry of ``adjacency[0][v]``.
        """
        us, vs, _ = self.edge_arrays
        ends = np.concatenate((us, vs))
        nbr = np.concatenate((vs, us))
        eid = np.tile(np.arange(self.m, dtype=np.int64), 2)
        order = np.lexsort((eid, ends))
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=self.n), out=offsets[1:])
        return offsets, nbr[order], eid[order]

    def weighted_degrees(self) -> np.ndarray:
        """Sum of incident edge weights per vertex (Laplacian diagonal)."""
        us, vs, ws = self.edge_arrays
        deg = np.zeros(self.n)
        np.add.at(deg, us, ws)
        np.add.at(deg, vs, ws)
        return deg


def laplacian(g: WeightedGraph, weights=None) -> np.ndarray:
    """Dense weighted Laplacian ``sum_e w_e (e_u - e_v)(e_u - e_v)^T``.

    ``weights`` replaces the graph's own edge weights with a length-``m``
    vector aligned with edge ids; zero entries drop their edge, so a
    subgraph such as a spanning tree is assembled over the parent's ids.
    """
    us, vs, ws = g.edge_arrays
    if weights is not None:
        ws = np.asarray(weights, dtype=np.float64)
        if ws.shape != (g.m,):
            raise ValueError(f"expected {g.m} edge weights, got shape {ws.shape}")
        keep = np.flatnonzero(ws)
        us, vs, ws = us[keep], vs[keep], ws[keep]
    lap = np.zeros((g.n, g.n))
    np.add.at(lap, (us, vs), -ws)
    np.add.at(lap, (vs, us), -ws)
    np.add.at(lap, (us, us), ws)
    np.add.at(lap, (vs, vs), ws)
    return lap


def complete_graph(n: int) -> WeightedGraph:
    """Complete graph on n vertices with unit edge weights."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    edges = tuple((u, v, 1.0) for u in range(n) for v in range(u + 1, n))
    return WeightedGraph(n, edges)


def ring_graph(n: int) -> WeightedGraph:
    """Unit-weight cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError(f"ring needs n >= 3, got {n}")
    edges = tuple((v, (v + 1) % n, 1.0) for v in range(n))
    return WeightedGraph(n, edges)


def clique_star(num_cliques: int, clique_size: int) -> WeightedGraph:
    """Unit-weight cliques glued at a shared hub vertex.

    Builds ``num_cliques`` copies of the complete graph on ``clique_size``
    vertices, all sharing vertex 0, so ``n = num_cliques * (clique_size - 1)
    + 1``.  Clique ``i`` occupies vertex 0 together with the block of
    ``clique_size - 1`` fresh vertices starting at ``1 + i * (clique_size -
    1)``, and its edges are emitted as one contiguous run.
    """
    if num_cliques < 1:
        raise ValueError(f"need at least one clique, got {num_cliques}")
    if clique_size < 3:
        raise ValueError(f"clique size must be >= 3, got {clique_size}")
    block = clique_size - 1
    edges = []
    for i in range(num_cliques):
        members = [0] + list(range(1 + i * block, 1 + (i + 1) * block))
        for a in range(clique_size):
            for b in range(a + 1, clique_size):
                edges.append((members[a], members[b], 1.0))
    return WeightedGraph(num_cliques * block + 1, tuple(edges))


def erdos_renyi_connected(n: int, p: float, seed: int) -> WeightedGraph:
    """G(n, p) conditioned on connectivity by rejection sampling.

    Uses a Philox counter-based generator so the same seed reproduces the
    same graph; raises ValueError after ``ER_MAX_ATTEMPTS`` disconnected draws.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"edge probability must lie in (0, 1], got {p}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    gen = np.random.Generator(np.random.Philox(seed))
    us, vs = np.triu_indices(n, 1)
    for _ in range(ER_MAX_ATTEMPTS):
        picked = np.flatnonzero(gen.random(len(us)) < p)
        edges = tuple(zip(us[picked].tolist(), vs[picked].tolist(), [1.0] * len(picked)))
        try:
            return WeightedGraph(n, edges)
        except DisconnectedGraphError:
            continue
    raise ValueError(f"no connected G({n}, {p}) draw within {ER_MAX_ATTEMPTS} attempts")


def write_graph(g: WeightedGraph, path: str) -> None:
    """Write the text format: header ``n m`` then one ``u v w`` line per edge.

    Weights are printed with 17 significant digits so a read back
    reproduces the exact float64 values.
    """
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v, w in g.edges:
            fh.write(f"{u} {v} {w:.17g}\n")


def guard_vertices(n: int, max_n: int | None) -> None:
    """Raise SizeGuardError when ``max_n`` is set and ``n`` exceeds it."""
    if max_n is not None and n > max_n:
        raise SizeGuardError(f"this command is capped at n = {max_n}, got n = {n}")


def read_graph(path: str, max_n: int | None = None) -> WeightedGraph:
    """Parse the text format written by :func:`write_graph`.

    With ``max_n`` set, a header naming more vertices raises
    SizeGuardError before any edge line is read.
    """
    with open(path) as fh:
        lines = (ln.strip() for ln in fh if ln.strip())
        header = next(lines, None)
        if header is None:
            raise GraphFileError(f"{path}: empty graph file")
        head = header.split()
        if len(head) != 2:
            raise GraphFileError(f"{path}: header must be 'n m', got {header!r}")
        try:
            n, m = int(head[0]), int(head[1])
        except ValueError as exc:
            raise GraphFileError(f"{path}: bad header {header!r}") from exc
        guard_vertices(n, max_n)
        body = list(lines)
    if len(body) != m:
        raise GraphFileError(f"{path}: header promises {m} edges, file has {len(body)}")
    edges = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 3:
            raise GraphFileError(f"{path}: bad edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise GraphFileError(f"{path}: bad edge line {ln!r}") from exc
    try:
        return WeightedGraph(n, tuple(edges))
    except DisconnectedGraphError:
        raise
    except ValueError as exc:
        raise GraphFileError(f"{path}: {exc}") from exc
