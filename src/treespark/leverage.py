"""Effective resistances, leverage scores and conditioning by contraction.

Leverage scores of a weighted graph are the spanning tree marginals:
``lev_e = w_e * reff(u_e, v_e)`` is the probability that edge ``e``
appears in a random spanning tree drawn with probability proportional to
the product of edge weights.  Conditioning such a tree on containing a
forest is the same as contracting the forest's edges.

Conditioning runs on the transfer-current matrix ``Y = W^1/2 B L^+ B^T
W^1/2`` (Burton & Pemantle), whose diagonal holds the leverage scores.
Contracting edge ``e`` is the ``w_e -> inf`` limit of Sherman-Morrison,
a rank-one Schur-complement step ``Y <- Y - Y[:, e] Y[e, :] / Y[e, e]``,
so conditional marginals come from one pseudoinverse of the parent
graph with no quotient graph built.  :meth:`ContractionState.quotient`
builds that quotient multigraph explicitly; tests read its leverage
scores as the independent oracle for the updates.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from .graph import SizeGuardError, WeightedGraph, laplacian
from .spectral import SpectralDecomposition, eig_sym, pinv_power

DENSE_SOLVE_CAP = 2000


class InvalidConditioningError(ValueError):
    """Raised when a conditioning edge set contains a cycle."""


@functools.lru_cache(maxsize=8)
def laplacian_decomposition(g: WeightedGraph) -> SpectralDecomposition:
    """``eig_sym(laplacian(g))``, computed once per graph and shared.

    The pseudoinverse, the leverage scores, the certify pencil and the
    martingale's edge matrices all read this one decomposition; its
    arrays are read-only because every caller gets the same object.
    """
    if g.n > DENSE_SOLVE_CAP:
        raise SizeGuardError(
            f"dense Laplacian solve capped at n = {DENSE_SOLVE_CAP}, got n = {g.n}"
        )
    dec = eig_sym(laplacian(g))
    dec.eigenvalues.flags.writeable = False
    dec.basis.flags.writeable = False
    return dec


@functools.lru_cache(maxsize=8)
def _laplacian_pinv(g: WeightedGraph) -> np.ndarray:
    return pinv_power(laplacian_decomposition(g), 1)


def effective_resistance(g: WeightedGraph, u: int, v: int) -> float:
    """Resistance between two vertices with conductances ``w_e``."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"vertex out of range: ({u}, {v})")
    if u == v:
        return 0.0
    pinv = _laplacian_pinv(g)
    return float(pinv[u, u] + pinv[v, v] - 2.0 * pinv[u, v])


@dataclass(frozen=True)
class LeverageProfile:
    """Per-edge leverage scores aligned with the parent graph's edge ids.

    Scores lie in ``(0, 1]`` and sum to ``n - 1``; both facts are
    checked on construction.
    """

    graph: WeightedGraph
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.graph.m,):
            raise ValueError(
                f"expected {self.graph.m} scores, got shape {vals.shape}"
            )
        if float(vals.min(initial=1.0)) <= 0.0 or float(vals.max(initial=0.0)) > 1.0 + 1e-10:
            raise ValueError("leverage scores must lie in (0, 1]")
        total = float(vals.sum())
        target = self.graph.n - 1
        if abs(total - target) > 1e-8:
            raise ValueError(
                f"leverage scores sum to {total!r}, expected {target}"
            )
        object.__setattr__(self, "values", vals)


def leverage_scores(g: WeightedGraph) -> LeverageProfile:
    """Leverage score of every edge, via one pseudoinverse per graph."""
    pinv = _laplacian_pinv(g)
    us, vs, ws = g.edge_arrays
    reff = pinv[us, us] + pinv[vs, vs] - 2.0 * pinv[us, vs]
    return LeverageProfile(g, ws * reff)


@dataclass(frozen=True)
class ContractionState:
    """A forest of contracted edges over a parent graph.

    ``reps[v]`` is the canonical representative (smallest member) of the
    merged block containing vertex ``v``.  Growing the state with an edge
    whose endpoints are already merged would close a cycle, which cannot
    be conditioned on, so that raises :class:`InvalidConditioningError`.
    """

    graph: WeightedGraph
    contracted: tuple[int, ...]
    reps: tuple[int, ...]

    @classmethod
    def initial(cls, g: WeightedGraph) -> "ContractionState":
        return cls(g, (), tuple(range(g.n)))

    @classmethod
    def from_edges(cls, g: WeightedGraph, edge_ids) -> "ContractionState":
        state = cls.initial(g)
        for eid in edge_ids:
            state = state.contract(eid)
        return state

    def contract(self, edge_id: int) -> "ContractionState":
        if not (0 <= edge_id < self.graph.m):
            raise ValueError(f"edge id {edge_id} out of range")
        if edge_id in self.contracted:
            raise InvalidConditioningError(f"edge {edge_id} already contracted")
        u, v, _ = self.graph.edges[edge_id]
        ru, rv = self.reps[u], self.reps[v]
        if ru == rv:
            raise InvalidConditioningError(
                f"edge {edge_id} closes a cycle in the contracted set"
            )
        keep, drop = min(ru, rv), max(ru, rv)
        reps = tuple(keep if r == drop else r for r in self.reps)
        return ContractionState(
            self.graph, tuple(sorted(self.contracted + (edge_id,))), reps
        )

    def quotient(self):
        """Contracted multigraph and the edge bookkeeping to map back.

        Returns ``(quot, vmap, eid_map, loops)``: the quotient graph (or
        None when everything merged to a single vertex), the original
        vertex to quotient vertex map, a dict from surviving original
        edge ids to quotient edge ids, and the list of original edge ids
        that became self loops.
        """
        classes = sorted(set(self.reps))
        index = {r: i for i, r in enumerate(classes)}
        vmap = tuple(index[r] for r in self.reps)
        edges = []
        eid_map = {}
        loops = []
        contracted = set(self.contracted)
        for eid, (u, v, w) in enumerate(self.graph.edges):
            if eid in contracted:
                continue
            qu, qv = vmap[u], vmap[v]
            if qu == qv:
                loops.append(eid)
            else:
                eid_map[eid] = len(edges)
                edges.append((qu, qv, w))
        if len(classes) == 1:
            return None, vmap, eid_map, loops
        return WeightedGraph(len(classes), tuple(edges)), vmap, eid_map, loops


class TransferCurrent:
    """Transfer-current matrix of a graph conditioned on a contracted forest.

    ``y`` starts as ``W^1/2 B L^+ B^T W^1/2`` (m x m, symmetric, diagonal
    = leverage scores) and each :meth:`contract` applies the rank-one
    update that conditions on one more tree edge.  ``reps`` tracks the
    merged vertex blocks, so whether an edge is contracted or a loop
    (endpoints in one block) is decided exactly rather than read off a
    float that rounding leaves near zero.
    """

    def __init__(self, g: WeightedGraph):
        pinv = _laplacian_pinv(g)
        us, vs, ws = g.edge_arrays
        cols = pinv[:, us] - pinv[:, vs]
        root = np.sqrt(ws)
        y = (cols[us] - cols[vs]) * np.outer(root, root)
        self.graph = g
        self.y = (y + y.T) / 2.0
        self.reps = np.arange(g.n)
        self.contracted = np.zeros(g.m, dtype=bool)

    def copy(self) -> "TransferCurrent":
        """Independent state that can be contracted further on its own."""
        dup = copy.copy(self)
        dup.y, dup.reps, dup.contracted = self.y.copy(), self.reps.copy(), self.contracted.copy()
        return dup

    def _ends(self) -> tuple[np.ndarray, np.ndarray]:
        us, vs, _ = self.graph.edge_arrays
        return self.reps[us], self.reps[vs]

    def candidates(self) -> np.ndarray:
        """Ids of the edges that join two different blocks."""
        ru, rv = self._ends()
        return np.flatnonzero(ru != rv)

    def marginals(self) -> np.ndarray:
        """Conditional marginals: 1 on contracted edges, 0 on loops."""
        ru, rv = self._ends()
        out = np.diag(self.y).copy()
        out[ru == rv] = 0.0
        out[self.contracted] = 1.0
        return out

    def marginals_after(self, cands: np.ndarray) -> np.ndarray:
        """Row ``i`` holds the marginals after also contracting ``cands[i]``.

        Every entry of ``cands`` must be one of :meth:`candidates`.
        """
        ru, rv = self._ends()
        rows = self.y[cands]
        pick = np.arange(len(cands))
        out = np.diag(self.y) - rows * rows / rows[pick, cands][:, None]
        a, b = ru[cands][:, None], rv[cands][:, None]
        merged = (ru == rv) | ((ru == a) & (rv == b)) | ((ru == b) & (rv == a))
        out[merged] = 0.0
        out[:, self.contracted] = 1.0
        out[pick, cands] = 1.0
        return out

    def contract(self, edge_id: int) -> None:
        """Condition on ``edge_id`` being a tree edge.

        Raises :class:`InvalidConditioningError` when the edge is already
        contracted or its endpoints are already merged (a cycle).
        """
        if not (0 <= edge_id < self.graph.m):
            raise ValueError(f"edge id {edge_id} out of range")
        ru, rv = self._ends()
        if self.contracted[edge_id]:
            raise InvalidConditioningError(f"edge {edge_id} already contracted")
        if ru[edge_id] == rv[edge_id]:
            raise InvalidConditioningError(
                f"edge {edge_id} closes a cycle in the contracted set"
            )
        col = self.y[:, edge_id]
        self.y = self.y - np.outer(col, col) / col[edge_id]
        keep, drop = min(ru[edge_id], rv[edge_id]), max(ru[edge_id], rv[edge_id])
        self.reps[self.reps == drop] = keep
        self.contracted[edge_id] = True


def conditional_marginals(g: WeightedGraph, state: ContractionState) -> np.ndarray:
    """Spanning tree marginals conditioned on the contracted forest.

    Returns an array over all edge ids of ``g``: contracted edges report
    1, edges whose endpoints were merged (self loops in the quotient)
    report 0, and every other edge reports its leverage score in the
    quotient multigraph, computed by one transfer-current update per
    contracted edge.
    """
    if state.graph != g:
        raise ValueError("contraction state belongs to a different graph")
    tc = TransferCurrent(g)
    for eid in state.contracted:
        tc.contract(eid)
    return tc.marginals()
