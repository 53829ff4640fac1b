"""Quotient-graph route to conditional marginals and martingale traces.

The library conditions by rank-one transfer-current updates.  This
module conditions the slow, independent way: contract the forest with
:meth:`ContractionState.quotient`, build the quotient multigraph and read
its leverage scores back through the edge map.  ``ContractionState``
keeps its own vertex blocks, so the oracle shares no bookkeeping with
``TransferCurrent``, and the martingale's edge matrices are built in the
n-dimensional ``L^{+1/2}`` frame from an eigendecomposition of L_G, not
in the library's Cholesky frame.  Tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from frame_oracle import pinv_power
from treespark.graph import WeightedGraph, laplacian
from treespark.leverage import InvalidConditioningError, leverage_scores
from treespark.spectral import _opnorm, eig_sym


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


def quotient_marginals(g, state: ContractionState) -> np.ndarray:
    """Conditional marginals from the quotient multigraph's leverage scores."""
    out = np.zeros(g.m)
    out[list(state.contracted)] = 1.0
    quot, _, eid_map, _ = state.quotient()
    if quot is not None:
        lev = leverage_scores(quot)
        for eid, qid in eid_map.items():
            out[eid] = lev[qid]
    return out


def forests(g):
    """Every forest of ``g`` (the empty one included) as a ContractionState."""
    found = []

    def grow(next_eid: int, state: ContractionState):
        found.append(state)
        for eid in range(next_eid, g.m):
            try:
                sub = state.contract(eid)
            except InvalidConditioningError:
                continue
            grow(eid + 1, sub)

    grow(0, ContractionState.initial(g))
    return found


def edge_matrices(g) -> np.ndarray:
    """Stack of ``A_e = (w_e / lev_e) L^{+1/2} b_e b_e^T L^{+1/2}``, shape (m, n, n).

    ``lev_e = w_e b_e^T L^+ b_e``, with both powers of the pseudoinverse
    read off one ``eig_sym(L_G)``.
    """
    dec = eig_sym(laplacian(g))
    half, pinv = pinv_power(dec, 0.5), pinv_power(dec, 1)
    mats = []
    for u, v, w in g.edges:
        lev = w * (pinv[u, u] + pinv[v, v] - 2.0 * pinv[u, v])
        x = half[u] - half[v]
        mats.append((w / lev) * np.outer(x, x))
    return np.array(mats)


def quotient_trace(g, ordering) -> dict:
    """Martingale trace fields with every conditioning step by quotient.

    Mirrors the definition in ``srdiag.trace_for_ordering`` one candidate
    at a time: step ``i`` weights each unrevealed, non-loop edge by its
    conditional marginal over the unrevealed slots.  The conditional
    expectations are n x n, one dimension more than the library's
    whitened frame, with the extra eigenvalue 0 on the all-ones vector.
    """
    mats = edge_matrices(g)
    k = g.n - 1
    state = ContractionState.initial(g)
    margs = quotient_marginals(g, state)
    expect_prev = np.tensordot(margs, mats, axes=1)
    fields = {
        "cond_expectations": [expect_prev],
        "step_norms": [],
        "variation_norms": [],
        "cond_mean_norms": [],
        "zero_mean_residuals": [],
        "second_moment_norms": [],
    }
    variation = np.zeros_like(expect_prev)
    for i, chosen in enumerate(ordering, start=1):
        slots = k - i + 1
        cands = [e for e in range(g.m) if e not in state.contracted and margs[e] > 0.0]
        probs = [margs[e] / slots for e in cands]
        nexts = [state.contract(e) for e in cands]
        incs = [
            np.tensordot(quotient_marginals(g, st), mats, axes=1) - expect_prev
            for st in nexts
        ]
        fields["cond_mean_norms"].append(_opnorm(sum(p * mats[e] for p, e in zip(probs, cands))))
        fields["zero_mean_residuals"].append(_opnorm(sum(p * x for p, x in zip(probs, incs))))
        second = sum(p * x @ x for p, x in zip(probs, incs))
        fields["second_moment_norms"].append(_opnorm(second))
        variation = variation + second
        fields["variation_norms"].append(_opnorm(variation))
        idx = cands.index(chosen)
        fields["step_norms"].append(_opnorm(incs[idx]))
        state = nexts[idx]
        margs = quotient_marginals(g, state)
        expect_prev = expect_prev + incs[idx]
        fields["cond_expectations"].append(expect_prev)
    return fields
