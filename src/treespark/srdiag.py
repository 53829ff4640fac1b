"""Diagnostics for negative dependence and martingale concentration.

Spanning tree indicators are negatively dependent: conditioning on a
forest being present can only shrink the marginal of every other edge.
This module checks that exhaustively on small graphs, and instruments
the edge-by-edge Doob martingale of the normalised tree matrix sum.

The martingale works in the (n - 1)-dimensional frame ``M`` of
:func:`~treespark.leverage.laplacian_frame`, where the parent Laplacian
becomes the identity: each edge contributes ``A_e = r_e r_e^T / lev_e``
with ``r_e = sqrt(w_e) M^T b_e`` its row of
:func:`~treespark.leverage.edge_frame_rows`, so ``sum_e lev_e A_e = I``
and a sampled tree contributes ``sum_{e in T} A_e``.  Any two frames
that whiten the Laplacian differ by an isometry, so the norms do not
depend on the choice.  Revealing the tree's edges in uniform random order, step
``i`` conditions on a partial edge set.  Conditioning on an edge is
contraction, carried out as one rank-one update of the transfer-current
matrix (:class:`~treespark.leverage.TransferCurrent`); a step reads
every candidate's conditional marginals from one vectorised expression,
so conditional expectations are exact and no quotient graph is built.
The quotient-graph route stays in the tests as the oracle.  No sampled
estimate enters the trace.

Binomial tail utilities run in log space with compensated summation so
tails far below 1e-300 keep their logarithms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .graph import SizeGuardError, WeightedGraph
from .leverage import TransferCurrent, edge_frame_rows, leverage_scores
from .spectral import _opnorm
from .treesample import sample_tree_stream

SHRINKING_EDGE_CAP = 10
TRACE_VERTEX_CAP = 12

STEP_SLACK = 1e-8
CUMULATIVE_SLACK = 1e-6


# ---------------------------------------------------------------------------
# Shrinking marginals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShrinkingMarginalsReport:
    """Exhaustive comparison of conditional vs unconditional marginals.

    ``max_excess`` is the largest value of ``conditional - unconditional``
    seen over every (forest, residual edge) pair; negative dependence
    predicts it never exceeds numerical noise.  ``worst`` records the
    pair achieving it as ``(forest ids, edge id, conditional,
    unconditional)``.
    """

    graph: WeightedGraph
    num_forests: int
    num_pairs: int
    max_excess: float
    worst: tuple
    passed: bool
    entries: tuple = ()


def shrinking_marginals_suite(
    g: WeightedGraph, tol: float = 1e-10, keep_entries: bool = False
) -> ShrinkingMarginalsReport:
    """Check marginal shrinkage for every forest of a small graph.

    Enumerates every forest S (the empty one included) depth first,
    each one a single transfer-current contraction away from its
    parent, and compares each residual edge's conditional marginal
    against its plain leverage score, read off the same transfer-current
    matrix so the empty forest compares equal.  Guarded at ``m <= 10``
    edges.
    """
    if g.m > SHRINKING_EDGE_CAP:
        raise SizeGuardError(
            f"shrinking marginal suite capped at m = {SHRINKING_EDGE_CAP}, got m = {g.m}"
        )
    root = TransferCurrent(g)
    base = root.marginals()
    forests: list[tuple[tuple[int, ...], np.ndarray]] = []

    def recurse(next_eid: int, chosen: list[int], tc: TransferCurrent):
        forests.append((tuple(chosen), tc.marginals()))
        for eid in range(next_eid, g.m):
            u, v, _ = g.edges[eid]
            if tc.reps[u] == tc.reps[v]:
                continue
            sub = tc.copy()
            sub.contract(eid)
            chosen.append(eid)
            recurse(eid + 1, chosen, sub)
            chosen.pop()

    recurse(0, [], root)

    num_pairs = 0
    max_excess = -math.inf
    worst = ()
    entries = []
    for forest, cond in forests:
        in_forest = set(forest)
        for eid in range(g.m):
            if eid in in_forest:
                continue
            num_pairs += 1
            excess = float(cond[eid] - base[eid])
            if keep_entries:
                entries.append((forest, eid, float(cond[eid]), float(base[eid])))
            if excess > max_excess:
                max_excess = excess
                worst = (forest, eid, float(cond[eid]), float(base[eid]))
    return ShrinkingMarginalsReport(
        graph=g,
        num_forests=len(forests),
        num_pairs=num_pairs,
        max_excess=max_excess,
        worst=worst,
        passed=max_excess <= tol,
        entries=tuple(entries),
    )


# ---------------------------------------------------------------------------
# Doob martingale trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MartingaleTrace:
    """Exact conditional-expectation path for one revealed tree ordering.

    ``cond_expectations[i]`` is the conditional expectation of the
    normalised tree matrix after revealing ``i`` edges; index 0 is the
    identity of the whitened frame and index k is the realised tree
    matrix.  ``step_norms[i-1]`` is the norm of increment i,
    ``variation_norms[i-1]`` the norm of the running predictable
    quadratic variation, whose per-step summands are kept in
    ``second_moments``.  ``max_edge_norm`` is the largest single-edge
    matrix norm (the increment range) and ``frame_norm`` the norm of the
    full expectation; with inverse-leverage weights both are 1 up to
    rounding.
    """

    graph: WeightedGraph
    ordering: tuple[int, ...]
    cond_expectations: tuple
    step_norms: tuple[float, ...]
    variation_norms: tuple[float, ...]
    max_edge_norm: float
    frame_norm: float
    cond_mean_norms: tuple[float, ...]
    zero_mean_residuals: tuple[float, ...]
    second_moments: tuple
    variations: tuple

    @property
    def k(self) -> int:
        return len(self.ordering)

    def cumulative_bound(self) -> float:
        """Envelope ``10 * frame_norm * max_edge_norm * ln k``.

        At k = 1 this degenerates to 0, which is still valid: a
        2-vertex graph has a 1-dimensional normalised frame where every
        edge matrix coincides, so increments vanish identically.
        """
        return 10.0 * self.frame_norm * self.max_edge_norm * math.log(self.k)


def _edge_matrices(g: WeightedGraph) -> np.ndarray:
    """Stack of ``r_e r_e^T / lev_e`` in the whitened frame, shape (m, n - 1, n - 1)."""
    rows = edge_frame_rows(g)
    rows /= np.sqrt(leverage_scores(g).values)[:, None]
    return np.einsum("ei,ej->eij", rows, rows)


def trace_for_ordering(g: WeightedGraph, ordering) -> MartingaleTrace:
    """Build the exact martingale trace for a given edge reveal order.

    ``ordering`` must list the edges of a spanning tree of ``g`` in the
    order they are revealed.  Each step averages over every edge the
    reveal could have produced next, weighting candidate e by its
    conditional marginal divided by the number of unrevealed slots, and
    records the realised increment, the mixture mean (which must vanish)
    and the mixture second moment.
    """
    if g.n > TRACE_VERTEX_CAP:
        raise SizeGuardError(
            f"martingale trace capped at n = {TRACE_VERTEX_CAP} vertices, got n = {g.n}"
        )
    ordering = tuple(int(e) for e in ordering)
    k = g.n - 1
    if len(ordering) != k or len(set(ordering)) != k:
        raise ValueError(f"ordering must list {k} distinct edges")

    mats = _edge_matrices(g)
    flat = mats.reshape(g.m, -1)
    lev = leverage_scores(g).values
    max_edge_norm = float(_opnorm(mats).max())

    expect_0 = np.tensordot(lev, mats, axes=1)
    frame_norm = _opnorm(expect_0)

    tc = TransferCurrent(g)
    margs = tc.marginals()
    expect_prev = expect_0

    cond_expectations = [expect_0]
    second_moments = []
    variations = []
    # Per step: conditional mean, zero-mean residual, realised increment
    # and running variation, normed together after the loop.
    normed = []
    variation = np.zeros_like(expect_0)

    for i in range(1, k + 1):
        slots = k - i + 1
        candidates = tc.candidates()
        probs = margs[candidates] / slots
        cand_expect = (tc.marginals_after(candidates) @ flat).reshape(-1, k, k)
        increments = cand_expect - expect_prev

        cond_mean = np.tensordot(probs, mats[candidates], axes=1)
        residual = np.tensordot(probs, increments, axes=1)
        second = np.tensordot(probs, increments @ increments, axes=1)
        second_moments.append(second)
        variation = variation + second
        variations.append(variation)

        chosen = ordering[i - 1]
        hits = np.flatnonzero(candidates == chosen)
        if not hits.size:
            raise ValueError(
                f"edge {chosen} cannot be revealed at step {i}: zero conditional marginal"
            )
        idx = int(hits[0])
        normed.append((cond_mean, residual, increments[idx], variation))
        tc.contract(chosen)
        margs = tc.marginals()
        expect_prev = cand_expect[idx]
        cond_expectations.append(expect_prev)

    cond_mean_norms, zero_mean_residuals, step_norms, variation_norms = (
        tuple(float(x) for x in col) for col in _opnorm(np.array(normed)).T
    )

    return MartingaleTrace(
        graph=g,
        ordering=ordering,
        cond_expectations=tuple(cond_expectations),
        step_norms=step_norms,
        variation_norms=variation_norms,
        max_edge_norm=max_edge_norm,
        frame_norm=frame_norm,
        cond_mean_norms=cond_mean_norms,
        zero_mean_residuals=zero_mean_residuals,
        second_moments=tuple(second_moments),
        variations=tuple(variations),
    )


def martingale_trace(g: WeightedGraph, rng_seed: int) -> MartingaleTrace:
    """Sample a tree, shuffle its edges uniformly and trace the martingale."""
    gen = np.random.Generator(np.random.Philox(rng_seed))
    tree = sample_tree_stream(g, gen)
    order = gen.permutation(len(tree.edge_ids))
    ordering = tuple(tree.edge_ids[int(j)] for j in order)
    return trace_for_ordering(g, ordering)


def check_step_variance_bound(trace: MartingaleTrace) -> bool:
    """Per-step predictable variance and conditional mean bounds.

    Step i (with ``s = k - i + 1`` unrevealed slots) must satisfy
    ``lambda_max(E[X_i^2 | past]) <= 4 * mu * R / s`` up to
    ``STEP_SLACK``, where ``mu`` is the frame norm and ``R`` the edge
    norm range.  Also verifies the per-edge conditional mean bound
    ``||E[A | past]|| <= mu / s`` at every step.
    """
    k = trace.k
    mu = trace.frame_norm
    mu_r = mu * trace.max_edge_norm
    for i, second in enumerate(trace.second_moments, start=1):
        slots = k - i + 1
        if trace.cond_mean_norms[i - 1] > mu / slots + STEP_SLACK:
            return False
        if float(np.linalg.eigvalsh(second)[-1]) > 4.0 * mu_r / slots + STEP_SLACK:
            return False
    return True


def check_trace_bounds(trace: MartingaleTrace) -> bool:
    """All trace invariants at once.

    Checks the zero-mean residuals, the increment range ``max step norm
    <= R``, the conditional mean norm bound ``mu / slots``, the per-step
    variance bound and the cumulative envelope ``10 mu R ln k`` on the
    final variation norm.  The envelope degenerates to zero at k = 1,
    where it still holds: every edge of a 2-vertex graph carries the
    same normalised matrix, so all increments vanish.
    """
    r = trace.max_edge_norm
    if any(res > STEP_SLACK for res in trace.zero_mean_residuals):
        return False
    if any(x > r + STEP_SLACK for x in trace.step_norms):
        return False
    if not check_step_variance_bound(trace):
        return False
    if trace.variation_norms[-1] > trace.cumulative_bound() + CUMULATIVE_SLACK:
        return False
    return True


def trace_dump(trace: MartingaleTrace) -> str:
    """Text dump: one ``i x_norm w_norm bound`` line per step, then JSON.

    ``bound`` is the running sum of the per-step variance envelopes
    ``4 mu R / slots``, i.e. the proved cap on the variation norm after
    step i.  The JSON record summarises the trace and its verdict.
    """
    k = trace.k
    mu_r = trace.frame_norm * trace.max_edge_norm
    lines = []
    running = 0.0
    for i in range(1, k + 1):
        running += 4.0 * mu_r / (k - i + 1)
        lines.append(
            f"{i} {trace.step_norms[i - 1]:.12g} "
            f"{trace.variation_norms[i - 1]:.12g} {running:.12g}"
        )
    summary = {
        "k": k,
        "ordering": list(trace.ordering),
        "max_edge_norm": trace.max_edge_norm,
        "frame_norm": trace.frame_norm,
        "max_step_norm": max(trace.step_norms),
        "final_variation_norm": trace.variation_norms[-1],
        "cumulative_bound": trace.cumulative_bound(),
        "passed": check_trace_bounds(trace),
    }
    lines.append(json.dumps(summary))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Binomial tails, reverse concentration, Stirling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinomialTailQuery:
    """Validated arguments of a binomial tail probability.

    ``k`` trials with success probability ``p`` in ``(0, 1/2]`` and an
    integer ``threshold`` in ``[0, k]``.
    """

    k: int
    p: float
    threshold: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"need integer k >= 1, got {self.k!r}")
        if not (0.0 < self.p <= 0.5):
            raise ValueError(f"success probability must lie in (0, 1/2], got {self.p}")
        if not isinstance(self.threshold, int) or not (0 <= self.threshold <= self.k):
            raise ValueError(
                f"threshold must be an integer in [0, {self.k}], got {self.threshold!r}"
            )


def _log_terms(k: int, p: float, lo: int, hi: int) -> list[float]:
    logc = math.lgamma(k + 1)
    logp = math.log(p)
    logq = math.log1p(-p)
    return [
        logc - math.lgamma(i + 1) - math.lgamma(k - i + 1) + i * logp + (k - i) * logq
        for i in range(lo, hi + 1)
    ]


def _log_sum_exp(terms: list[float]) -> float:
    """``log sum exp(terms)``, shifted by the largest term and summed by ``fsum``."""
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def log_binomial_tail(k: int, p: float, threshold: int) -> float:
    """``log Pr[Bin(k, p) >= threshold]`` without underflow."""
    BinomialTailQuery(k, p, threshold)
    if threshold == 0:
        return 0.0
    return _log_sum_exp(_log_terms(k, p, threshold, k))


def binomial_tail(k: int, p: float, threshold: int) -> float:
    """``Pr[Bin(k, p) >= threshold]`` via compensated log-space summation."""
    return math.exp(log_binomial_tail(k, p, threshold))


def log_binomial_tail_lower(k: int, p: float, threshold: int) -> float:
    """``log Pr[Bin(k, p) <= threshold]`` without underflow."""
    BinomialTailQuery(k, p, threshold)
    if threshold == k:
        return 0.0
    return _log_sum_exp(_log_terms(k, p, 0, threshold))


def binomial_tail_lower(k: int, p: float, threshold: int) -> float:
    """``Pr[Bin(k, p) <= threshold]``."""
    return math.exp(log_binomial_tail_lower(k, p, threshold))


def reverse_chernoff_check(k: int, p: float, eps: float) -> bool:
    """Anti-concentration floor on both binomial tails.

    Under the hypotheses ``eps in (0, 1/2]``, ``p in (0, 1/2]`` and
    ``eps^2 p k >= 3``, verifies ``Pr[S >= (1+eps) p k] >= exp(-9 eps^2
    p k)`` and the mirrored lower tail.  Tails at fractional thresholds
    are evaluated at the nearest admissible integer: ceil for the upper
    tail, floor for the lower.  Comparisons run in log space; a 1e-9
    inward nudge on the thresholds absorbs float noise when ``(1 +- eps)
    p k`` is an exact integer.
    """
    BinomialTailQuery(k, p, 0)
    if not (0.0 < eps <= 0.5):
        raise ValueError(f"deviation must lie in (0, 1/2], got {eps}")
    exponent = eps * eps * p * k
    if exponent < 3.0:
        raise ValueError(
            f"hypothesis eps^2 p k >= 3 fails: {exponent:g} with k={k} p={p} eps={eps}"
        )
    up = math.ceil((1.0 + eps) * p * k - 1e-9)
    lo = math.floor((1.0 - eps) * p * k + 1e-9)
    upper_ok = log_binomial_tail(k, p, up) >= -9.0 * exponent
    lower_ok = log_binomial_tail_lower(k, p, lo) >= -9.0 * exponent
    return upper_ok and lower_ok


def default_reverse_chernoff_grid() -> list[tuple[int, float, float]]:
    """Hypothesis-satisfying (k, p, eps) triples for grid checks."""
    grid = []
    for k in (50, 100, 200, 400, 800, 1600, 2400, 3200, 4000, 5000):
        for p in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
            for eps in (0.1, 0.15, 0.2, 0.3, 0.4, 0.5):
                if eps * eps * p * k >= 3.0:
                    grid.append((k, p, eps))
    return grid


def check_stirling_binom_lower(k: int, l: int) -> bool:
    """Stirling-type floor on a binomial coefficient.

    Verifies ``C(k, l) >= (1 / (e sqrt(2 pi l))) (k/l)^l (k/(k-l))^(k-l)``
    for ``1 <= l <= k - 1``, compared in log space.
    """
    if not isinstance(k, int) or not isinstance(l, int) or not (1 <= l <= k - 1):
        raise ValueError(f"need integers with 1 <= l <= k - 1, got k={k!r} l={l!r}")
    log_binom = math.lgamma(k + 1) - math.lgamma(l + 1) - math.lgamma(k - l + 1)
    log_floor = (
        -1.0
        - 0.5 * math.log(2.0 * math.pi * l)
        + l * math.log(k / l)
        + (k - l) * math.log(k / (k - l))
    )
    return log_binom >= log_floor
