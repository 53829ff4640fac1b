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

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .graph import SizeGuardError, WeightedGraph, philox_stream
from .leverage import TransferCurrent, edge_frame_rows
from .spectral import _opnorm
from .treesample import _wilson_edge_ids

SHRINKING_EDGE_CAP = 10
TRACE_VERTEX_CAP = 12
# Admits every simple graph under the vertex cap (at most 66 edges) and
# keeps the m x m transfer-current matrix at 2 MB.
TRACE_EDGE_CAP = 512

SHRINKING_TOL = 1e-10
STEP_SLACK = 1e-8
CUMULATIVE_SLACK = 1e-6


# ---------------------------------------------------------------------------
# Shrinking marginals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShrinkingMarginalsReport:
    """Exhaustive comparison of conditional vs unconditional marginals.

    ``forests[f]`` lists the edge ids of forest f in ascending order, the
    empty forest first, and ``conditional[f]`` holds every edge's
    marginal conditioned on it, so ``conditional[0]`` is the
    unconditional one.  ``max_excess`` is the largest value of
    ``conditional - unconditional`` over every (forest, residual edge)
    pair; negative dependence predicts it never exceeds numerical noise.
    ``worst`` records the first pair achieving it as ``(forest ids, edge
    id, conditional, unconditional)``.
    """

    forests: tuple[tuple[int, ...], ...]
    conditional: np.ndarray
    num_pairs: int
    max_excess: float
    worst: tuple
    passed: bool

    @property
    def num_forests(self) -> int:
        return len(self.forests)


def shrinking_marginals_suite(g: WeightedGraph) -> ShrinkingMarginalsReport:
    """Check marginal shrinkage for every forest of a small graph.

    Enumerates every forest S (the empty one included) depth first,
    each one a single transfer-current contraction away from its
    parent, records its marginals and contracted mask, and reduces all
    forests at once: each residual edge's conditional marginal is
    compared against its plain leverage score, read off the same
    transfer-current matrix so the empty forest compares equal.  Passes
    when no excess tops ``SHRINKING_TOL``; a NaN excess fails.  Guarded
    at ``m <= 10`` edges.
    """
    if g.m > SHRINKING_EDGE_CAP:
        raise SizeGuardError(
            f"shrinking marginal suite capped at m = {SHRINKING_EDGE_CAP}, got m = {g.m}"
        )
    conds, masks = [], []

    def recurse(next_eid: int, tc: TransferCurrent):
        conds.append(tc.marginals())
        masks.append(tc.contracted)
        cands = tc.candidates()
        for eid in cands[cands >= next_eid].tolist():
            recurse(eid + 1, tc.contract(eid))

    recurse(0, TransferCurrent(g))
    cond, member = np.array(conds), np.array(masks)
    # The empty forest comes first, so its row is the unconditional marginals.
    base = cond[0]
    excess = np.where(member, -np.inf, cond - base)
    # The first maximum in forest-then-edge order; a NaN is its own maximum.
    f, eid = np.unravel_index(np.argmax(excess), excess.shape)
    max_excess = float(excess[f, eid])
    forests = tuple(tuple(np.flatnonzero(row).tolist()) for row in member)
    return ShrinkingMarginalsReport(
        forests=forests,
        conditional=cond,
        num_pairs=int((~member).sum()),
        max_excess=max_excess,
        worst=(forests[f], int(eid), float(cond[f, eid]), float(base[eid])),
        passed=max_excess <= SHRINKING_TOL,
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
    ``second_moments`` with norms ``second_moment_norms``.  ``max_edge_norm``
    is the largest single-edge matrix norm (the increment range) and
    ``frame_norm`` the norm of the full expectation; with inverse-leverage
    weights both are 1 up to rounding.
    """

    ordering: tuple[int, ...]
    cond_expectations: tuple
    step_norms: tuple[float, ...]
    variation_norms: tuple[float, ...]
    max_edge_norm: float
    frame_norm: float
    cond_mean_norms: tuple[float, ...]
    zero_mean_residuals: tuple[float, ...]
    second_moment_norms: tuple[float, ...]
    second_moments: tuple

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

    def envelopes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-step caps ``(mu / s, 4 mu R / s)``, ``s = k - i + 1`` slots at step i.

        They bound the conditional mean and the second moment norms.
        """
        mu, slots = self.frame_norm, np.arange(self.k, 0, -1)
        return mu / slots, 4.0 * mu * self.max_edge_norm / slots

    def worst_margin(self) -> tuple[float, int, str]:
        """Smallest slack ``(margin, step, bound)`` to the range ``R`` or ``10 mu R ln k``.

        ``argmax`` and ``argmin`` pick the first NaN, so a NaN margin is the worst.
        """
        top = int(np.argmax(self.step_norms))
        margins = (
            (self.max_edge_norm - self.step_norms[top], top + 1, "increment_range"),
            (self.cumulative_bound() - self.variation_norms[-1], self.k, "cumulative"),
        )
        return margins[int(np.argmin([m[0] for m in margins]))]


@dataclass(frozen=True)
class _TraceFrame:
    """Read-only per-graph state every trace of one graph starts from.

    ``tc`` is the unconditioned transfer-current state (traces contract
    it by value), ``lev`` the leverage vector read off its diagonal,
    ``flat`` the edge matrices ``A_e`` as an ``(m, k^2)`` array and
    ``expect_0`` their leverage-weighted sum, the identity up to
    rounding.
    """

    tc: TransferCurrent
    lev: np.ndarray
    flat: np.ndarray
    max_edge_norm: float
    expect_0: np.ndarray
    frame_norm: float


@functools.lru_cache(maxsize=1)
def _trace_frame(g: WeightedGraph) -> _TraceFrame:
    """Build the graph-only part of a trace once per graph (keyed by identity)."""
    tc = TransferCurrent(g)
    # Uncontracted, the transfer-current diagonal is the leverage vector.
    lev = tc.marginals()
    rows = edge_frame_rows(g) / np.sqrt(lev)[:, None]
    mats = np.einsum("ei,ej->eij", rows, rows)
    expect_0 = np.tensordot(lev, mats, axes=1)
    for arr in (tc.y, tc.ends, tc.contracted, lev, mats, expect_0):
        arr.flags.writeable = False
    return _TraceFrame(
        tc=tc,
        lev=lev,
        flat=mats.reshape(g.m, -1),
        max_edge_norm=float(_opnorm(mats).max()),
        expect_0=expect_0,
        frame_norm=_opnorm(expect_0),
    )


def trace_for_ordering(g: WeightedGraph, ordering) -> MartingaleTrace:
    """Build the exact martingale trace for a given edge reveal order.

    ``ordering`` must list the edges of a spanning tree of ``g`` in the
    order they are revealed.  Each step averages over every edge the
    reveal could have produced next, weighting candidate e by its
    conditional marginal divided by the number of unrevealed slots, and
    records the realised increment, the mixture mean (which must vanish)
    and the mixture second moment.  Guarded at ``n <= 12`` vertices and
    ``m <= 512`` edges, since the transfer-current matrix is m x m.
    """
    if g.n > TRACE_VERTEX_CAP:
        raise SizeGuardError(
            f"martingale trace capped at n = {TRACE_VERTEX_CAP} vertices, got n = {g.n}"
        )
    if g.m > TRACE_EDGE_CAP:
        raise SizeGuardError(
            f"martingale trace capped at m = {TRACE_EDGE_CAP} edges, got m = {g.m}"
        )
    ordering = tuple(int(e) for e in ordering)
    k = g.n - 1
    if len(ordering) != k or len(set(ordering)) != k:
        raise ValueError(f"ordering must list {k} distinct edges")

    frame = _trace_frame(g)
    flat = frame.flat
    tc = frame.tc
    margs = frame.lev
    expect_prev = frame.expect_0

    cond_expectations = [expect_prev]
    second_moments = []
    # Per step: conditional mean, zero-mean residual, realised increment,
    # running variation and second moment, normed together after the loop.
    normed = []
    variation = np.zeros_like(expect_prev)

    for i in range(1, k + 1):
        slots = k - i + 1
        candidates = tc.candidates()
        c = len(candidates)
        probs = margs[candidates] / slots
        after = tc.marginals_after(candidates)
        cand_expect = (after @ flat).reshape(c, k, k)
        increments = cand_expect - expect_prev

        # Flat (c, k^2) products run the same BLAS call as a tensordot.
        cond_mean = (probs @ flat[candidates]).reshape(k, k)
        residual = (probs @ increments.reshape(c, -1)).reshape(k, k)
        second = (probs @ (increments @ increments).reshape(c, -1)).reshape(k, k)
        second_moments.append(second)
        variation = variation + second

        chosen = ordering[i - 1]
        hits = np.flatnonzero(candidates == chosen)
        if not hits.size:
            raise ValueError(
                f"edge {chosen} cannot be revealed at step {i}: zero conditional marginal"
            )
        idx = int(hits[0])
        normed.append((cond_mean, residual, increments[idx], variation, second))
        tc = tc.contract(chosen)
        # Row idx is tc.marginals() bit for bit: y is exactly symmetric.
        margs = after[idx]
        expect_prev = cand_expect[idx]
        cond_expectations.append(expect_prev)

    cond_mean_norms, zero_mean_residuals, step_norms, variation_norms, second_norms = (
        tuple(float(x) for x in col) for col in _opnorm(np.array(normed)).T
    )

    return MartingaleTrace(
        ordering=ordering,
        cond_expectations=tuple(cond_expectations),
        step_norms=step_norms,
        variation_norms=variation_norms,
        max_edge_norm=frame.max_edge_norm,
        frame_norm=frame.frame_norm,
        cond_mean_norms=cond_mean_norms,
        zero_mean_residuals=zero_mean_residuals,
        second_moment_norms=second_norms,
        second_moments=tuple(second_moments),
    )


def martingale_trace(g: WeightedGraph, rng_seed: int) -> MartingaleTrace:
    """Draw a Wilson tree, shuffle its edge ids uniformly and trace the martingale.

    The tree's ids are sorted, then shuffled by the same generator;
    :func:`trace_for_ordering` checks that they span.
    """
    gen = philox_stream(rng_seed)
    ids = sorted(_wilson_edge_ids(g, gen))
    return trace_for_ordering(g, [ids[j] for j in gen.permutation(len(ids))])


def check_step_variance_bound(trace: MartingaleTrace) -> bool:
    """Per-step predictable variance and conditional mean bounds.

    Step i (with ``s = k - i + 1`` unrevealed slots) must satisfy
    ``||E[X_i^2 | past]|| <= 4 * mu * R / s`` and the per-edge
    conditional mean bound ``||E[A | past]|| <= mu / s``, each up to
    ``STEP_SLACK``, with the caps of :meth:`MartingaleTrace.envelopes`.
    """
    norms = np.array([trace.cond_mean_norms, trace.second_moment_norms])
    return bool(np.all(norms <= np.array(trace.envelopes()) + STEP_SLACK))


def check_trace_bounds(trace: MartingaleTrace) -> bool:
    """All trace invariants at once.

    Checks the zero-mean residuals, the increment range ``max step norm
    <= R``, the conditional mean norm bound ``mu / slots``, the per-step
    variance bound and the cumulative envelope ``10 mu R ln k`` on the
    final variation norm.  The envelope degenerates to zero at k = 1,
    where it still holds: every edge of a 2-vertex graph carries the
    same normalised matrix, so all increments vanish.  Every check reads
    ``norm <= cap``, so a NaN norm or cap fails it.
    """
    return bool(
        np.all(np.array(trace.zero_mean_residuals) <= STEP_SLACK)
        and np.all(np.array(trace.step_norms) <= trace.max_edge_norm + STEP_SLACK)
        and check_step_variance_bound(trace)
        and trace.variation_norms[-1] <= trace.cumulative_bound() + CUMULATIVE_SLACK
    )


def trace_dump(trace: MartingaleTrace) -> str:
    """Text dump: one ``i x_norm w_norm bound`` line per step, then JSON.

    ``bound`` is the running sum of the per-step variance envelopes
    ``4 mu R / slots``, i.e. the proved cap on the variation norm after
    step i.  The JSON record summarises the trace and its verdict.
    """
    running = np.cumsum(trace.envelopes()[1])
    steps = zip(trace.step_norms, trace.variation_norms, running)
    lines = [f"{i} {x:.12g} {w:.12g} {b:.12g}" for i, (x, w, b) in enumerate(steps, start=1)]
    summary = {
        "k": trace.k,
        "ordering": list(trace.ordering),
        "max_edge_norm": trace.max_edge_norm,
        "frame_norm": trace.frame_norm,
        # np.max propagates a NaN step norm; Python's max skips it past the first.
        "max_step_norm": float(np.max(trace.step_norms)),
        "final_variation_norm": trace.variation_norms[-1],
        "cumulative_bound": trace.cumulative_bound(),
        "passed": check_trace_bounds(trace),
    }
    lines.append(json.dumps(summary))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Binomial tails, reverse concentration, Stirling
# ---------------------------------------------------------------------------


def _check_tail_args(k: int, p: float, threshold: int) -> None:
    """Raise ValueError unless ``k >= 1`` is an integer number of trials,
    ``p`` lies in ``(0, 1/2]`` and ``threshold`` is an integer in ``[0, k]``."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"need integer k >= 1, got {k!r}")
    if not (0.0 < p <= 0.5):
        raise ValueError(f"success probability must lie in (0, 1/2], got {p}")
    if not isinstance(threshold, int) or not (0 <= threshold <= k):
        raise ValueError(f"threshold must be an integer in [0, {k}], got {threshold!r}")


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
    _check_tail_args(k, p, threshold)
    if threshold == 0:
        return 0.0
    return _log_sum_exp(_log_terms(k, p, threshold, k))


def log_binomial_tail_lower(k: int, p: float, threshold: int) -> float:
    """``log Pr[Bin(k, p) <= threshold]`` without underflow."""
    _check_tail_args(k, p, threshold)
    if threshold == k:
        return 0.0
    return _log_sum_exp(_log_terms(k, p, 0, threshold))


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
    _check_tail_args(k, p, 0)
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
