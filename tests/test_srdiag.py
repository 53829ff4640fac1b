"""Negative-dependence diagnostics: shrinking marginals, exact Doob
traces, binomial tails, reverse concentration and the Stirling floor."""

import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from corpus import (
    SMALL,
    diamond,
    doubled_triangle,
    parallel_pair,
    path_graph,
    random_connected_graph,
    triangle,
    weighted_k4,
    weighted_triangle,
)
from enumeration_oracle import enumerate_trees
from frame_oracle import pinv_power
from quotient_oracle import forests, quotient_marginals, quotient_trace
from treespark.graph import SizeGuardError, WeightedGraph, complete_graph, laplacian, ring_graph
from treespark.leverage import TransferCurrent, leverage_scores
from treespark.spectral import eig_sym, psd_leq
from treespark.srdiag import (
    TRACE_EDGE_CAP,
    _trace_frame,
    check_stirling_binom_lower,
    check_step_variance_bound,
    check_trace_bounds,
    default_reverse_chernoff_grid,
    log_binomial_tail,
    log_binomial_tail_lower,
    martingale_trace,
    reverse_chernoff_check,
    shrinking_marginals_suite,
    trace_dump,
    trace_for_ordering,
)


# ---------------------------------------------------------------------------
# Shrinking marginals
# ---------------------------------------------------------------------------


def test_shrinking_triangle_exhaustive():
    report = shrinking_marginals_suite(triangle())
    assert report.passed
    assert report.num_forests == 7  # empty, 3 singles, 3 pairs
    assert report.max_excess <= 1e-10


@pytest.mark.parametrize(
    "g",
    [weighted_triangle(), doubled_triangle(), diamond(), complete_graph(4), parallel_pair()],
)
def test_shrinking_small_graphs(g):
    report = shrinking_marginals_suite(g)
    assert report.passed
    assert report.max_excess <= 1e-10
    assert report.num_pairs > 0


def test_shrinking_report_arrays():
    report = shrinking_marginals_suite(triangle())
    assert report.conditional.shape == (report.num_forests, 3)
    assert report.num_pairs == sum(3 - len(forest) for forest in report.forests)
    forest, eid, cond, base = report.worst
    assert 0 <= eid < 3
    assert cond <= base + 1e-10
    assert cond == report.conditional[report.forests.index(forest), eid]


@pytest.mark.parametrize("g", [weighted_k4(), complete_graph(4), diamond()])
def test_shrinking_empty_forest_compares_equal(g):
    # Both sides of the comparison come from one transfer-current matrix,
    # so the empty forest shows no rounding gap as an excess.
    report = shrinking_marginals_suite(g)
    assert report.forests.count(()) == 1 and report.forests[0] == ()
    assert np.array_equal(report.conditional[0], TransferCurrent(g).marginals())


@pytest.mark.parametrize("g", [weighted_k4(), doubled_triangle(), parallel_pair()])
def test_shrinking_entries_match_quotient_oracle(g):
    report = shrinking_marginals_suite(g)
    states = {st.contracted: st for st in forests(g)}
    assert report.num_forests == len(states)
    for forest, cond in zip(report.forests, report.conditional):
        want = quotient_marginals(g, states[forest])
        for eid in sorted(set(range(g.m)) - set(forest)):
            assert abs(cond[eid] - want[eid]) <= 1e-12


# (n, extra edges, seed) of random weighted multigraphs with m = 7, 9, 10, 9.
SHRINKING_MULTIGRAPHS = [(4, 4, 1), (5, 5, 2), (6, 5, 3), (7, 3, 4)]


@pytest.mark.parametrize(
    "g",
    [g for _, g in SMALL if g.m <= 10]
    + [random_connected_graph(n, extra, seed) for n, extra, seed in SHRINKING_MULTIGRAPHS],
)
def test_shrinking_reduction_matches_the_pair_loop(g):
    # Reference: one strict `>` comparison per (forest, residual edge)
    # pair, forests in enumeration order and edges ascending.
    report = shrinking_marginals_suite(g)
    base = report.conditional[0]
    num_pairs, max_excess, worst = 0, -math.inf, ()
    for forest, cond in zip(report.forests, report.conditional):
        for eid in range(g.m):
            if eid in forest:
                continue
            num_pairs += 1
            excess = float(cond[eid] - base[eid])
            if excess > max_excess:
                max_excess = excess
                worst = (forest, eid, float(cond[eid]), float(base[eid]))
    assert (report.num_pairs, report.max_excess, report.worst) == (num_pairs, max_excess, worst)


def test_shrinking_nan_marginal_fails(monkeypatch):
    # A NaN on one non-empty forest must fail the suite, not drop out of
    # the comparison.
    marginals = TransferCurrent.marginals

    def poisoned(self):
        out = marginals(self)
        if self.contracted.tolist() == [True, False, False]:
            out[1] = math.nan
        return out

    monkeypatch.setattr(TransferCurrent, "marginals", poisoned)
    report = shrinking_marginals_suite(triangle())
    assert not report.passed
    assert math.isnan(report.max_excess)
    assert report.worst[:2] == ((0,), 1)


def test_shrinking_size_guard():
    with pytest.raises(SizeGuardError):
        shrinking_marginals_suite(complete_graph(6))  # m = 15


# ---------------------------------------------------------------------------
# Exact martingale traces
# ---------------------------------------------------------------------------


def _edge_matrix(g, eid):
    lev = leverage_scores(g)
    p = pinv_power(eig_sym(laplacian(g)), 0.5)
    u, v, w = g.edges[eid]
    x = math.sqrt(w / lev[eid]) * (p[u] - p[v])
    return np.outer(x, x)


def test_trace_on_tree_graph_is_flat():
    g = path_graph(5)
    tr = trace_for_ordering(g, (0, 1, 2, 3))
    assert max(tr.step_norms) <= 1e-9
    assert tr.variation_norms[-1] <= 1e-9
    assert check_trace_bounds(tr)


def test_triangle_trace_frozen_by_hand():
    # Unit triangle, any tree, any order.  Conditioning on the first
    # revealed edge splits the remaining two marginals 1/2, 1/2, and the
    # resulting increments have norms 1/4 then sqrt(3)/4, with
    # variation norms 1/16 then 1/4.
    g = triangle()
    for tree in ((0, 1), (0, 2), (1, 2)):
        for order in itertools.permutations(tree):
            tr = trace_for_ordering(g, order)
            assert tr.step_norms[0] == pytest.approx(0.25, abs=1e-10)
            assert tr.step_norms[1] == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-10)
            assert tr.variation_norms[0] == pytest.approx(1.0 / 16.0, abs=1e-10)
            assert tr.variation_norms[1] == pytest.approx(0.25, abs=1e-10)
            assert check_trace_bounds(tr)


def test_trace_endpoints():
    # M_0 is the identity of the whitened frame; M_k is the sum of the
    # revealed normalised edge matrices, which the L^+1/2 frame carries
    # to the same nonzero spectrum.
    g = weighted_triangle()
    tr = trace_for_ordering(g, (0, 2))
    assert np.abs(tr.cond_expectations[0] - np.eye(2)).max() <= 1e-9
    want = np.linalg.eigvalsh(_edge_matrix(g, 0) + _edge_matrix(g, 2))
    got = np.linalg.eigvalsh(tr.cond_expectations[-1])
    assert abs(want[0]) <= 1e-9
    assert np.abs(got - want[1:]).max() <= 1e-9
    assert tr.frame_norm == pytest.approx(1.0, abs=1e-9)
    assert tr.max_edge_norm == pytest.approx(1.0, abs=1e-9)


def test_exhaustive_orderings_all_bounds():
    # Every tree and every reveal order of four small graphs.
    for g in (triangle(), doubled_triangle(), diamond(), complete_graph(4)):
        table = enumerate_trees(g)
        for ids in table.trees:
            for order in itertools.permutations(ids):
                tr = trace_for_ordering(g, order)
                assert max(tr.zero_mean_residuals) <= 1e-9
                assert check_trace_bounds(tr)


def test_variation_monotone_in_psd_order():
    g = complete_graph(5)
    for seed in range(5):
        tr = martingale_trace(g, seed)
        # The running predictable quadratic variation, step by step.
        variations = np.cumsum(tr.second_moments, axis=0)
        prev = np.zeros_like(variations[0])
        for w in variations:
            assert psd_leq(prev, w).holds
            prev = w


def test_k5_traces_bounded_increments():
    g = complete_graph(5)
    worst = 0.0
    for seed in range(50):
        tr = martingale_trace(g, seed)
        assert check_trace_bounds(tr)
        worst = max(worst, max(tr.step_norms))
    assert worst <= 1.0 + 1e-8


def test_k4_traces_variance_and_cumulative():
    g = complete_graph(4)
    for seed in range(100):
        tr = martingale_trace(g, seed)
        assert check_step_variance_bound(tr)
        assert tr.variation_norms[-1] <= tr.cumulative_bound() + 1e-6


def test_weighted_and_parallel_traces():
    for g in (weighted_triangle(), weighted_k4(), doubled_triangle(), parallel_pair()):
        for seed in range(20):
            assert check_trace_bounds(martingale_trace(g, seed))


def test_trace_deterministic():
    g = complete_graph(6)
    a = martingale_trace(g, 12)
    b = martingale_trace(g, 12)
    assert a.ordering == b.ordering
    assert a.step_norms == b.step_norms


def test_trace_checks_run_no_eigensolve(monkeypatch):
    # Every norm the checks read comes from the trace's one batched pass.
    tr = martingale_trace(complete_graph(5), 4)
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert check_trace_bounds(tr)
    assert len(calls) == 0


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(5),
        weighted_k4(),
        WeightedGraph(
            5,
            ((0, 1, 1.0), (0, 1, 2.5), (1, 2, 1.0), (2, 3, 0.7), (3, 4, 1.0), (4, 0, 2.0), (2, 4, 1.3), (2, 4, 0.4)),
        ),
    ],
    ids=["k5", "weighted_k4", "multigraph"],
)
def test_trace_matches_quotient_oracle(g):
    for seed in range(6):
        tr = martingale_trace(g, seed)
        want = quotient_trace(g, tr.ordering)
        expects = want.pop("cond_expectations")
        for field, values in want.items():
            assert np.abs(np.array(getattr(tr, field)) - np.array(values)).max() <= 1e-12, field
        # The oracle's n x n frame carries one extra eigenvalue, 0 on the
        # all-ones vector; the rest must match the library's (n-1) x (n-1).
        got = np.linalg.eigvalsh(np.array(tr.cond_expectations))
        vals = np.linalg.eigvalsh(np.array(expects))
        assert np.abs(vals[:, 0]).max() <= 1e-12
        assert np.abs(got - vals[:, 1:]).max() <= 1e-12


def test_trace_rejects_bad_orderings():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        trace_for_ordering(g, (0, 1, 3))  # closes a cycle, marginal zero
    with pytest.raises(ValueError):
        trace_for_ordering(g, (0, 1))  # too short
    with pytest.raises(ValueError):
        trace_for_ordering(g, (0, 0, 1))  # repeats an edge
    with pytest.raises(ValueError):
        trace_for_ordering(g, (0, 1, 99))  # names no edge of g


def test_trace_size_guard():
    with pytest.raises(SizeGuardError):
        martingale_trace(ring_graph(13), 0)
    # Parallel edges pass the vertex cap; the edge cap trips before the
    # m x m transfer-current matrix or the cached frame is built.
    fat = WeightedGraph(3, [(0, 1, 1.0)] * TRACE_EDGE_CAP + [(1, 2, 1.0)])
    misses = _trace_frame.cache_info().misses
    with pytest.raises(SizeGuardError, match=f"got m = {TRACE_EDGE_CAP + 1}"):
        trace_for_ordering(fat, (0, TRACE_EDGE_CAP))
    assert _trace_frame.cache_info().misses == misses


def test_trace_frame_is_built_once_per_graph(monkeypatch):
    # The frame costs two eigensolves (edge norms, frame norm) and each
    # trace one more, its batched pass over every step's norms.
    g, seeds = complete_graph(6), 5
    _trace_frame.cache_clear()
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for seed in range(seeds):
        martingale_trace(g, seed)
    assert len(calls) == 2 + seeds


def test_trace_frame_arrays_refuse_writes():
    frame = _trace_frame(weighted_k4())
    arrays = (frame.lev, frame.flat, frame.expect_0, frame.tc.y, frame.tc.ends, frame.tc.contracted)
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]


def test_traces_do_not_depend_on_earlier_traces():
    # Alternating two graphs evicts the one-slot frame cache at every
    # call; each trace must equal one taken from an empty cache.
    multi = WeightedGraph(5, ((0, 1, 1.0), (0, 1, 2.5), (1, 2, 1.0), (2, 3, 0.7), (3, 4, 1.0), (4, 0, 2.0), (2, 4, 1.3)))
    graphs = (complete_graph(6), multi)
    alternating = [martingale_trace(graphs[seed % 2], seed) for seed in range(8)]
    for seed, trace in enumerate(alternating):
        _trace_frame.cache_clear()
        fresh = martingale_trace(graphs[seed % 2], seed)
        for name in trace.__dataclass_fields__:
            assert np.array_equal(getattr(trace, name), getattr(fresh, name)), name


def _with_nan(trace, field, index):
    values = list(getattr(trace, field))
    values[index] = math.nan
    return dataclasses.replace(trace, **{field: tuple(values)})


@pytest.mark.parametrize(
    "field,index",
    [("step_norms", 0), ("zero_mean_residuals", 0), ("variation_norms", -1), ("cond_mean_norms", 1)],
)
def test_a_nan_norm_fails_the_trace_verdict(field, index):
    trace = martingale_trace(complete_graph(6), 0)
    assert check_trace_bounds(trace)
    assert not check_trace_bounds(_with_nan(trace, field, index))


@pytest.mark.parametrize(
    "field,index,step,bound",
    [("step_norms", 0, 1, "increment_range"), ("variation_norms", -1, 5, "cumulative")],
)
def test_a_nan_norm_is_the_worst_margin(field, index, step, bound):
    # The k:6 seed-0 trace's finite cumulative margin is 15.48.
    trace = _with_nan(martingale_trace(complete_graph(6), 0), field, index)
    margin, got_step, got_bound = trace.worst_margin()
    assert math.isnan(margin) and (got_step, got_bound) == (step, bound)


def test_trace_dump_format():
    g = complete_graph(4)
    tr = martingale_trace(g, 3)
    dump = trace_dump(tr)
    lines = dump.strip().split("\n")
    assert len(lines) == tr.k + 1
    envelopes = []
    for i, line in enumerate(lines[:-1], start=1):
        parts = line.split()
        assert int(parts[0]) == i
        envelopes.append(float(parts[3]))
    assert envelopes == sorted(envelopes)
    summary = json.loads(lines[-1])
    assert summary["passed"] is True
    assert summary["k"] == tr.k


def test_trace_dump_reports_a_nan_step_norm_after_finite_ones():
    # Python's max skips a NaN that is not first and dumped 0.7478655730915478.
    trace = _with_nan(martingale_trace(complete_graph(6), 0), "step_norms", 1)
    summary = json.loads(trace_dump(trace).strip().split("\n")[-1])
    assert math.isnan(summary["max_step_norm"])
    assert summary["passed"] is False


# ---------------------------------------------------------------------------
# Binomial tails
# ---------------------------------------------------------------------------


def test_binomial_tail_frozen_small():
    assert math.exp(log_binomial_tail(2, 0.5, 1)) == pytest.approx(0.75, abs=1e-15)
    assert math.exp(log_binomial_tail(2, 0.5, 2)) == pytest.approx(0.25, abs=1e-15)
    assert math.exp(log_binomial_tail(2, 0.5, 0)) == 1.0
    assert math.exp(log_binomial_tail_lower(2, 0.5, 2)) == 1.0
    assert math.exp(log_binomial_tail_lower(2, 0.5, 0)) == pytest.approx(0.25, abs=1e-15)


def test_binomial_tail_exact_rational_oracle():
    # Exact Fraction arithmetic over the float's true binary value.
    for k in (1, 5, 12, 23, 40, 64):
        for p in (0.5, 0.25, 0.1, 0.01):
            pf = Fraction(p)
            for threshold in {0, 1, k // 2, k - 1, k}:
                if threshold < 0 or threshold > k:
                    continue
                exact_upper = sum(
                    Fraction(math.comb(k, i)) * pf**i * (1 - pf) ** (k - i)
                    for i in range(threshold, k + 1)
                )
                got = math.exp(log_binomial_tail(k, p, threshold))
                assert abs(got - float(exact_upper)) <= 1e-12
                exact_lower = sum(
                    Fraction(math.comb(k, i)) * pf**i * (1 - pf) ** (k - i)
                    for i in range(0, threshold + 1)
                )
                got_lower = math.exp(log_binomial_tail_lower(k, p, threshold))
                assert abs(got_lower - float(exact_lower)) <= 1e-12


def test_binomial_tails_complementary():
    for k, p in ((10, 0.5), (30, 0.2), (64, 0.01)):
        for threshold in range(1, k + 1):
            upper = math.exp(log_binomial_tail(k, p, threshold))
            total = upper + math.exp(log_binomial_tail_lower(k, p, threshold - 1))
            assert total == pytest.approx(1.0, abs=1e-12)


def test_binomial_tail_deep_log_space():
    lo = log_binomial_tail(5000, 0.01, 3000)
    assert math.isfinite(lo)
    assert lo < -1000.0
    assert math.exp(log_binomial_tail(5000, 0.01, 3000)) == 0.0  # underflows cleanly
    assert log_binomial_tail_lower(5000, 0.5, 0) < -3000.0


def test_binomial_tail_query_validation():
    bad = [(0, 0.5, 0), (10, 0.0, 5), (10, 0.6, 5), (10, 0.5, -1), (10, 0.5, 11), (10, 0.5, 5.5)]
    for tail in (log_binomial_tail, log_binomial_tail_lower):
        assert math.isfinite(tail(10, 0.5, 5))
        for k, p, threshold in bad:
            with pytest.raises(ValueError):
                tail(k, p, threshold)


# ---------------------------------------------------------------------------
# Reverse concentration and the Stirling floor
# ---------------------------------------------------------------------------


def test_reverse_chernoff_reference_points():
    assert reverse_chernoff_check(1000, 0.1, 0.2) is True
    assert reverse_chernoff_check(300, 0.5, 0.5) is True


def test_reverse_chernoff_hypothesis_guard():
    with pytest.raises(ValueError):
        reverse_chernoff_check(100, 0.3, 0.3)  # eps^2 p k = 2.7 < 3
    with pytest.raises(ValueError):
        reverse_chernoff_check(1000, 0.1, 0.6)  # eps above 1/2
    with pytest.raises(ValueError):
        reverse_chernoff_check(1000, 0.7, 0.2)  # p above 1/2
    with pytest.raises(ValueError):
        reverse_chernoff_check(1000, 0.1, 0.0)


def test_default_grid_is_large_and_admissible():
    grid = default_reverse_chernoff_grid()
    assert len(grid) >= 200
    assert len(set(grid)) == len(grid)
    for k, p, eps in grid:
        assert eps * eps * p * k >= 3.0
        assert 0.0 < p <= 0.5 and 0.0 < eps <= 0.5


def test_reverse_chernoff_spot_grid():
    grid = default_reverse_chernoff_grid()
    for triple in grid[:: max(1, len(grid) // 20)]:
        assert reverse_chernoff_check(*triple)


def test_stirling_floor_small_cases():
    assert check_stirling_binom_lower(2, 1)
    # independent numeric check at (10, 5): floor = 2^10 / (e sqrt(10 pi))
    floor = 1024.0 / (math.e * math.sqrt(10.0 * math.pi))
    assert math.comb(10, 5) >= floor
    assert check_stirling_binom_lower(10, 5)


def test_stirling_floor_exhaustive_to_60():
    for k in range(2, 61):
        for l in range(1, k):
            assert check_stirling_binom_lower(k, l), (k, l)


def test_stirling_floor_rejects_degenerate():
    with pytest.raises(ValueError):
        check_stirling_binom_lower(5, 0)
    with pytest.raises(ValueError):
        check_stirling_binom_lower(5, 5)
    with pytest.raises(ValueError):
        check_stirling_binom_lower(5, 2.5)
