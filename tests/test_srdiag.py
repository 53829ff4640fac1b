"""Negative-dependence diagnostics: shrinking marginals, exact Doob
traces, binomial tails, reverse concentration and the Stirling floor."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from corpus import (
    diamond,
    doubled_triangle,
    parallel_pair,
    path_graph,
    triangle,
    weighted_k4,
    weighted_triangle,
)
from enumeration_oracle import enumerate_trees
from frame_oracle import pinv_power
from quotient_oracle import forests, quotient_marginals, quotient_trace
from treespark.graph import SizeGuardError, WeightedGraph, complete_graph, laplacian, ring_graph
from treespark.leverage import leverage_scores
from treespark.spectral import eig_sym, psd_leq
from treespark.srdiag import (
    BinomialTailQuery,
    binomial_tail,
    binomial_tail_lower,
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


def test_shrinking_keep_entries():
    report = shrinking_marginals_suite(triangle(), keep_entries=True)
    assert len(report.entries) == report.num_pairs
    forest, eid, cond, base = report.worst
    assert 0 <= eid < 3
    assert cond <= base + 1e-10


@pytest.mark.parametrize("g", [weighted_k4(), complete_graph(4), diamond()])
def test_shrinking_empty_forest_compares_equal(g):
    # Both sides of the comparison come from one transfer-current matrix,
    # so the empty forest shows no rounding gap as an excess.
    report = shrinking_marginals_suite(g, keep_entries=True)
    empty = [(cond, base) for forest, _, cond, base in report.entries if not forest]
    assert len(empty) == g.m
    assert all(cond == base for cond, base in empty)


@pytest.mark.parametrize("g", [weighted_k4(), doubled_triangle(), parallel_pair()])
def test_shrinking_entries_match_quotient_oracle(g):
    report = shrinking_marginals_suite(g, keep_entries=True)
    states = {st.contracted: st for st in forests(g)}
    assert report.num_forests == len(states)
    for forest, eid, cond, _ in report.entries:
        assert abs(cond - quotient_marginals(g, states[forest])[eid]) <= 1e-12


def test_shrinking_size_guard():
    with pytest.raises(SizeGuardError):
        shrinking_marginals_suite(complete_graph(6))  # m = 15


# ---------------------------------------------------------------------------
# Exact martingale traces
# ---------------------------------------------------------------------------


def _edge_matrix(g, eid):
    lev = leverage_scores(g).values
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
        prev = np.zeros_like(tr.variations[0])
        for w in tr.variations:
            assert psd_leq(prev, w, tol=1e-9).holds
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
        for field, values in want.items():
            assert np.abs(np.array(getattr(tr, field)) - np.array(values)).max() <= 1e-12, field


def test_trace_rejects_bad_orderings():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        trace_for_ordering(g, (0, 1, 3))  # closes a cycle, marginal zero
    with pytest.raises(ValueError):
        trace_for_ordering(g, (0, 1))  # too short
    with pytest.raises(ValueError):
        trace_for_ordering(g, (0, 0, 1))  # repeats an edge


def test_trace_size_guard():
    with pytest.raises(SizeGuardError):
        martingale_trace(ring_graph(13), 0)


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


# ---------------------------------------------------------------------------
# Binomial tails
# ---------------------------------------------------------------------------


def test_binomial_tail_frozen_small():
    assert binomial_tail(2, 0.5, 1) == pytest.approx(0.75, abs=1e-15)
    assert binomial_tail(2, 0.5, 2) == pytest.approx(0.25, abs=1e-15)
    assert binomial_tail(2, 0.5, 0) == 1.0
    assert binomial_tail_lower(2, 0.5, 2) == 1.0
    assert binomial_tail_lower(2, 0.5, 0) == pytest.approx(0.25, abs=1e-15)


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
                got = binomial_tail(k, p, threshold)
                assert abs(got - float(exact_upper)) <= 1e-12
                exact_lower = sum(
                    Fraction(math.comb(k, i)) * pf**i * (1 - pf) ** (k - i)
                    for i in range(0, threshold + 1)
                )
                got_lower = binomial_tail_lower(k, p, threshold)
                assert abs(got_lower - float(exact_lower)) <= 1e-12


def test_binomial_tails_complementary():
    for k, p in ((10, 0.5), (30, 0.2), (64, 0.01)):
        for threshold in range(1, k + 1):
            total = binomial_tail(k, p, threshold) + binomial_tail_lower(
                k, p, threshold - 1
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def test_binomial_tail_deep_log_space():
    lo = log_binomial_tail(5000, 0.01, 3000)
    assert math.isfinite(lo)
    assert lo < -1000.0
    assert binomial_tail(5000, 0.01, 3000) == 0.0  # underflows cleanly
    assert log_binomial_tail_lower(5000, 0.5, 0) < -3000.0


def test_binomial_tail_query_validation():
    BinomialTailQuery(10, 0.5, 5)
    with pytest.raises(ValueError):
        BinomialTailQuery(0, 0.5, 0)
    with pytest.raises(ValueError):
        BinomialTailQuery(10, 0.0, 5)
    with pytest.raises(ValueError):
        BinomialTailQuery(10, 0.6, 5)
    with pytest.raises(ValueError):
        BinomialTailQuery(10, 0.5, -1)
    with pytest.raises(ValueError):
        BinomialTailQuery(10, 0.5, 11)
    with pytest.raises(ValueError):
        BinomialTailQuery(10, 0.5, 5.5)


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
