"""End-to-end acceptance gates.

Each test covers one numbered criterion and prints exactly one
``ACCEPTANCE <nn> <name>: PASS/FAIL`` line (run pytest with ``-s`` to
see the lines as they happen; without it they appear in captured
output).  Tolerances are part of the contract and are asserted
literally.
"""

import contextlib
import itertools
import math

import mpmath
import numpy as np

from corpus import SHRINKING, SMALL, TRACE, random_connected_graph
from enumeration_oracle import enumerate_trees
from treespark.experiments import (
    clique_leverage_value,
    degree_reference_pmf,
    run_degree_dist,
    run_multi_tree_lower,
    run_single_tree_upper,
    run_sum_trees,
)
from treespark.graph import (
    clique_star,
    complete_graph,
    erdos_renyi_connected,
    philox_stream,
    ring_graph,
)
from treespark.leverage import leverage_scores
from treespark.spectral import psd_leq
from treespark.srdiag import (
    default_reverse_chernoff_grid,
    log_binomial_tail,
    log_binomial_tail_lower,
    martingale_trace,
    reverse_chernoff_check,
    shrinking_marginals_suite,
)
from treespark.treesample import tree_edge_counts


@contextlib.contextmanager
def criterion(num: int, name: str):
    record = {"detail": ""}
    try:
        yield record
    except BaseException as exc:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL [{type(exc).__name__}: {exc}]", flush=True)
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS {record['detail']}".rstrip(), flush=True)


def test_criterion_01_marginal_law_oracle_equivalence():
    with criterion(1, "marginal-law oracle equivalence") as rec:
        worst_exact = 0.0
        worst_sigma_units = 0.0
        samples = 200000
        for i in range(20):
            n = 3 + i % 4
            extra = min(10 - (n - 1), 2 + i % 3)
            g = random_connected_graph(n, extra, seed=1000 + i)
            assert g.m <= 10
            lev = leverage_scores(g)
            enum_gap = float(np.abs(enumerate_trees(g).marginals() - lev).max())
            worst_exact = max(worst_exact, enum_gap)
            assert enum_gap <= 1e-10
            freqs = tree_edge_counts(g, philox_stream(2000 + i), samples) / samples
            for eid in range(g.m):
                variance = max(float(lev[eid] * (1.0 - lev[eid])), 0.0)
                sigma = math.sqrt(variance / samples)
                gap = abs(float(freqs[eid]) - float(lev[eid]))
                assert gap <= 4.0 * sigma + 1e-9
                if sigma > 0:
                    worst_sigma_units = max(worst_sigma_units, gap / sigma)
        rec["detail"] = (
            f"[20 graphs; max enumeration gap {worst_exact:.2e}; "
            f"worst sampled deviation {worst_sigma_units:.2f} sigma]"
        )


def test_criterion_02_foster_identity():
    with criterion(2, "leverage sums to n-1") as rec:
        worst = 0.0
        checked = 0
        graphs = [g for _, g in SMALL]
        graphs.append(ring_graph(64))
        graphs.append(erdos_renyi_connected(40, 0.2, seed=7))
        graphs.append(complete_graph(500))
        for g in graphs:
            total = math.fsum(leverage_scores(g).tolist())
            worst = max(worst, abs(total - (g.n - 1)))
            assert abs(total - (g.n - 1)) <= 1e-8
            checked += 1
        # The 9901-vertex clique-star stays out of dense-solve territory:
        # every edge's score equals the one-clique value, so the sum is
        # m times it.
        big = clique_star(100, 100)
        total = big.m * clique_leverage_value(100)
        worst = max(worst, abs(total - (big.n - 1)))
        assert abs(total - (big.n - 1)) <= 1e-8
        checked += 1
        rec["detail"] = f"[{checked} graphs; worst deviation {worst:.2e}]"


def test_criterion_03_shrinking_marginals_exhaustive():
    with criterion(3, "conditional marginals never grow") as rec:
        pairs = 0
        worst = -math.inf
        for name, g in SHRINKING:
            report = shrinking_marginals_suite(g)
            assert report.passed, name
            assert report.max_excess <= 1e-10
            pairs += report.num_pairs
            worst = max(worst, report.max_excess)
        rec["detail"] = f"[{len(SHRINKING)} graphs, {pairs} pairs; max excess {worst:.2e}]"


def test_criterion_04_martingale_machinery():
    with criterion(4, "exact Doob trace bounds") as rec:
        total = 200
        worst_step = 0.0
        worst_resid = 0.0
        for i in range(total):
            _, g = TRACE[i % len(TRACE)]
            tr = martingale_trace(g, 9000 + i)
            k = tr.k
            worst_resid = max(worst_resid, max(tr.zero_mean_residuals))
            assert max(tr.zero_mean_residuals) <= 1e-8
            worst_step = max(worst_step, max(tr.step_norms))
            assert max(tr.step_norms) <= 1.0 + 1e-8
            for step, second in enumerate(tr.second_moments, start=1):
                top = float(np.linalg.eigvalsh(second)[-1])
                assert top <= 4.0 / (k + 1 - step) + 1e-8
            assert tr.variation_norms[-1] <= 10.0 * math.log(k) + 1e-6
        rec["detail"] = (
            f"[{total} traces on {len(TRACE)} graphs; max step norm {worst_step:.4f}; "
            f"max zero-mean residual {worst_resid:.2e}]"
        )


def test_criterion_05_single_tree_envelope_k500():
    with criterion(5, "single-tree spectral ceiling on K_500") as rec:
        report = run_single_tree_upper(complete_graph(500), trials=50, base_seed=777)
        envelope = 100.0 * math.log(500)
        assert report.results["passed"]
        assert report.results["max_lambda"] <= envelope
        assert report.results["median_lambda"] <= 3.0 * math.log(500)
        rec["detail"] = (
            f"[max {report.results['max_lambda']:.3f} <= {envelope:.1f}; "
            f"median {report.results['median_lambda']:.3f} <= {3.0 * math.log(500):.2f}]"
        )


def test_criterion_06_tree_average_sparsifies_k200():
    with criterion(6, "averaged trees certify K_200 at eps=0.5") as rec:
        report = run_sum_trees(
            complete_graph(200), eps=0.5, trials=10, base_seed=888, c_mult=1.0
        )
        assert report.results["t"] == 113
        assert report.results["pass_fraction"] >= 0.9
        lo = min(l for l, _ in report.results["extremes"])
        hi = max(h for _, h in report.results["extremes"])
        rec["detail"] = (
            f"[t=113, pass fraction {report.results['pass_fraction']:.2f}; extremes in "
            f"({lo:.3f}, {hi:.3f})]"
        )


def test_criterion_07_few_trees_violate_cliquestar_degrees():
    with criterion(7, "few-tree averages fail on the clique-star") as rec:
        report = run_multi_tree_lower(100, 100, eps=0.4, trials=20, base_seed=999)
        assert report.results["t"] == 2
        assert report.results["eps_window_ok"]
        assert abs(report.results["leverage_value"] - 0.02) <= 1e-12
        assert report.results["violation_fraction"] >= 0.95
        rec["detail"] = (
            f"[n={report.n}, t=2; violation fraction {report.results['violation_fraction']:.2f}; "
            f"leverage via {report.results['leverage_method'].split('(')[0].strip()}]"
        )


def test_criterion_08_degree_law():
    with criterion(8, "tree degree law matches 1+Binomial") as rec:
        # exhaustive check at n=3 first
        table = enumerate_trees(complete_graph(3))
        law = [0.0, 0.0]
        for ids, prob in zip(table.trees, table.probabilities):
            deg = sum(1 for eid in ids if eid < 2)
            law[deg - 1] += float(prob)
        pmf = degree_reference_pmf(3)
        assert max(abs(a - b) for a, b in zip(law, pmf)) <= 1e-14
        report = run_degree_dist(50, samples=200000, base_seed=555)
        assert report.results["tv_distance"] <= 0.01
        assert report.results["passed"]
        rec["detail"] = f"[n=3 exact; n=50 TV {report.results['tv_distance']:.5f} <= 0.01]"


def _mp_binomial_upper_tail(k: int, p, threshold: int):
    """Pr[Bin(k, p) >= threshold] by direct high-precision summation."""
    if threshold <= 0:
        return mpmath.mpf(1)
    q = 1 - p
    term = mpmath.binomial(k, threshold) * p**threshold * q ** (k - threshold)
    acc = mpmath.mpf(0)
    i = threshold
    while i <= k:
        acc += term
        if term < acc * mpmath.mpf("1e-40") and i > k * p:
            break
        term = term * (k - i) / (i + 1) * p / q
        i += 1
    return acc


def _mp_binomial_lower_tail(k: int, p, threshold: int):
    """Pr[Bin(k, p) <= threshold] by direct high-precision summation."""
    if threshold >= k:
        return mpmath.mpf(1)
    q = 1 - p
    term = mpmath.binomial(k, threshold) * p**threshold * q ** (k - threshold)
    acc = mpmath.mpf(0)
    i = threshold
    while i >= 0:
        acc += term
        if term < acc * mpmath.mpf("1e-40") and i < k * p:
            break
        term = term * i / (k - i + 1) * q / p
        i -= 1
    return acc


def test_criterion_09_reverse_chernoff_grid():
    with criterion(9, "anti-concentration floor on binomial tails") as rec:
        grid = default_reverse_chernoff_grid()
        assert len(grid) >= 200
        mpmath.mp.dps = 50
        worst_margin = math.inf
        for k, p, eps in grid:
            assert reverse_chernoff_check(k, p, eps)
            # independent exact-summation oracle for both tails
            mu = p * k
            up = math.ceil((1.0 + eps) * mu - 1e-9)
            lo = math.floor((1.0 - eps) * mu + 1e-9)
            floor_log = -9.0 * eps * eps * mu
            pm = mpmath.mpf(p)
            upper = _mp_binomial_upper_tail(k, pm, up)
            lower = _mp_binomial_lower_tail(k, pm, lo)
            log_upper = float(mpmath.log(upper))
            log_lower = float(mpmath.log(lower))
            assert log_upper >= floor_log
            assert log_lower >= floor_log
            worst_margin = min(worst_margin, log_upper - floor_log, log_lower - floor_log)
            # and the library's log-space tails agree with the oracle
            assert abs(log_binomial_tail(k, p, up) - log_upper) <= 1e-8 * max(
                1.0, abs(log_upper)
            )
            assert abs(log_binomial_tail_lower(k, p, lo) - log_lower) <= 1e-8 * max(
                1.0, abs(log_lower)
            )
        rec["detail"] = (
            f"[{len(grid)} triples, both tails; slimmest log margin {worst_margin:.2f}]"
        )


def test_criterion_10_matrix_square_triangle():
    with criterion(10, "(A-B)^2 below 2A^2+2B^2") as rec:
        gen = np.random.Generator(np.random.Philox(4242))
        dims = itertools.cycle(range(2, 17))
        worst_gap = math.inf
        for _ in range(1000):
            dim = next(dims)
            a = gen.uniform(-1.0, 1.0, (dim, dim))
            b = gen.uniform(-1.0, 1.0, (dim, dim))
            a = (a + a.T) / 2.0
            b = (b + b.T) / 2.0
            diff = a - b
            verdict = psd_leq(diff @ diff, 2.0 * a @ a + 2.0 * b @ b)
            assert verdict.holds
            assert verdict.witness_gap >= -1e-9
            worst_gap = min(worst_gap, verdict.witness_gap)
        rec["detail"] = f"[1000 pairs, dim <= 16; smallest witness gap {worst_gap:.2e}]"
