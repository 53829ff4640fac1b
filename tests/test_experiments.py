"""Experiment harness reports: envelopes, sparsifier gates, lower-bound
constructions, degree law and reproducibility."""

import importlib.util
import itertools
import json
import math
import os
import pickle
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from corpus import SMALL, path_graph, random_connected_graph, slow_walk_graph, weighted_k4
from enumeration_oracle import enumerate_trees
from frame_oracle import eig_frame
from treespark import experiments, leverage, spectral, srdiag, treesample
from treespark.experiments import (
    _pencil_check,
    _sum_trees_trial,
    clique_leverage_value,
    degree_reference_pmf,
    run_degree_dist,
    run_multi_tree_lower,
    run_single_tree_lower,
    run_single_tree_upper,
    run_sum_trees,
    write_extremes_csv,
)
from treespark.graph import (
    SizeGuardError,
    clique_star,
    complete_graph,
    laplacian,
    philox_stream,
    ring_graph,
)
from treespark.leverage import laplacian_frame, leverage_scores
from treespark.spectral import eig_sym, normalized_pencil
from treespark.srdiag import log_binomial_tail
from treespark.treesample import (
    _wilson_edge_ids,
    average_trees,
    reweight_tree,
    sample_tree_stream,
    tree_edge_counts,
)


def _without_wallclock(report) -> dict:
    return {key: value for key, value in report.items() if key != "wallclock_sec"}


# ---------------------------------------------------------------------------
# Single tree upper envelope
# ---------------------------------------------------------------------------


def test_single_tree_upper_on_tree_graph():
    report = run_single_tree_upper(path_graph(6), trials=4, base_seed=0)
    for lo, hi in report["extremes"]:
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)
    assert report["passed"]
    assert report["envelope"] == pytest.approx(100.0 * math.log(6))


def test_single_tree_upper_ring_recorded():
    report = run_single_tree_upper(ring_graph(100), trials=50, base_seed=1)
    assert report["passed"]  # envelope 100 ln 100 is generous at this size
    assert report["max_lambda"] > 1.0
    assert report["median_lambda"] <= report["max_lambda"]
    assert report["empirical_constant"] == pytest.approx(
        report["max_lambda"] / math.log(100)
    )
    assert len(report["extremes"]) == 50


def test_single_tree_upper_json_round_trip():
    report = run_single_tree_upper(complete_graph(8), trials=3, base_seed=2)
    payload = json.dumps(report)
    assert json.loads(payload)["kind"] == "single_tree_upper"
    assert json.loads(payload)["config"]["ln_n"] == pytest.approx(math.log(8))
    assert json.loads(payload)["config"]["log2_n"] == pytest.approx(math.log2(8))


# ---------------------------------------------------------------------------
# Averaged trees
# ---------------------------------------------------------------------------


def test_sum_trees_tree_graph_exact():
    report = run_sum_trees(path_graph(5), eps=0.1, trials=3, base_seed=0, t=1)
    assert report["pass_fraction"] == 1.0
    for lo, hi in report["extremes"]:
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)


def test_sum_trees_single_tree_cannot_approximate_k200():
    report = run_sum_trees(complete_graph(200), eps=0.5, trials=10, base_seed=3, t=1)
    assert report["pass_fraction"] == 0.0
    assert not report["passed"]


@pytest.mark.parametrize("n", [100, 400, 1000])
def test_single_ring_tree_has_exact_pencil_extremes(n):
    # Every spanning tree of a ring drops one edge of leverage (n-1)/n, so
    # an inverse-leverage tree is n/(n-1) (L_G - L_e) and its pencil
    # extremes are exactly (1/(n-1), n/(n-1)).
    report = run_single_tree_upper(ring_graph(n), trials=2, base_seed=0)
    want = (1.0 / (n - 1), n / (n - 1.0))
    for extremes in report["extremes"]:
        for got, exact in zip(extremes, want):
            assert abs(got - exact) <= 1e-11 * exact


def test_sum_trees_default_t_formula():
    report = run_sum_trees(complete_graph(16), eps=0.5, trials=2, base_seed=4)
    assert report["t"] == math.ceil(0.5**-2 * math.log(16) ** 2)
    assert report["c_mult"] == 1.0
    assert report["config"]["range_per_tree"] == pytest.approx(1.0 / report["t"])
    # An explicit t leaves c_mult unused, so it is not reported.
    g = complete_graph(6)
    assert run_sum_trees(g, 0.5, 2, 0, t=4)["c_mult"] is None
    assert run_sum_trees(g, 0.5, 2, 0, c_mult=3.0, t=4)["c_mult"] is None
    # the desk-scale reference instance resolves to t = 113
    assert math.ceil(1.0 * 0.5**-2 * math.log(200) ** 2) == 113


@pytest.mark.parametrize("eps,c_mult", [(1e-200, 1.0), (0.01, 1e308)])
def test_sum_trees_rejects_a_t_that_is_not_finite(eps, c_mult, monkeypatch):
    # eps**-2 overflows in the first case, ceil(inf) in the second; both
    # are refused before L_G is factored.
    calls = _count_eig_sym(monkeypatch)
    with pytest.raises(ValueError, match=r"not finite for eps = .*, c_mult = "):
        run_sum_trees(complete_graph(10), eps=eps, trials=1, base_seed=0, c_mult=c_mult)
    assert calls == []
    assert laplacian_frame.cache_info().misses == 0


def test_sum_trees_caps_tree_slots(monkeypatch):
    # t trees of n - 1 edges: 5 * 4 = 20 slots fit the cap, 6 * 4 do not
    # and are refused before L_G is factored.
    monkeypatch.setattr(experiments, "MAX_TREE_SLOTS", 20)
    calls = _count_eig_sym(monkeypatch)
    g = complete_graph(5)
    with pytest.raises(ValueError, match=r"t = 6 trees on n = 5 .* MAX_TREE_SLOTS = 20 "):
        run_sum_trees(g, eps=0.5, trials=1, base_seed=0, t=6)
    assert calls == []
    assert laplacian_frame.cache_info().misses == 0
    assert run_sum_trees(g, eps=0.5, trials=1, base_seed=0, t=5)["t"] == 5


def test_multi_tree_lower_caps_tree_slots(monkeypatch):
    # cliquestar:1,4 has n = 4: 10 trees of 3 edges exceed a cap of 20.
    monkeypatch.setattr(experiments, "MAX_TREE_SLOTS", 20)
    with pytest.raises(ValueError, match=r"t = 10 trees on n = 4 .* MAX_TREE_SLOTS = 20 "):
        run_multi_tree_lower(1, 4, eps=0.4, trials=1, base_seed=0, t=10)


@pytest.mark.parametrize(
    "g", [complete_graph(200), random_connected_graph(24, 30, seed=2)], ids=["k200", "multigraph"]
)
def test_walk_step_cap_reads_the_expected_steps_of_one_tree(g, monkeypatch):
    # Wilson's walk from root 0 expects sum_v d_v R_eff(v, 0) steps, and
    # R_eff(v, 0) is the diagonal of the inverse grounded Laplacian; one
    # tree fits a cap just above that and not one just below.
    want = g.weighted_degrees()[1:] @ np.diag(np.linalg.inv(laplacian(g)[1:, 1:]))
    monkeypatch.setattr(experiments, "MAX_WALK_STEPS", want * (1.0 + 1e-10))
    assert run_single_tree_upper(g, trials=1, base_seed=0)["trials"] == 1
    monkeypatch.setattr(experiments, "MAX_WALK_STEPS", want * (1.0 - 1e-10))
    with pytest.raises(SizeGuardError, match=r"1 trials x t = 1 trees x "):
        run_single_tree_upper(g, trials=1, base_seed=0)


def test_pencil_drivers_cap_expected_walk_steps(monkeypatch):
    # K_8 expects 7 * 7 * 2/8 = 12.25 steps per tree: 2 trials of 2 trees,
    # or 4 single trees, expect 49, inside a cap of 50 and over one of 48.
    g = complete_graph(8)
    monkeypatch.setattr(experiments, "MAX_WALK_STEPS", 50)
    assert run_sum_trees(g, eps=0.5, trials=2, base_seed=0, t=2)["t"] == 2
    assert len(run_single_tree_upper(g, trials=4, base_seed=0)["extremes"]) == 4
    monkeypatch.setattr(experiments, "MAX_WALK_STEPS", 48)
    with pytest.raises(SizeGuardError, match=r"2 trials x t = 2 trees x 12.25 .* = 49 exceed "):
        run_sum_trees(g, eps=0.5, trials=2, base_seed=0, t=2)
    with pytest.raises(SizeGuardError, match=r"4 trials x t = 1 trees .* MAX_WALK_STEPS = 48"):
        run_single_tree_upper(g, trials=4, base_seed=0)


def test_pencil_drivers_refuse_the_slow_walk_graph_before_any_tree(monkeypatch):
    def refuse(*args):
        raise AssertionError("a tree was drawn")

    monkeypatch.setattr(experiments, "tree_edge_counts", refuse)
    g = slow_walk_graph()
    with pytest.raises(SizeGuardError, match=r"13 trees x 3e\+08 .* = 3.9e\+10 exceed "):
        run_sum_trees(g, eps=0.5, trials=10, base_seed=0)
    with pytest.raises(SizeGuardError, match=r"40 trials x t = 1 trees"):
        run_single_tree_upper(g, trials=40, base_seed=0)


@pytest.mark.parametrize("gate", [-1.0, 1.5, math.nan])
def test_sum_trees_refuses_a_gate_outside_the_unit_interval(gate):
    # Refused before L_G is factored; NaN would reach the JSON report.
    misses = laplacian_frame.cache_info().misses
    with pytest.raises(ValueError, match=r"need gate in \[0, 1\], got "):
        run_sum_trees(complete_graph(6), eps=0.5, trials=1, base_seed=0, t=1, gate=gate)
    assert laplacian_frame.cache_info().misses == misses


@pytest.mark.parametrize("t", [2.5, 4.0, "3"])
def test_tree_drivers_refuse_a_t_that_is_not_an_integer(t):
    # Refused by name before L_G is factored, not by a TypeError from
    # inside the first trial.
    misses = laplacian_frame.cache_info().misses
    with pytest.raises(ValueError, match=r"need an integer t, got "):
        run_sum_trees(complete_graph(6), eps=0.5, trials=1, base_seed=0, t=t)
    assert laplacian_frame.cache_info().misses == misses
    with pytest.raises(ValueError, match=r"need an integer t, got "):
        run_multi_tree_lower(1, 4, eps=0.4, trials=1, base_seed=0, t=t)


def test_sum_trees_rejects_bad_parameters():
    g = complete_graph(6)
    with pytest.raises(ValueError):
        run_sum_trees(g, eps=0.0, trials=2, base_seed=0, t=1)
    with pytest.raises(ValueError):
        run_sum_trees(g, eps=1.5, trials=2, base_seed=0, t=1)
    with pytest.raises(ValueError):
        run_sum_trees(g, eps=0.5, trials=0, base_seed=0, t=1)
    with pytest.raises(ValueError):
        run_sum_trees(g, eps=0.5, trials=2, base_seed=0, t=0)
    with pytest.raises(ValueError):
        run_sum_trees(g, eps=0.5, trials=2, base_seed=0, c_mult=None)


def test_sum_trees_parallel_matches_serial():
    # The weighted multigraph sends the walk through its bisect path.
    for g in (complete_graph(8), random_connected_graph(24, 30, seed=2)):
        kwargs = dict(eps=0.5, trials=4, base_seed=7, t=5)
        serial = run_sum_trees(g, jobs=1, **kwargs)
        parallel = run_sum_trees(g, jobs=2, **kwargs)
        assert serial["extremes"] == parallel["extremes"]
        assert serial["pass_fraction"] == parallel["pass_fraction"]


ORACLE_GRAPHS = [(name, g) for name, g in SMALL if g.n >= 3] + [
    ("random_24", random_connected_graph(24, 30, seed=2)),
    ("random_40", random_connected_graph(40, 80, seed=9)),
]


@pytest.mark.parametrize("name,g", ORACLE_GRAPHS)
def test_sum_trees_trial_matches_tree_object_route(name, g):
    # Oracle: validated SpanningTree objects, reweighted one by one and
    # averaged, on the same Philox stream as the edge-id trial.
    t = 7
    check = _pencil_check(g)
    lev = leverage_scores(g)
    for seed in range(3):
        gen = np.random.Generator(np.random.Philox(seed))
        trees = [reweight_tree(sample_tree_stream(g, gen), lev) for _ in range(t)]
        want = normalized_pencil(eig_frame(laplacian(g)), average_trees(trees))
        got = _sum_trees_trial(g, t, check, seed)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


@pytest.mark.parametrize("name,g", ORACLE_GRAPHS)
def test_sum_trees_trial_matches_edge_id_route(name, g):
    # The trial on stacked exit choices counts exactly the edges that the
    # per-tree edge-id lists count, so the extremes agree bit for bit.
    t = 7
    check = _pencil_check(g)
    edge_weights = g.edge_arrays[2] / leverage_scores(g)
    for seed in range(3):
        gen = np.random.Generator(np.random.Philox(seed))
        ids = [e for _ in range(t) for e in _wilson_edge_ids(g, gen)]
        weights = np.bincount(ids, minlength=g.m) * edge_weights / t
        want = normalized_pencil(laplacian_frame(g), laplacian(g, weights))
        assert _sum_trees_trial(g, t, check, seed) == want


@pytest.mark.parametrize(
    "g", [complete_graph(30), random_connected_graph(40, 80, seed=9)], ids=["k30", "multigraph"]
)
def test_sum_trees_trial_matches_the_inline_pencil_bit_for_bit(g):
    # The pencil reads the cached frame; its extremes equal the formula
    # that rebuilds M = [0; C^-T] from the Cholesky factor C of the
    # grounded L_G each call.
    t = 7
    check = _pencil_check(g)
    edge_weights = g.edge_arrays[2] / leverage_scores(g)
    chol = np.linalg.cholesky(laplacian(g)[1:, 1:])
    frame = np.vstack((np.zeros((1, g.n - 1)), np.tril(np.linalg.inv(chol)).T))
    for seed in range(3):
        gen = np.random.Generator(np.random.Philox(seed))
        ids = [e for _ in range(t) for e in _wilson_edge_ids(g, gen)]
        lap_h = laplacian(g, np.bincount(ids, minlength=g.m) * edge_weights / t)
        core = frame.T @ lap_h @ frame
        want = np.linalg.eigvalsh((core + core.T) / 2.0)
        assert _sum_trees_trial(g, t, check, seed) == (float(want[0]), float(want[-1]))


def test_certify_run_holds_no_dense_laplacian():
    g = complete_graph(12)
    laplacian_frame.cache_clear()
    check = _pencil_check(g)
    # The check binds only its edge weights: the trial passes g and t.
    assert [type(value) for value in check.args] == [np.ndarray]
    assert check.args[0].shape == (g.m,) and not check.keywords
    # The frame exists before any pool forks, so workers inherit it.
    assert laplacian_frame.cache_info().misses == 1
    laplacian_frame(g)
    assert laplacian_frame.cache_info().misses == 1


@pytest.mark.parametrize("name,g", ORACLE_GRAPHS)
def test_single_tree_runners_match_tree_object_route(name, g):
    # Oracle: one validated SpanningTree per seed, reweighted by its
    # leverage.
    frame, lev = laplacian_frame(g), leverage_scores(g)
    seeds = range(5, 9)
    want = []
    for seed in seeds:
        tree = sample_tree_stream(g, np.random.Generator(np.random.Philox(seed)))
        want.append(normalized_pencil(frame, average_trees([reweight_tree(tree, lev)])))
    upper = run_single_tree_upper(g, trials=len(seeds), base_seed=seeds[0])
    assert upper["extremes"] == want


@pytest.mark.parametrize("name,g", ORACLE_GRAPHS)
def test_edge_frequencies_match_edge_id_route(name, g):
    # An edge's frequency is its count kernel entry over the sample
    # count; the oracle counts one id-route walk per tree.
    samples = 300
    gen = np.random.Generator(np.random.Philox(17))
    counts = np.zeros(g.m)
    for _ in range(samples):
        for eid in _wilson_edge_ids(g, gen):
            counts[eid] += 1.0
    freqs = tree_edge_counts(g, philox_stream(17), samples) / samples
    assert np.array_equal(freqs, counts / samples)


CLIQUE_STARS = [(1, 4), (2, 3), (3, 5), (4, 12)]


@pytest.mark.parametrize("cliques,size", CLIQUE_STARS)
def test_multi_tree_lower_matches_edge_id_route(cliques, size):
    # Oracle: per-edge degree sums over edge-id lists, in draw order.
    eps, t, base_seed, trials = 0.4, 6, 3, 12
    g = clique_star(cliques, size)
    inv_lev = 1.0 / clique_leverage_value(size)
    base_deg = g.weighted_degrees()
    want = []
    for seed in range(base_seed, base_seed + trials):
        gen = np.random.Generator(np.random.Philox(seed))
        avg_deg = np.zeros(g.n)
        for _ in range(t):
            for eid in _wilson_edge_ids(g, gen):
                u, v, w = g.edges[eid]
                avg_deg[u] += w * inv_lev
                avg_deg[v] += w * inv_lev
        avg_deg /= t
        high, low = avg_deg > (1.0 + eps) * base_deg, avg_deg < (1.0 - eps) * base_deg
        want.append(bool(np.any(high) or np.any(low)))
    report = run_multi_tree_lower(cliques, size, eps=eps, trials=trials, base_seed=base_seed, t=t)
    assert report["violations"] == want


# Violations of seeds 0..59 ("1" = violated), captured at the version that
# summed degrees edge end by edge end in draw order; t=None is the
# default t, 20 an explicit t at which the verdicts are mixed.
MULTI_TREE_VIOLATIONS = {
    (30, 20, 0.3, 20): "111111110111111111111111111111111111111111111110111011011111",
    (30, 20, 0.4, 20): "000001010000001000000000011000000000000000100000000001010001",
    (30, 20, 0.45, 20): "000000000000000000000000000000000000000000100000000001000000",
    (10, 20, 0.3, 20): "100101100011001101111011111100111101111111111000101011011110",
    (10, 20, 0.4, 20): "000000000000000000000000100000001101000000000000000000010100",
    (10, 20, 0.45, 20): "000000000000000000000000000000000000000000000000000000010000",
    (5, 30, 0.3, 20): "111010100101111110001001011100000001111111101111101110100001",
    (5, 30, 0.4, 20): "000000000000000000000000000000000000000000000000000000100000",
    (5, 30, 0.45, 20): "0" * 60,
}
MULTI_TREE_VIOLATIONS.update(
    {(c, s, eps, None): "1" * 60 for c, s, eps, _ in list(MULTI_TREE_VIOLATIONS)}
)


@pytest.mark.parametrize("key", sorted(MULTI_TREE_VIOLATIONS, key=str))
def test_multi_tree_lower_violations_match_their_goldens(key):
    cliques, size, eps, t = key
    report = run_multi_tree_lower(cliques, size, eps=eps, trials=60, base_seed=0, t=t)
    got = "".join("1" if v else "0" for v in report["violations"])
    assert got == MULTI_TREE_VIOLATIONS[key]


@pytest.mark.parametrize("cliques,size", CLIQUE_STARS)
def test_single_tree_lower_matches_edge_id_route(cliques, size):
    # Oracle: tree degrees, the star vector (0 on the hub) and both
    # quadratic forms summed edge by edge over the edge-id list.
    g = clique_star(cliques, size)
    inv_lev = 1.0 / clique_leverage_value(size)
    base_seed, trials = 5, 20
    report = run_single_tree_lower(cliques, size, trials=trials, base_seed=base_seed)
    for j, seed in enumerate(range(base_seed, base_seed + trials)):
        ids = _wilson_edge_ids(g, np.random.Generator(np.random.Philox(seed)))
        deg = [0] * g.n
        nbrs: dict[int, list[int]] = {}
        for eid in ids:
            u, v, _ = g.edges[eid]
            deg[u] += 1
            deg[v] += 1
            nbrs.setdefault(u, []).append(v)
            nbrs.setdefault(v, []).append(u)
        center = max(range(1, g.n), key=lambda v: deg[v])
        x = [0.0] * g.n
        for u in nbrs[center]:
            if u != 0:  # the hub stays at 0
                x[u] = -1.0
        x[center] = float(deg[center])
        tree_edges = [g.edges[eid] for eid in ids]
        tree_form = sum(w * inv_lev * (x[u] - x[v]) ** 2 for u, v, w in tree_edges)
        parent_form = sum(w * (x[u] - x[v]) ** 2 for u, v, w in g.edges)
        ratio = tree_form / parent_form
        assert report["max_degrees"][j] == deg[center]
        assert report["certified"][j] == (ratio > deg[center] / 2.0)
        assert abs(report["quadform_ratios"][j] - ratio) <= 1e-12 * ratio


@pytest.mark.parametrize("n", [3, 5, 9])
def test_degree_dist_matches_edge_id_route(n):
    # Edges (0, v) occupy ids 0 .. n-2 in the complete graph's edge order.
    samples = 500
    gen = np.random.Generator(np.random.Philox(11))
    counts = [0] * (n - 1)
    g = complete_graph(n)
    for _ in range(samples):
        counts[sum(1 for eid in _wilson_edge_ids(g, gen) if eid < n - 1) - 1] += 1
    assert run_degree_dist(n, samples=samples, base_seed=11)["counts"] == counts


def test_drivers_do_not_depend_on_the_batch_size(monkeypatch):
    def outputs():
        return (
            run_degree_dist(7, samples=300, base_seed=3)["counts"],
            run_multi_tree_lower(
                3, 5, eps=0.4, trials=3, base_seed=2, t=40
            )["violations"],
            (
                tree_edge_counts(random_connected_graph(24, 30, seed=2), philox_stream(4), 200)
                / 200
            ).tolist(),
            run_sum_trees(
                complete_graph(9), eps=0.5, trials=2, base_seed=1, t=25
            )["extremes"],
            run_single_tree_lower(3, 5, trials=3, base_seed=2)["quadform_ratios"],
        )

    whole = outputs()
    # One to three trees a batch on the graphs above, so every run splits.
    monkeypatch.setattr(treesample, "_BATCH_SLOTS", 26)
    assert outputs() == whole


def test_sum_trees_trial_rejects_a_walk_that_is_not_a_tree(monkeypatch):
    g = complete_graph(5)
    check = _pencil_check(g)
    # Vertex 1 exits towards 2 and vertex 2 towards 1: a cycle off the root.
    nbrs = g.adjacency[0]
    bad = [0, nbrs[1].index(2), nbrs[2].index(1), 0, 0]
    monkeypatch.setattr(treesample, "_wilson_exits", lambda g, gen: list(bad))
    with pytest.raises(ValueError, match="cycle that misses the root"):
        _sum_trees_trial(g, 3, check, 0)


def _count_eig_sym(monkeypatch) -> list:
    """Count eig_sym calls from every treespark module, on cold caches."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return eig_sym(*args, **kwargs)

    for mod in (spectral, leverage, experiments, srdiag):
        if getattr(mod, "eig_sym", None) is eig_sym:
            monkeypatch.setattr(mod, "eig_sym", counted)
    laplacian_frame.cache_clear()
    return calls


def test_certify_run_decomposes_laplacian_once(monkeypatch):
    # Certify reads only the Cholesky frame: no eigendecomposition, and
    # one frame build per graph.
    calls = _count_eig_sym(monkeypatch)
    g = random_connected_graph(30, 40, seed=21)
    run_sum_trees(g, eps=0.5, trials=3, base_seed=0, t=4)
    assert calls == [] and laplacian_frame.cache_info().misses == 1
    # The frame is cached per graph, so a second run reuses it.
    run_sum_trees(g, eps=0.5, trials=2, base_seed=9, t=4)
    assert calls == [] and laplacian_frame.cache_info().misses == 1


def test_martingale_traces_factor_laplacian_once_per_graph(monkeypatch):
    # Leverage scores, the transfer-current matrix and the edge matrices
    # all read the one cached Cholesky frame, across every seed, and
    # nothing eigendecomposes the Laplacian.
    calls = _count_eig_sym(monkeypatch)
    g = random_connected_graph(7, 5, seed=22)
    for seed in range(4):
        srdiag.check_trace_bounds(srdiag.martingale_trace(g, seed))
    assert calls == [] and laplacian_frame.cache_info().misses == 1


def test_sum_trees_deviation_shrinks_with_t():
    # Trend check: averaging more trees tightens the worst deviation.
    g = complete_graph(20)

    def mean_dev(t):
        report = run_sum_trees(g, eps=0.5, trials=8, base_seed=11, t=t)
        extremes = report["extremes"]
        return np.mean([max(abs(lo - 1.0), abs(hi - 1.0)) for lo, hi in extremes])

    d2, d4, d8 = mean_dev(2), mean_dev(4), mean_dev(8)
    assert d8 < d2
    assert min(d2, d4, d8) > 0.0


def _exact_pass_law(g, t: int):
    """Every multiset of ``t`` trees of ``g`` as ``(probability, lo, hi)`` arrays.

    Multiplicities ``k`` occur with probability ``multinomial(t; k) prod
    P(T)^k``, and ``lo, hi`` are the extremes certify's own pencil check
    reads off the multiset's edge counts.
    """
    table = enumerate_trees(g)
    member = np.zeros((len(table.trees), g.m), dtype=np.int64)
    for row, ids in zip(member, table.trees):
        row[list(ids)] = 1
    check = _pencil_check(g)
    probs, extremes = [], []
    for multiset in itertools.combinations_with_replacement(range(len(table.trees)), t):
        ids, mult = np.unique(multiset, return_counts=True)
        ways = math.factorial(t) // math.prod(math.factorial(k) for k in mult.tolist())
        probs.append(ways * math.prod((table.probabilities[ids] ** mult).tolist()))
        extremes.append(check(g, member[list(multiset)].sum(axis=0), t))
    lo, hi = np.array(extremes).T
    return np.array(probs), lo, hi


def _binomial_two_sided_p(k: int, n: int, p: float) -> float:
    """Exact two-sided p-value of ``k`` successes in ``n`` Bernoulli(p)
    trials: the mass of every outcome no likelier than ``k``."""
    log_pmf = [
        math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
        + j * math.log(p) + (n - j) * math.log1p(-p)
        for j in range(n + 1)
    ]
    pmf = np.exp(log_pmf)
    return float(pmf[pmf <= pmf[k] * (1.0 + 1e-7)].sum())


# (t, eps) cells of K_4 and weighted K_4 where no multiset's extreme lies
# within 1e-12 of a window edge.  Unit weights give rational spectra that
# sit exactly on 1 +- eps elsewhere, e.g. at t = 3 or 4 with eps = 0.5,
# where rounding alone would decide the verdict.
PASS_LAW_CELLS = {
    "k4": (complete_graph(4), {3: (0.3,), 4: (0.3, 0.4)}),
    "weighted_k4": (weighted_k4(), {3: (0.5,), 4: (0.3, 0.5)}),
}
PASS_LAW_TRIALS = 1000
# Bonferroni over every cell of both graphs.
PASS_LAW_ALPHA = 0.01 / sum(len(e) for _, cells in PASS_LAW_CELLS.values() for e in cells.values())


@pytest.mark.parametrize("name", sorted(PASS_LAW_CELLS))
def test_certify_pass_fraction_follows_its_exact_law(name):
    # The oracle judges each multiset by certify's own check, so this pins
    # the law of the trees each trial draws and how their passes are counted;
    # the pencil itself is checked against its own oracles.
    g, cells = PASS_LAW_CELLS[name]
    for t, epss in cells.items():
        probs, lo, hi = _exact_pass_law(g, t)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        for eps in epss:
            gap = min(np.abs(lo - (1.0 - eps)).min(), np.abs(hi - (1.0 + eps)).min())
            assert gap > 1e-12, (t, eps, gap)
            exact = float(probs[(lo >= 1.0 - eps) & (hi <= 1.0 + eps)].sum())
            report = run_sum_trees(g, eps=eps, trials=PASS_LAW_TRIALS, base_seed=0, t=t, gate=0.0)
            passes = round(report["pass_fraction"] * PASS_LAW_TRIALS)
            p_value = _binomial_two_sided_p(passes, PASS_LAW_TRIALS, exact)
            assert p_value >= PASS_LAW_ALPHA, (t, eps, passes, exact, p_value)


def test_write_extremes_csv(tmp_path):
    report = run_sum_trees(complete_graph(8), eps=0.5, trials=3, base_seed=5, t=2)
    path = tmp_path / "extremes.csv"
    write_extremes_csv(report, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "trial,seed,lambda_min,lambda_max"
    assert len(lines) == 4
    for j, line in enumerate(lines[1:]):
        trial, seed, lo, hi = line.split(",")
        assert int(trial) == j
        assert int(seed) == report["seeds"][j]
        assert (float(lo), float(hi)) == report["extremes"][j]


# ---------------------------------------------------------------------------
# Clique-star lower bounds
# ---------------------------------------------------------------------------


def test_clique_leverage_value_matches_triangle():
    assert clique_leverage_value(3) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert clique_leverage_value(100) == pytest.approx(0.02, abs=1e-12)


@pytest.mark.parametrize("cliques,size", [(2, 3), (3, 4), (2, 5)])
def test_clique_leverage_factorization_identity(cliques, size):
    # The one-clique shortcut must agree with the full-graph pseudoinverse.
    g = clique_star(cliques, size)
    full = leverage_scores(g)
    assert np.abs(full - clique_leverage_value(size)).max() <= 1e-10


def test_multi_tree_lower_window_refusal():
    with pytest.raises(ValueError):
        run_multi_tree_lower(2, 100, eps=0.01, trials=2, base_seed=0)  # below 5/s
    with pytest.raises(ValueError):
        run_multi_tree_lower(2, 100, eps=0.6, trials=2, base_seed=0)  # above 1/2
    with pytest.raises(ValueError, match="need t >= 1"):
        run_multi_tree_lower(1, 4, eps=0.4, trials=2, base_seed=0, t=0)
    # an explicit t still needs eps in (0, 1)
    for eps in (0.0, -0.3, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"need eps in \(0, 1\)"):
            run_multi_tree_lower(2, 5, eps=eps, trials=2, base_seed=0, t=3)
    # an explicit t runs anyway but records the violated window
    report = run_multi_tree_lower(1, 4, eps=0.4, trials=2, base_seed=0, t=1)
    assert not report["eps_window_ok"]
    assert report["eps_window"] == (1.25, 0.5)


def test_multi_tree_lower_exact_oracle_on_k4():
    # With one tree of K_4 (each of the 16 equally likely), weighted
    # degrees are twice the tree degrees and the windows around the
    # parent degree 3 are (1.8, 4.2), so a trial violates exactly when
    # the tree is a star.  The test recomputes that probability from the
    # enumeration rather than trusting 4/16.
    table = enumerate_trees(complete_graph(4))
    lev = 0.5
    exact = 0.0
    for ids, prob in zip(table.trees, table.probabilities):
        deg = [0] * 4
        for eid in ids:
            u, v, _ = complete_graph(4).edges[eid]
            deg[u] += 1
            deg[v] += 1
        wdeg = [d / lev for d in deg]
        if any(wd > 1.4 * 3.0 or wd < 0.6 * 3.0 for wd in wdeg):
            exact += float(prob)
    assert exact == pytest.approx(0.25, abs=1e-12)

    trials = 400
    report = run_multi_tree_lower(1, 4, eps=0.4, trials=trials, base_seed=13, t=1)
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    assert abs(report["violation_fraction"] - exact) <= 4.0 * sigma


def test_multi_tree_lower_large_t_restores_approximation():
    report = run_multi_tree_lower(2, 5, eps=0.4, trials=10, base_seed=17, t=300)
    assert report["violation_fraction"] <= 0.1


def test_multi_tree_lower_formula_fields():
    report = run_multi_tree_lower(4, 12, eps=0.45, trials=2, base_seed=19)
    n = 4 * 11 + 1
    formula = 0.05 * 0.45**-2 * math.log(n)
    assert report["t"] == max(1, math.floor(formula))
    assert report["t_formula"] == pytest.approx(formula)
    assert report["eps_window_ok"]
    assert report["leverage_value"] == pytest.approx(2.0 / 12.0, abs=1e-12)
    assert "clique" in report["leverage_method"]
    assert report["degree_role"]


def test_single_tree_lower_smallest_clique():
    report = run_single_tree_lower(2, 3, trials=30, base_seed=23)
    assert all(d <= 2 for d in report["max_degrees"])
    assert all(f <= 1.0 for f in report["certified_factors"])
    assert report["leverage_value"] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_single_tree_lower_single_clique_always_certifies():
    # On a single clique the parent form is s |x|^2 - (sum x)^2: s d (d + 1)
    # while the hub is not a neighbour of the centre, and below
    # s (d^2 + d - 1) when it is.  The star's tree edges alone give at least
    # (s/2) (k (d + 1)^2 + (d - k) d^2) with k non-hub neighbours, so the
    # ratio clears d/2 in every trial.
    report = run_single_tree_lower(1, 32, trials=200, base_seed=29)
    assert report["certified_fraction"] == 1.0
    assert 0.0 <= report["freq_factor_ge_half_log_s"] <= 1.0
    assert report["freq_ratio_ge_half_log_s"] >= report["freq_factor_ge_half_log_s"] - 1e-12
    for d, ratio in zip(report["max_degrees"], report["quadform_ratios"]):
        assert ratio > d / 2.0


def test_single_tree_lower_certifies_when_the_hub_neighbours_the_centre():
    # Six of these seeds draw a tree in which the hub is a neighbour of
    # the centre; a -1 on the hub let its 950 parent edges swamp the form.
    report = run_single_tree_lower(50, 20, trials=20, base_seed=0)
    assert report["certified_fraction"] == 1.0


def test_single_tree_lower_degree_tail_consistent_with_binomial():
    # The max non-hub tree degree over K_100 against the union and
    # second-order bounds from the exact 1 + Bin(98, 1/100) law.
    trials = 10000
    report = run_single_tree_lower(1, 100, trials=trials, base_seed=31)
    frac = sum(1 for d in report["max_degrees"] if d >= 7) / trials
    q = math.exp(log_binomial_tail(98, 0.01, 6))
    vertices = 99  # non-hub vertices scanned for the maximum
    upper = vertices * q
    lower = vertices * q - math.comb(vertices, 2) * q * q
    sigma = math.sqrt(upper * (1.0 - upper) / trials)
    assert frac <= upper + 4.0 * sigma
    assert frac >= lower - 4.0 * sigma


# ---------------------------------------------------------------------------
# Degree law
# ---------------------------------------------------------------------------


def test_degree_pmf_reference_values():
    pmf = degree_reference_pmf(3)
    assert pmf == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-15)
    assert math.fsum(degree_reference_pmf(50)) == pytest.approx(1.0, abs=1e-12)


def test_degree_pmf_past_float_binomials():
    # C(1998, j) overflows a float from j ~ 170 on, so the law must be
    # formed without it; mpmath gives the exact terms.
    n = 2000
    pmf = degree_reference_pmf(n)
    assert len(pmf) == n - 1
    assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-12)
    with mpmath.workdps(40):
        p = mpmath.mpf(1) / n
        for j in (0, 1, 2, 5, 20, 100):
            exact = mpmath.binomial(n - 2, j) * p**j * (1 - p) ** (n - 2 - j)
            assert pmf[j] == pytest.approx(float(exact), rel=1e-12), j


def test_degree_pmf_matches_enumeration_at_n3():
    table = enumerate_trees(complete_graph(3))
    law = [0.0, 0.0]
    for ids, prob in zip(table.trees, table.probabilities):
        deg = sum(1 for eid in ids if eid < 2)  # edges 0-1 and 0-2
        law[deg - 1] += float(prob)
    assert law == pytest.approx(degree_reference_pmf(3), abs=1e-15)


def test_degree_dist_small_run():
    report = run_degree_dist(6, samples=20000, base_seed=37)
    assert sum(report["counts"]) == 20000
    assert report["tv_distance"] <= report["gate"]
    assert report["passed"]


def test_degree_dist_rejects_tiny_n():
    with pytest.raises(ValueError):
        run_degree_dist(2, samples=10, base_seed=0)
    with pytest.raises(ValueError, match="at least one sample"):
        run_degree_dist(5, samples=0, base_seed=0)


# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------


def test_reports_bit_reproducible():
    runs = [
        lambda: run_single_tree_upper(complete_graph(10), trials=3, base_seed=51),
        lambda: run_sum_trees(complete_graph(10), eps=0.5, trials=3, base_seed=53, t=3),
        lambda: run_multi_tree_lower(1, 4, eps=0.4, trials=5, base_seed=57, t=1),
        lambda: run_single_tree_lower(2, 8, trials=5, base_seed=59),
        lambda: run_degree_dist(8, samples=2000, base_seed=61),
    ]
    for make in runs:
        a, b = make(), make()
        assert _without_wallclock(a) == _without_wallclock(b)
        assert json.dumps(_without_wallclock(a)) == json.dumps(_without_wallclock(b))


def test_reports_carry_provenance():
    report = run_degree_dist(6, samples=500, base_seed=71)
    assert isinstance(report, dict)
    assert report["library_version"]
    assert report["wallclock_sec"] >= 0.0


# ---------------------------------------------------------------------------
# The report envelope
# ---------------------------------------------------------------------------

# Each driver's JSON keys in order: the envelope, then the driver's
# outputs as the per-driver report classes gave them; the degree law
# gains only ``graph_desc``.
ENVELOPE_KEYS = ["kind", "graph_desc", "n", "config", "wallclock_sec", "library_version"]
DRIVER_KEYS = {
    "single_tree_upper": ENVELOPE_KEYS + [
        "trials", "seeds", "envelope", "extremes", "max_lambda", "median_lambda",
        "empirical_constant", "passed",
    ],
    "sum_trees": ENVELOPE_KEYS + [
        "eps_target", "t", "c_mult", "trials", "seeds", "extremes", "pass_fraction", "gate",
        "passed",
    ],
    "multi_tree_lower": ENVELOPE_KEYS + [
        "num_cliques", "clique_size", "eps", "t", "t_formula", "eps_window", "eps_window_ok",
        "leverage_value", "leverage_method", "degree_role", "trials", "seeds", "violations",
        "violation_fraction",
    ],
    "single_tree_lower": ENVELOPE_KEYS + [
        "num_cliques", "clique_size", "trials", "seeds", "max_degrees", "certified_factors",
        "quadform_ratios", "certified", "certified_fraction", "freq_factor_ge_half_log_s",
        "freq_ratio_ge_half_log_s", "leverage_value",
    ],
    "degree_dist": ENVELOPE_KEYS + [
        "samples", "base_seed", "counts", "reference_pmf", "tv_distance", "gate", "passed",
    ],
}

DRIVER_RUNS = {
    "single_tree_upper": lambda: run_single_tree_upper(complete_graph(8), trials=2, base_seed=1),
    "sum_trees": lambda: run_sum_trees(complete_graph(8), eps=0.5, trials=2, base_seed=1, t=2),
    "multi_tree_lower": lambda: run_multi_tree_lower(2, 5, eps=0.4, trials=2, base_seed=1, t=1),
    "single_tree_lower": lambda: run_single_tree_lower(2, 5, trials=2, base_seed=1),
    "degree_dist": lambda: run_degree_dist(5, samples=50, base_seed=1),
}


@pytest.mark.parametrize("kind", sorted(DRIVER_KEYS))
def test_driver_json_keys_are_pinned(kind):
    report = DRIVER_RUNS[kind]()
    assert isinstance(report, dict)
    assert list(json.loads(json.dumps(report))) == DRIVER_KEYS[kind]
    assert report["kind"] == kind
    assert {"ln_n", "log2_n"} <= set(report["config"])


def test_report_reads_results_as_attributes():
    # perfbench/capture_reference.py reads ``rep.t`` and ``rep.extremes``.
    report = DRIVER_RUNS["sum_trees"]()
    assert report.t == report["t"] == 2
    assert report.extremes is report["extremes"]
    with pytest.raises(AttributeError, match="no_such_output"):
        report.no_such_output
    assert pickle.loads(pickle.dumps(report)) == report


def test_reference_capture_reads_the_sum_trees_report(monkeypatch):
    # perfbench/capture_reference.py regenerates the benchmark's reference
    # outputs from run_sum_trees; nothing else runs it between releases.
    script = Path(__file__).resolve().parent.parent / "perfbench" / "capture_reference.py"
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("capture_reference", script)
    capture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(capture)
    workload = capture.W.Workload("k8", "certify", "k:8", ops_per_call=2, pool=2)
    t, extremes = capture.certify_extremes(workload, "k:8")
    report = run_sum_trees(complete_graph(8), eps=0.5, trials=2, base_seed=0)
    assert t == report["t"]
    assert extremes == [list(x) for x in report["extremes"]]


def test_degree_dist_names_its_graph():
    assert run_degree_dist(5, samples=10, base_seed=0)["graph_desc"] == "k:5"


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_single_tree_upper(complete_graph(5), trials=0, base_seed=0),
        lambda: run_sum_trees(complete_graph(5), eps=0.5, trials=-1, base_seed=0, t=1),
        lambda: run_multi_tree_lower(1, 4, eps=0.4, trials=0, base_seed=0, t=1),
        lambda: run_single_tree_lower(1, 4, trials=0, base_seed=0),
    ],
)
def test_drivers_refuse_zero_trials(run):
    with pytest.raises(ValueError, match="need at least one trial"):
        run()


def test_sum_trees_starts_no_pool_for_one_trial(monkeypatch):
    import concurrent.futures

    g = random_connected_graph(24, 30, seed=2)
    kwargs = dict(eps=0.5, trials=1, base_seed=7, t=5)
    serial = run_sum_trees(g, jobs=1, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started for a single trial")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    for jobs in (4, 0):
        wide = run_sum_trees(g, jobs=jobs, **kwargs)
        assert wide["extremes"] == serial["extremes"]
        assert wide["config"]["jobs"] == jobs


def test_sum_trees_starts_no_more_workers_than_trials(monkeypatch):
    import concurrent.futures

    real = concurrent.futures.ProcessPoolExecutor
    sizes = []

    def recording(max_workers, **kwargs):
        sizes.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    # Enough CPUs that the trial count is the cap, on any machine.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    report = run_sum_trees(complete_graph(8), eps=0.5, trials=2, base_seed=3, t=2, jobs=4)
    assert sizes == [2]
    assert report["config"]["jobs"] == 4


def test_sum_trees_starts_no_more_workers_than_cpus(monkeypatch):
    import concurrent.futures

    sizes = []

    class InProcessPool:
        """Records its size and runs the trials here: no process starts."""

        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, seeds):
            return map(fn, seeds)

    g = complete_graph(8)
    kwargs = dict(eps=0.5, trials=64, base_seed=3, t=2)
    serial = run_sum_trees(g, jobs=1, **kwargs)
    monkeypatch.setattr(experiments, "_WORKER_TRIAL", None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    wide = run_sum_trees(g, jobs=64, **kwargs)
    assert sizes == [3]
    assert wide["extremes"] == serial["extremes"]
    assert wide["config"]["jobs"] == 64
