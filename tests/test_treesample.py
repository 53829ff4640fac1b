"""Wilson sampling, exact enumeration, reweighting and tree averages."""

import bisect
import collections
import functools
import hashlib
import math

import numpy as np
import pytest

from corpus import (
    SMALL,
    doubled_triangle,
    parallel_pair,
    path_graph,
    random_connected_graph,
    star_graph,
    triangle,
    weighted_k4,
    weighted_er,
    weighted_triangle,
)
from enumeration_oracle import enumerate_trees
from frame_oracle import pinv_power
from tree_line_oracle import format_tree_line, parse_tree_line, sample_tree_wilson
from treespark.graph import (
    SizeGuardError,
    WeightedGraph,
    clique_star,
    complete_graph,
    laplacian,
    philox_stream,
    ring_graph,
)
from treespark import treesample
from treespark.leverage import leverage_scores
from treespark.spectral import eig_sym
from treespark.treesample import (
    SpanningTree,
    _wilson_edge_ids,
    _wilson_exits,
    average_trees,
    check_parent_trees,
    check_tree_ids,
    reweight_tree,
    sample_tree_stream,
    tree_edge_counts,
    wilson_tree_batches,
)
import walk_oracle
from walk_oracle import step_rule


def test_wilson_deterministic_per_seed():
    g = complete_graph(6)
    for seed in range(5):
        a = sample_tree_wilson(g, seed)
        b = sample_tree_wilson(g, seed)
        assert a.edge_ids == b.edge_ids
        assert a.weights == b.weights
    assert any(
        sample_tree_wilson(g, s).edge_ids != sample_tree_wilson(g, 0).edge_ids
        for s in range(1, 6)
    )


def test_wilson_on_tree_returns_it():
    g = path_graph(6)
    tree = sample_tree_wilson(g, 9)
    assert tree.edge_ids == tuple(range(5))
    assert tree.weights == tuple(w for _, _, w in g.edges)
    assert tree.weight_mode == "original"


@pytest.mark.parametrize("name,g", [(n, g) for n, g in SMALL if g.m <= 12])
def test_wilson_trees_are_spanning(name, g):
    for seed in range(8):
        tree = sample_tree_wilson(g, seed)
        assert len(tree.edge_ids) == g.n - 1
        assert len(set(tree.edge_ids)) == g.n - 1


def test_enumerate_triangle():
    table = enumerate_trees(triangle())
    assert table.trees == ((0, 1), (0, 2), (1, 2))
    assert np.allclose(table.probabilities, 1.0 / 3.0, atol=1e-15)
    assert table.total_tree_weight == pytest.approx(3.0, abs=1e-12)


def test_enumerate_weighted_triangle_frozen():
    table = enumerate_trees(weighted_triangle())
    assert table.trees == ((0, 1), (0, 2), (1, 2))
    assert np.allclose(table.probabilities, [0.2, 0.4, 0.4], atol=1e-15)
    assert table.total_tree_weight == pytest.approx(5.0, abs=1e-12)


def test_enumerate_counts():
    assert len(enumerate_trees(complete_graph(4)).trees) == 16
    assert len(enumerate_trees(path_graph(4)).trees) == 1
    assert len(enumerate_trees(parallel_pair()).trees) == 3


def test_enumerate_probabilities_sum_to_one():
    for _, g in SMALL:
        if g.m > 12:
            continue
        table = enumerate_trees(g)
        assert math.fsum(table.probabilities.tolist()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name,g", [(n, g) for n, g in SMALL if g.m <= 12])
def test_enumeration_marginals_match_leverage(name, g):
    got = enumerate_trees(g).marginals()
    want = leverage_scores(g)
    assert np.abs(got - want).max() <= 1e-10


def test_enumerate_size_guard():
    with pytest.raises(SizeGuardError):
        enumerate_trees(ring_graph(23))


def _sorted_tree_counts(g, gen, count) -> collections.Counter:
    """How often each sorted edge-id tuple occurs among ``count`` batch rows."""
    return collections.Counter(
        tuple(row)
        for ids in wilson_tree_batches(g, gen, count)
        for row in np.sort(ids, axis=1).tolist()
    )


def test_tree_frequencies_unit_triangle():
    g = triangle()
    gen = np.random.Generator(np.random.Philox(101))
    counts = _sorted_tree_counts(g, gen, 300000)
    for ids in ((0, 1), (0, 2), (1, 2)):
        assert counts[ids] / 300000 == pytest.approx(1.0 / 3.0, abs=0.005)


def test_tree_frequencies_weighted_triangle():
    g = weighted_triangle()
    gen = np.random.Generator(np.random.Philox(103))
    counts = _sorted_tree_counts(g, gen, 300000)
    want = {(0, 1): 0.2, (0, 2): 0.4, (1, 2): 0.4}
    for ids, p in want.items():
        assert counts[ids] / 300000 == pytest.approx(p, abs=0.005)


def test_edge_frequencies_match_leverage_within_4_sigma():
    g = complete_graph(4)
    samples = 200000
    freqs = tree_edge_counts(g, philox_stream(107), samples) / samples
    lev = leverage_scores(g)
    for eid in range(g.m):
        sigma = math.sqrt(lev[eid] * (1.0 - lev[eid]) / samples)
        assert abs(freqs[eid] - lev[eid]) <= 4.0 * sigma + 1e-9


def test_inverse_leverage_average_is_unbiased():
    # E[L_T] with inverse-leverage weights equals L_G; per-edge sample
    # means must sit within five exact standard errors of the leverage.
    g = complete_graph(5)
    samples = 100000
    freqs = tree_edge_counts(g, philox_stream(109), samples) / samples
    lev = leverage_scores(g)
    for eid in range(g.m):
        sigma = math.sqrt(lev[eid] * (1.0 - lev[eid]) / samples)
        assert abs(freqs[eid] - lev[eid]) <= 5.0 * sigma


def test_reweight_unit_triangle():
    g = triangle()
    lev = leverage_scores(g)
    tree = SpanningTree(g, (0, 1), (1.0, 1.0), "original")
    got = reweight_tree(tree, lev)
    assert got.weight_mode == "inverse_leverage"
    assert got.weights == pytest.approx((1.5, 1.5))


def test_reweight_complete_graph_halves_n():
    g = complete_graph(6)
    lev = leverage_scores(g)
    tree = sample_tree_wilson(g, 3)
    got = reweight_tree(tree, lev)
    assert np.allclose(got.weights, 3.0, atol=1e-12)  # n/2 for K_n


def test_reweight_tree_graph_is_identity():
    g = path_graph(4)
    tree = sample_tree_wilson(g, 0)
    got = reweight_tree(tree, leverage_scores(g))
    assert np.allclose(got.weights, tree.weights, atol=1e-12)


def test_reweight_rejects_mode_and_graph_mismatch():
    g = triangle()
    h = complete_graph(4)
    tree = SpanningTree(g, (0, 1), (1.0, 1.0), "original")
    with pytest.raises(ValueError):
        reweight_tree(tree, leverage_scores(h))
    reweighted = reweight_tree(tree, leverage_scores(g))
    with pytest.raises(ValueError):
        reweight_tree(reweighted, leverage_scores(g))


def test_tree_laplacian_matches_manual():
    g = weighted_triangle()
    tree = SpanningTree(g, (0, 2), (1.0, 2.0), "original")
    lap = average_trees([tree])
    want = np.array([[1.0, -1.0, 0.0], [-1.0, 3.0, -2.0], [0.0, -2.0, 2.0]])
    assert np.allclose(lap, want, atol=1e-12)


def test_average_probability_weighted_expectation_exact():
    # Probability-weighted average of all reweighted trees is exactly L_G.
    g = weighted_triangle()
    lev = leverage_scores(g)
    table = enumerate_trees(g)
    trees = []
    for ids in table.trees:
        ws = tuple(g.edges[e][2] for e in ids)
        trees.append(reweight_tree(SpanningTree(g, ids, ws, "original"), lev))
    avg = average_trees(trees, probabilities=table.probabilities)
    assert np.abs(avg - laplacian(g)).max() <= 1e-10


def test_average_identical_trees_idempotent():
    g = complete_graph(4)
    tree = sample_tree_wilson(g, 5)
    assert np.allclose(average_trees([tree, tree]), average_trees([tree]), atol=1e-12)


def test_average_validation():
    g = triangle()
    t1 = SpanningTree(g, (0, 1), (1.0, 1.0), "original")
    t2 = reweight_tree(t1, leverage_scores(g))
    with pytest.raises(ValueError):
        average_trees([])
    with pytest.raises(ValueError):
        average_trees([t1, t2])  # mixed weight modes
    with pytest.raises(ValueError):
        average_trees([t1], probabilities=[0.5])  # does not sum to 1
    with pytest.raises(ValueError, match="do not align"):
        average_trees([t1, t1], probabilities=[1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        average_trees([t1, t1], probabilities=[1.5, -0.5])
    h_tree = SpanningTree(complete_graph(4), (0, 1, 2), (1.0, 1.0, 1.0), "original")
    with pytest.raises(ValueError):
        average_trees([t1, h_tree])  # different parent graphs


@pytest.mark.parametrize("name,g", [(n, g) for n, g in SMALL if g.n >= 3])
def test_normalized_edge_matrices_have_unit_norm(name, g):
    lev = leverage_scores(g)
    p = pinv_power(eig_sym(laplacian(g)), 0.5)
    for eid, (u, v, w) in enumerate(g.edges):
        x = math.sqrt(w / lev[eid]) * (p[u] - p[v])
        assert np.dot(x, x) == pytest.approx(1.0, abs=1e-9)


def test_spanning_tree_validation():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        SpanningTree(g, (0, 1), (1.0, 1.0), "original")  # too few edges
    with pytest.raises(ValueError):
        SpanningTree(g, (0, 1, 3), (1.0, 1.0, 1.0), "original")  # 0-1,0-2,1-2 cycle
    with pytest.raises(ValueError):
        SpanningTree(g, (0, 0, 1), (1.0, 1.0, 1.0), "original")  # duplicate edge
    with pytest.raises(ValueError):
        SpanningTree(g, (0, 1, 2), (1.0, -1.0, 1.0), "original")  # bad weight
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            SpanningTree(g, (0, 1, 2), (1.0, bad, 1.0), "original")
    with pytest.raises(ValueError):
        SpanningTree(g, (0, 1, 2), (1.0, 1.0, 1.0), "resampled")  # bad mode
    with pytest.raises(ValueError, match="do not align"):
        SpanningTree(g, (0, 1, 2), (1.0, 1.0), "original")


def test_check_tree_ids_rejects_cycle_count_and_range():
    g = complete_graph(4)  # edges 0-1, 0-2, 0-3, 1-2, 1-3, 2-3
    check_tree_ids(g, [0, 1, 2])
    check_tree_ids(g, [5, 3, 0])  # order does not matter
    with pytest.raises(ValueError, match="cycle"):
        check_tree_ids(g, [0, 1, 3])  # 0-1, 0-2, 1-2
    with pytest.raises(ValueError, match="cycle"):
        check_tree_ids(g, [0, 0, 2])  # repeated id
    with pytest.raises(ValueError, match="expected 3 edges"):
        check_tree_ids(g, [0, 1])
    with pytest.raises(ValueError, match="expected 3 edges"):
        check_tree_ids(g, [0, 1, 2, 5])
    with pytest.raises(ValueError, match="out of range"):
        check_tree_ids(g, [0, 1, 6])
    with pytest.raises(ValueError, match="out of range"):
        check_tree_ids(g, [-1, 0, 1])


# Sorted edge ids of trees drawn by an earlier version of the walk, which
# listed tree edges in branch order.  A seed fixes the tree itself, not
# just its law, so these must not move.  K_6 and K_60 take the regular
# walk loop, the other graphs the general one.
WILSON_TREES = [
    (complete_graph(6), [(0, 3, 5, 9, 14), (0, 1, 2, 8, 14), (3, 4, 6, 7, 9), (0, 1, 6, 12, 14)]),
    (weighted_k4(), [(0, 1, 4), (0, 1, 2), (2, 3, 4), (0, 1, 4)]),
    (doubled_triangle(), [(0, 1), (0, 1), (2, 3), (0, 1)]),
    (
        clique_star(2, 4),
        [(0, 1, 4, 6, 8, 11), (0, 1, 2, 7, 8, 10), (1, 4, 5, 8, 9, 10), (0, 1, 2, 7, 10, 11)],
    ),
    (
        random_connected_graph(12, 20, seed=3),
        [
            (0, 1, 3, 4, 5, 14, 19, 25, 26, 29, 30),
            (0, 1, 2, 3, 7, 17, 19, 23, 24, 26, 27),
            (1, 3, 5, 11, 13, 14, 15, 18, 23, 27, 30),
            (0, 2, 5, 12, 14, 16, 17, 19, 23, 24, 29),
        ],
    ),
]

# sha256 over repr(edge_ids) of seeds 0..39, at the same earlier version:
# walks long enough to refill the draw buffer, on the uniform and the
# bisect step paths.
WILSON_DIGESTS = [
    (complete_graph(60), "927fcd5e41feafc19e5a290b0b84ab2da643681652a313e5b29a22f2d2d5fcbc"),
    (
        random_connected_graph(80, 160, seed=5),
        "c1229724e5063901b8acb0fd948022dbd2e87194736165ea3fd7283fbf27a815",
    ),
]


def test_sample_tree_wilson_unchanged_per_seed():
    for g, trees in WILSON_TREES:
        assert [sample_tree_wilson(g, s).edge_ids for s in range(len(trees))] == trees
    for g, digest in WILSON_DIGESTS:
        h = hashlib.sha256()
        for s in range(40):
            h.update(repr(sample_tree_wilson(g, s).edge_ids).encode())
        assert h.hexdigest() == digest


def _doubled_c4() -> WeightedGraph:
    """4-cycle with edges 0-1 and 2-3 doubled: every vertex has three entries."""
    return WeightedGraph(
        4, ((0, 1, 1.0), (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (2, 3, 1.0), (0, 3, 1.0))
    )


REGULAR = [
    ("k2", complete_graph(2), 1, 40),
    ("k6", complete_graph(6), 5, 40),
    ("k60", complete_graph(60), 59, 40),
    ("k200", complete_graph(200), 199, 20),
    # Walks of ~n²/3 steps refill the 8192-variate buffer several times.
    ("ring500", ring_graph(500), 2, 6),
    ("doubled_c4", _doubled_c4(), 3, 40),
    # As many cells as an irregular guide, and still none straddles.
    ("k129", complete_graph(129), 128, 12),
]
REGULAR_DEGREE = {name: deg for name, _, deg, _ in REGULAR}
# The regular graphs keep their own walk seed counts; every other graph takes 12.
WALK_SEEDS = {name: seeds for name, _, _, seeds in REGULAR}


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args[0])
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _counting_property(monkeypatch, name):
    calls = []
    build = WeightedGraph.__dict__[name].func

    def counted(g):
        calls.append(g)
        return build(g)

    prop = functools.cached_property(counted)
    prop.__set_name__(WeightedGraph, name)
    monkeypatch.setattr(WeightedGraph, name, prop)
    return calls


def _k40_minus_edge() -> WeightedGraph:
    """Unit weights, degrees 38 and 39: dense, and irregular."""
    return WeightedGraph(40, complete_graph(40).edges[:-1])


@pytest.mark.parametrize(
    "name,g",
    [
        ("cliquestar_2_4", clique_star(2, 4)),
        ("weighted_k4", weighted_k4()),
        ("doubled_triangle", doubled_triangle()),
        ("random_multigraph", random_connected_graph(12, 20, seed=3)),
        ("random_multigraph_80", random_connected_graph(80, 160, seed=5)),
        ("k40_minus_edge", _k40_minus_edge()),
    ],
)
def test_irregular_or_weighted_graphs_take_the_general_loop(name, g, monkeypatch):
    # They read the general step rule off 128-cell guide rows, sparse or
    # dense, in the one walk loop; the reference walk never runs.
    walks = _counting(monkeypatch, treesample, "_wilson_exits")
    general = _counting(monkeypatch, walk_oracle, "_general_exits")
    assert g.exit_guide[0] == 128
    sample_tree_wilson(g, 0)
    assert (len(walks), len(general)) == (1, 0)


def test_loop_choice_is_made_once_per_graph(monkeypatch):
    # The guide's shape stands for the old loop choice: K_8 gets 7 cells
    # and identity rows, chosen once however many trees it draws.
    calls = _counting_property(monkeypatch, "exit_guide")
    walks = _counting(monkeypatch, treesample, "_wilson_exits")
    g = complete_graph(8)
    gen = np.random.Generator(np.random.Philox(0))
    for _ in range(5):
        sample_tree_stream(g, gen)
    for _ in wilson_tree_batches(g, gen, 5):
        pass
    assert calls == [g]
    assert len(walks) == 10
    assert g.exit_guide == (7, [list(range(7))] * 8, False)
    h = complete_graph(8)
    sample_tree_wilson(h, 0)
    assert calls == [g, h]


def test_exit_guide_is_built_once_per_graph(monkeypatch):
    # Regular graphs, and irregular or weighted ones, sparse or dense,
    # all walk the one guided loop; none reaches the reference walk.
    guides = _counting_property(monkeypatch, "exit_guide")
    walks = _counting(monkeypatch, treesample, "_wilson_exits")
    general = _counting(monkeypatch, walk_oracle, "_general_exits")
    graphs = [
        complete_graph(8),
        ring_graph(9),
        _doubled_c4(),
        clique_star(2, 4),
        clique_star(3, 5),
        weighted_k4(),
        doubled_triangle(),
        random_connected_graph(12, 20, seed=3),
        random_connected_graph(80, 160, seed=5),
        _k40_minus_edge(),
    ]
    for g in graphs:
        gen = np.random.Generator(np.random.Philox(0))
        for _ in range(3):
            sample_tree_stream(g, gen)
        for _ in wilson_tree_batches(g, gen, 3):
            pass
    assert guides == graphs
    assert walks == [g for g in graphs for _ in range(6)]
    assert general == []
    assert [g.exit_guide[0] for g in graphs] == [7, 2, 3] + [128] * 7
    h = complete_graph(8)
    sample_tree_wilson(h, 0)
    assert guides == graphs + [h]


class _TopEveryOther:
    """Generator stand-in whose every other variate is numpy's largest, 1 - 2**-53.

    The variates between them are random, so walks still reach the root.
    """

    def __init__(self, seed: int):
        self.gen = np.random.Generator(np.random.Philox(seed))

    def random(self, size):
        r = self.gen.random(size)
        r[::2] = np.nextafter(1.0, 0.0)
        return r


def _tiny_edge_graph(tiny: float) -> WeightedGraph:
    """Vertex 1 has incident weights 1e8 and ``tiny``; 2 leads it to the root."""
    return WeightedGraph(4, ((0, 2, 1e8), (1, 2, 1e8), (1, 3, tiny), (0, 3, 1.0)))


def _dyadic_k4() -> WeightedGraph:
    """Vertices 1 and 2 have running weights (1, 2, 4) of 4.

    Their exit boundaries sit at r = 1/4 and 1/2, exactly on the left
    edges of guide cells 32 and 64; vertex 3's weights are equal.
    """
    return WeightedGraph(
        4, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 2.0), (1, 2, 1.0), (1, 3, 2.0), (2, 3, 2.0))
    )


@pytest.mark.parametrize(
    "name,g",
    [(name, g) for name, g, _, _ in REGULAR if g.n <= 60]
    + [
        ("k5", complete_graph(5)),
        ("k9", complete_graph(9)),
        ("k17", complete_graph(17)),
        ("cliquestar_2_4", clique_star(2, 4)),
        ("star5", star_graph(5)),
        ("weighted_k4", weighted_k4()),
        ("parallel_pair", parallel_pair()),
        ("random_multigraph", random_connected_graph(30, 50, seed=8)),
        ("tiny_1e-8", _tiny_edge_graph(1e-8)),
        ("saturating_1e-9", _tiny_edge_graph(1e-9)),
        ("dyadic_k4", _dyadic_k4()),
        ("weighted_er_60", weighted_er(60, 0.5, 2)),
    ],
)
def test_largest_variate_picks_an_entry_in_range(name, g):
    # r = 1 - 2**-53 gives r * x < x, so the last entry is the furthest
    # either step rule reaches, without a clamp.
    offsets, _, eid = g.csr
    for seed in range(5):
        exits = walk_oracle._general_exits(g, _TopEveryOther(seed))
        assert _wilson_exits(g, _TopEveryOther(seed)) == exits
        check_parent_trees(g, eid[offsets[1:-1] + np.array([exits[1:]])])


GUIDED = SMALL + [
    ("cliquestar_2_4", clique_star(2, 4)),
    ("cliquestar_20_20", clique_star(20, 20)),
    ("weighted_er_200", weighted_er(200, 0.05, 4)),
    ("weighted_er_60", weighted_er(60, 0.5, 2)),
    ("dyadic_k4", _dyadic_k4()),
    ("tiny_1e-8", _tiny_edge_graph(1e-8)),
    ("saturating_1e-9", _tiny_edge_graph(1e-9)),
    ("random_multigraph", random_connected_graph(30, 50, seed=8)),
    ("random_multigraph_80", random_connected_graph(80, 160, seed=5)),
    ("k40_minus_edge", _k40_minus_edge()),
    ("weighted_er_150", weighted_er(150, 0.9, 5)),
]
# Every walked graph; new cases go last so the others keep their ids.
WALKED = GUIDED + [(name, g) for name, g, _, _ in REGULAR] + [
    # 128 cells, none straddling: the walk converts no variate.
    ("p40", path_graph(40)),
]


def _cell_start(cells: int, q: int) -> float:
    """Smallest variate, a multiple of 2**-53, whose cell ``int(r * cells)`` is at least ``q``."""
    k = -(-q * 2**53 // cells)
    while k and int((k - 1) * 2.0**-53 * cells) >= q:
        k -= 1
    while int(k * 2.0**-53 * cells) < q:
        k += 1
    return k * 2.0**-53


@pytest.mark.parametrize("name,g", WALKED)
def test_exit_guide_cells_take_the_step_rule_of_every_variate_in_them(name, g):
    cells, rows, straddles = g.exit_guide
    assert straddles == any(-1 in row for row in rows)
    if name in REGULAR_DEGREE:
        # Every vertex reads one identity row: cell q is the exit q.
        assert cells == REGULAR_DEGREE[name]
        assert all(row == list(range(cells)) for row in rows)
    gen = np.random.Generator(np.random.Philox(1))
    for v in range(1, g.n):
        row = rows[v]
        assert len(row) == cells
        for q, j in enumerate(row):
            lo, hi = _cell_start(cells, q), _cell_start(cells, q + 1) - 2.0**-53
            ends = step_rule(g, v, lo), step_rule(g, v, hi)
            if j < 0:
                assert ends[0] != ends[1]
                continue
            assert ends == (j, j)
            # Variates are multiples of 2**-53 inside the cell.
            span = round((hi - lo) * 2.0**53) + 1
            for k in gen.integers(0, span, size=4).tolist():
                assert step_rule(g, v, lo + k * 2.0**-53) == j


def test_exit_boundaries_on_cell_edges_leave_no_cell_to_bisect():
    rows = _dyadic_k4().exit_guide[1]
    assert rows[1] == rows[2] == [0] * 32 + [1] * 32 + [2] * 64


@pytest.mark.parametrize("name,g", WALKED)
def test_guided_loop_matches_general_loop(name, g):
    for seed in range(WALK_SEEDS.get(name, 12)):
        fast = np.random.Generator(np.random.Philox(seed))
        slow = np.random.Generator(np.random.Philox(seed))
        # Three trees from one stream, so later trees start mid-buffer.
        for _ in range(3):
            assert _wilson_exits(g, fast) == walk_oracle._general_exits(g, slow)
        # Both loops consumed the same variates.
        assert fast.random() == slow.random()


def test_saturating_running_sum_never_picks_past_the_end():
    cumw = _tiny_edge_graph(1e-9).adjacency[1]
    assert cumw[1] == [1e8, 1e8]
    assert bisect.bisect_right(cumw[1], np.nextafter(1.0, 0.0) * cumw[1][-1]) == 0


@pytest.mark.parametrize(
    "name,g", SMALL + [("random_multigraph", random_connected_graph(30, 50, seed=8))]
)
def test_wilson_exits_give_checked_parent_trees(name, g):
    nbrs = g.adjacency[0]
    offsets, nbr, eid = g.csr
    eids = [eid[offsets[v]:offsets[v + 1]].tolist() for v in range(g.n)]
    for seed in range(4):
        exits = _wilson_exits(g, np.random.Generator(np.random.Philox(seed)))
        ids = _wilson_edge_ids(g, np.random.Generator(np.random.Philox(seed)))
        # Vertex v's exit edge sits at column v - 1.
        assert ids == [eids[v][exits[v]] for v in range(1, g.n)]
        check_tree_ids(g, ids)
        at = offsets[1:-1] + np.array([exits[1:]])
        assert eid[at][0].tolist() == ids
        assert nbr[at][0].tolist() == [nbrs[v][exits[v]] for v in range(1, g.n)]
        check_parent_trees(g, eid[at])


@pytest.mark.parametrize("slots", [None, 1, 40])
@pytest.mark.parametrize(
    "name,g", SMALL + [("random_multigraph", random_connected_graph(30, 50, seed=8))]
)
def test_tree_batches_list_the_stream_trees_in_order(name, g, slots, monkeypatch):
    # Whatever the batch size, row i holds tree i of the stream: vertex
    # v's exit edge at column v - 1.
    if slots is not None:
        monkeypatch.setattr(treesample, "_BATCH_SLOTS", slots)
    count = 7
    gen = np.random.Generator(np.random.Philox(3))
    batches = list(wilson_tree_batches(g, gen, count))
    ids = np.concatenate(batches)
    assert ids.shape == (count, g.n - 1)
    per_batch = max(1, (slots or treesample._BATCH_SLOTS) // g.n)
    assert len(batches) == math.ceil(count / per_batch)
    offsets, _, eid = g.csr
    eids = [eid[offsets[v]:offsets[v + 1]].tolist() for v in range(g.n)]
    ref = np.random.Generator(np.random.Philox(3))
    for row_ids in ids.tolist():
        exits = _wilson_exits(g, ref)
        assert row_ids == [eids[v][exits[v]] for v in range(1, g.n)]


@pytest.mark.parametrize("slots", [None, 1, 26])
@pytest.mark.parametrize(
    "name,g", SMALL + [("random_multigraph", random_connected_graph(30, 50, seed=8))]
)
def test_tree_edge_counts_sum_the_stream_trees(name, g, slots, monkeypatch):
    # Oracle: one bincount per SpanningTree of the same stream, summed.
    if slots is not None:
        monkeypatch.setattr(treesample, "_BATCH_SLOTS", slots)
    count = 9
    gen = np.random.Generator(np.random.Philox(21))
    want = sum(
        np.bincount(sample_tree_stream(g, gen).edge_ids, minlength=g.m) for _ in range(count)
    )
    got = tree_edge_counts(g, np.random.Generator(np.random.Philox(21)), count)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def test_check_parent_trees_rejects_non_trees():
    g = complete_graph(4)  # edges 0-1, 0-2, 0-3, 1-2, 1-3, 2-3
    # Star at 0 and the path 0-1-2-3; column v - 1 belongs to vertex v.
    good = [[0, 1, 2], [0, 3, 5]]
    check_parent_trees(g, good)
    check_parent_trees(g, np.zeros((0, 3)))
    # 2 -> 3 -> 2 never reaches the root, though each edge touches its vertex.
    with pytest.raises(ValueError, match="cycle that misses the root"):
        check_parent_trees(g, [[0, 5, 5]])
    # A repeated edge: 1 and 2 both leave by edge 1-2, so they are each
    # other's parents, a 2-cycle.
    with pytest.raises(ValueError, match="cycle that misses the root"):
        check_parent_trees(g, good + [[3, 3, 2]])
    # Edge 3 is 1-2, but its column belongs to vertex 3.
    with pytest.raises(ValueError, match="does not touch"):
        check_parent_trees(g, [[0, 1, 3]])
    with pytest.raises(ValueError, match="edge id out of range"):
        check_parent_trees(g, [[0, 1, 6]])
    with pytest.raises(ValueError, match="edge id out of range"):
        check_parent_trees(g, [[-1, 1, 2]])
    with pytest.raises(ValueError, match=r"\(trees, 3\)"):
        check_parent_trees(g, [[0, 1]])
    with pytest.raises(ValueError, match=r"\(trees, 3\)"):
        check_parent_trees(g, [0, 1, 2])
    # The old layout with a column for the root is refused, not misread.
    with pytest.raises(ValueError, match=r"\(trees, 3\)"):
        check_parent_trees(g, [[0, 0, 1, 2]])


def test_spanning_tree_sorts_ids_and_weights_together():
    g = weighted_triangle()
    tree = SpanningTree(g, (2, 0), (2.0, 1.0), "original")
    assert tree.edge_ids == (0, 2)
    assert tree.weights == (1.0, 2.0)


def test_tree_line_round_trip():
    g = weighted_triangle()
    tree = reweight_tree(
        SpanningTree(g, (0, 2), (1.0, 2.0), "original"), leverage_scores(g)
    )
    line = format_tree_line(tree)
    back = parse_tree_line(line, g, "inverse_leverage")
    assert back.edge_ids == tree.edge_ids
    assert back.weights == tree.weights
    assert back.weight_mode == "inverse_leverage"


def test_parse_tree_line_rejects_garbage():
    g = triangle()
    with pytest.raises(ValueError):
        parse_tree_line("not a tree line", g, "original")
    with pytest.raises(ValueError):
        parse_tree_line("4; 0 1; 1 1", g, "original")  # vertex count mismatch
    with pytest.raises(ValueError, match="positive and finite"):
        parse_tree_line("3; 0 1; inf 1e400", g, "original")  # both weights overflow
