"""Wilson sampling, exact enumeration, reweighting and tree averages."""

import collections
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
    triangle,
    weighted_k4,
    weighted_triangle,
)
from enumeration_oracle import enumerate_trees
from frame_oracle import pinv_power
from treespark.graph import (
    SizeGuardError,
    WeightedGraph,
    clique_star,
    complete_graph,
    laplacian,
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
    edge_frequencies,
    format_tree_line,
    parse_tree_line,
    reweight_tree,
    sample_tree_stream,
    sample_tree_wilson,
    tree_laplacian,
    wilson_tree_batches,
)


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
    want = leverage_scores(g).values
    assert np.abs(got - want).max() <= 1e-10


def test_enumerate_size_guard():
    with pytest.raises(SizeGuardError):
        enumerate_trees(ring_graph(23))


def test_tree_frequencies_unit_triangle():
    g = triangle()
    gen = np.random.Generator(np.random.Philox(101))
    counts = collections.Counter(
        sample_tree_stream(g, gen).edge_ids for _ in range(300000)
    )
    for ids in ((0, 1), (0, 2), (1, 2)):
        assert counts[ids] / 300000 == pytest.approx(1.0 / 3.0, abs=0.005)


def test_tree_frequencies_weighted_triangle():
    g = weighted_triangle()
    gen = np.random.Generator(np.random.Philox(103))
    counts = collections.Counter(
        sample_tree_stream(g, gen).edge_ids for _ in range(300000)
    )
    want = {(0, 1): 0.2, (0, 2): 0.4, (1, 2): 0.4}
    for ids, p in want.items():
        assert counts[ids] / 300000 == pytest.approx(p, abs=0.005)


def test_edge_frequencies_match_leverage_within_4_sigma():
    g = complete_graph(4)
    samples = 200000
    freqs = edge_frequencies(g, samples, 107)
    lev = leverage_scores(g).values
    for eid in range(g.m):
        sigma = math.sqrt(lev[eid] * (1.0 - lev[eid]) / samples)
        assert abs(freqs[eid] - lev[eid]) <= 4.0 * sigma + 1e-9


def test_inverse_leverage_average_is_unbiased():
    # E[L_T] with inverse-leverage weights equals L_G; per-edge sample
    # means must sit within five exact standard errors of the leverage.
    g = complete_graph(5)
    samples = 100000
    freqs = edge_frequencies(g, samples, 109)
    lev = leverage_scores(g).values
    for eid in range(g.m):
        sigma = math.sqrt(lev[eid] * (1.0 - lev[eid]) / samples)
        assert abs(freqs[eid] - lev[eid]) <= 5.0 * sigma


def test_reweight_unit_triangle():
    g = triangle()
    profile = leverage_scores(g)
    tree = SpanningTree(g, (0, 1), (1.0, 1.0), "original")
    got = reweight_tree(tree, profile)
    assert got.weight_mode == "inverse_leverage"
    assert got.weights == pytest.approx((1.5, 1.5))


def test_reweight_complete_graph_halves_n():
    g = complete_graph(6)
    profile = leverage_scores(g)
    tree = sample_tree_wilson(g, 3)
    got = reweight_tree(tree, profile)
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
    lap = tree_laplacian(tree)
    want = np.array([[1.0, -1.0, 0.0], [-1.0, 3.0, -2.0], [0.0, -2.0, 2.0]])
    assert np.allclose(lap, want, atol=1e-12)


def test_average_single_tree():
    g = complete_graph(4)
    tree = sample_tree_wilson(g, 5)
    assert np.allclose(average_trees([tree]), tree_laplacian(tree), atol=1e-12)


def test_average_probability_weighted_expectation_exact():
    # Probability-weighted average of all reweighted trees is exactly L_G.
    g = weighted_triangle()
    profile = leverage_scores(g)
    table = enumerate_trees(g)
    trees = []
    for ids in table.trees:
        ws = tuple(g.edges[e][2] for e in ids)
        trees.append(reweight_tree(SpanningTree(g, ids, ws, "original"), profile))
    avg = average_trees(trees, probabilities=table.probabilities)
    assert np.abs(avg - laplacian(g)).max() <= 1e-10


def test_average_identical_trees_idempotent():
    g = complete_graph(4)
    tree = sample_tree_wilson(g, 5)
    assert np.allclose(average_trees([tree, tree]), tree_laplacian(tree), atol=1e-12)


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
    h_tree = SpanningTree(complete_graph(4), (0, 1, 2), (1.0, 1.0, 1.0), "original")
    with pytest.raises(ValueError):
        average_trees([t1, h_tree])  # different parent graphs


@pytest.mark.parametrize("name,g", [(n, g) for n, g in SMALL if g.n >= 3])
def test_normalized_edge_matrices_have_unit_norm(name, g):
    lev = leverage_scores(g).values
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
    with pytest.raises(ValueError):
        SpanningTree(g, (0, 1, 2), (1.0, 1.0, 1.0), "resampled")  # bad mode


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
# just its law, so these must not move.
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
        check_parent_trees(g, nbr[at], eid[at])


@pytest.mark.parametrize("slots", [None, 1, 40])
@pytest.mark.parametrize(
    "name,g", SMALL + [("random_multigraph", random_connected_graph(30, 50, seed=8))]
)
def test_tree_batches_list_the_stream_trees_in_order(name, g, slots, monkeypatch):
    # Whatever the batch size, row i holds tree i of the stream: vertex
    # v's parent and exit edge at column v - 1.
    if slots is not None:
        monkeypatch.setattr(treesample, "_BATCH_SLOTS", slots)
    count = 7
    gen = np.random.Generator(np.random.Philox(3))
    batches = list(wilson_tree_batches(g, gen, count))
    parents = np.concatenate([p for p, _ in batches])
    ids = np.concatenate([e for _, e in batches])
    assert parents.shape == ids.shape == (count, g.n - 1)
    per_batch = max(1, (slots or treesample._BATCH_SLOTS) // g.n)
    assert len(batches) == math.ceil(count / per_batch)
    nbrs = g.adjacency[0]
    offsets, _, eid = g.csr
    eids = [eid[offsets[v]:offsets[v + 1]].tolist() for v in range(g.n)]
    ref = np.random.Generator(np.random.Philox(3))
    for row_parents, row_ids in zip(parents.tolist(), ids.tolist()):
        exits = _wilson_exits(g, ref)
        assert row_parents == [nbrs[v][exits[v]] for v in range(1, g.n)]
        assert row_ids == [eids[v][exits[v]] for v in range(1, g.n)]


def test_check_parent_trees_rejects_non_trees():
    g = complete_graph(4)  # edges 0-1, 0-2, 0-3, 1-2, 1-3, 2-3
    # Star at 0 and the path 0-1-2-3; column v - 1 belongs to vertex v.
    good_p = [[0, 0, 0], [0, 1, 2]]
    good_e = [[0, 1, 2], [0, 3, 5]]
    check_parent_trees(g, good_p, good_e)
    check_parent_trees(g, np.zeros((0, 3)), np.zeros((0, 3)))
    # 2 -> 3 -> 2 never reaches the root, though each edge joins its ends.
    with pytest.raises(ValueError, match="cycle that misses the root"):
        check_parent_trees(g, [[0, 3, 2]], [[0, 5, 5]])
    # A repeated edge: 1 and 2 both leave by edge 1-2, so they are each
    # other's parents, a 2-cycle.
    with pytest.raises(ValueError, match="cycle that misses the root"):
        check_parent_trees(g, good_p + [[2, 1, 0]], good_e + [[3, 3, 2]])
    # Parents form a tree, but vertex 3's edge 1-3 does not join 3 to 0.
    with pytest.raises(ValueError, match="does not join"):
        check_parent_trees(g, [[0, 0, 0]], [[0, 1, 4]])
    # A vertex that is its own parent.
    with pytest.raises(ValueError, match="does not join"):
        check_parent_trees(g, [[0, 2, 0]], [[0, 1, 2]])
    with pytest.raises(ValueError, match="parent vertex out of range"):
        check_parent_trees(g, [[0, 4, 0]], [[0, 1, 2]])
    with pytest.raises(ValueError, match="parent vertex out of range"):
        check_parent_trees(g, [[-1, 0, 0]], [[0, 1, 2]])
    with pytest.raises(ValueError, match="edge id out of range"):
        check_parent_trees(g, [[0, 0, 0]], [[0, 1, 6]])
    with pytest.raises(ValueError, match="matching"):
        check_parent_trees(g, [[0, 0]], [[0, 1]])
    with pytest.raises(ValueError, match="matching"):
        check_parent_trees(g, [[0, 0, 0]], [[0, 1, 2], [0, 1, 2]])
    # The old layout with a column for the root is refused, not misread.
    with pytest.raises(ValueError, match="matching"):
        check_parent_trees(g, [[0, 0, 0, 0]], [[0, 0, 1, 2]])


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
