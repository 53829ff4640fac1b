"""Leverage scores and conditioning by contraction."""

import math

import mpmath
import numpy as np
import pytest

from corpus import (
    SHRINKING,
    SMALL,
    doubled_triangle,
    parallel_pair,
    path_graph,
    random_connected_graph,
    star_graph,
    triangle,
    weighted_er,
    weighted_k4,
    weighted_triangle,
)
from frame_oracle import pinv_power
from quotient_oracle import ContractionState, forests, quotient_marginals
from treespark.graph import (
    SizeGuardError,
    WeightedGraph,
    clique_star,
    complete_graph,
    erdos_renyi_connected,
    laplacian,
    read_graph,
    ring_graph,
)
from treespark.leverage import (
    InvalidConditioningError,
    TransferCurrent,
    _check_scores,
    _laplacian_pinv,
    conditional_marginals,
    laplacian_frame,
    leverage_scores,
)
from treespark.spectral import eig_sym


def test_tree_leverage_all_one():
    for g in (path_graph(5), star_graph(6)):
        assert np.allclose(leverage_scores(g), 1.0, atol=1e-12)


def test_triangle_leverage():
    assert np.allclose(leverage_scores(triangle()), 2.0 / 3.0, atol=1e-12)


def test_weighted_triangle_leverage_frozen():
    # Series/parallel reduction gives exactly (3/5, 3/5, 4/5).
    got = leverage_scores(weighted_triangle())
    assert np.allclose(got, [0.6, 0.6, 0.8], atol=1e-12)


def test_parallel_pair_leverage():
    got = leverage_scores(parallel_pair())
    assert np.allclose(got, np.array([1.0, 2.0, 0.5]) / 3.5, atol=1e-12)


@pytest.mark.parametrize("name,g", SMALL)
def test_foster_identity(name, g):
    total = math.fsum(leverage_scores(g).tolist())
    assert abs(total - (g.n - 1)) <= 1e-8


@pytest.mark.parametrize("name,g", SMALL)
def test_leverage_in_unit_interval(name, g):
    vals = leverage_scores(g)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0 + 1e-10)
    assert vals.shape == (g.m,) and not vals.flags.writeable


def test_profile_validation():
    n = triangle().n
    with pytest.raises(ValueError):
        _check_scores(np.array([0.5, 0.5, 0.5]), n)  # sum is 1.5, not 2
    with pytest.raises(ValueError):
        _check_scores(np.array([0.0, 1.0, 1.0]), n)  # zero score
    with pytest.raises(ValueError):
        _check_scores(np.array([1.2, 0.4, 0.4]), n)  # above 1
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must lie in"):
            _check_scores(np.array([bad, 1.0, 1.0]), n)


def test_empty_state_matches_leverage():
    for _, g in SMALL[:8]:
        state = ContractionState.initial(g)
        assert np.allclose(
            conditional_marginals(g, state.contracted), leverage_scores(g), atol=1e-12
        )


def test_triangle_conditional_frozen():
    g = triangle()
    state = ContractionState.from_edges(g, [0])
    assert np.allclose(conditional_marginals(g, state.contracted), [1.0, 0.5, 0.5], atol=1e-12)


def test_weighted_triangle_conditional_frozen():
    # Contracting edge 0-1 leaves edges 0-2 and 1-2 parallel between the
    # merged block and vertex 2; marginals are the weight shares 1/3, 2/3.
    g = weighted_triangle()
    state = ContractionState.from_edges(g, [0])
    got = conditional_marginals(g, state.contracted)
    assert np.allclose(got, [1.0, 1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


@pytest.mark.parametrize("name,g", SMALL)
def test_conditioning_never_raises_marginals(name, g):
    # Conditioning on one edge can only shrink the other marginals.
    base = leverage_scores(g)
    for eid in range(g.m):
        if base[eid] > 1.0 - 1e-9:
            continue  # bridge: conditioning is vacuous
        state = ContractionState.from_edges(g, [eid])
        cond = conditional_marginals(g, state.contracted)
        for j in range(g.m):
            if j == eid:
                assert cond[j] == 1.0
            else:
                assert cond[j] <= base[j] + 1e-10


def test_self_loop_marginal_zero():
    g = triangle()
    state = ContractionState.from_edges(g, [0, 1])
    got = conditional_marginals(g, state.contracted)
    assert got[0] == 1.0 and got[1] == 1.0
    assert got[2] == 0.0


def test_cycle_contraction_rejected():
    g = triangle()
    with pytest.raises(InvalidConditioningError):
        ContractionState.from_edges(g, [0, 1, 2])


def test_double_contraction_rejected():
    g = triangle()
    state = ContractionState.from_edges(g, [0])
    with pytest.raises(InvalidConditioningError):
        state.contract(0)


def test_contract_out_of_range():
    with pytest.raises(ValueError):
        ContractionState.initial(triangle()).contract(99)


def test_conditional_marginals_rejects_bad_forests():
    g = triangle()
    with pytest.raises(InvalidConditioningError, match="closes a cycle"):
        conditional_marginals(g, [0, 1, 2])
    with pytest.raises(InvalidConditioningError, match="already contracted"):
        conditional_marginals(g, [0, 0])
    with pytest.raises(ValueError, match="out of range"):
        conditional_marginals(g, [99])


def test_transfer_current_rejects_bad_contractions():
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            TransferCurrent(triangle()).contract(bad)
    tc = TransferCurrent(triangle())
    tc = tc.contract(0)
    with pytest.raises(InvalidConditioningError, match="already contracted"):
        tc.contract(0)
    tc = tc.contract(1)
    with pytest.raises(InvalidConditioningError, match="closes a cycle"):
        tc.contract(2)


def test_contract_returns_a_new_state_and_leaves_its_input_alone():
    g = weighted_k4()
    tc = TransferCurrent(g)
    y, ends, contracted = tc.y.copy(), tc.ends.copy(), tc.contracted.copy()
    nxt = tc.contract(2)
    assert isinstance(nxt, TransferCurrent) and nxt is not tc
    assert np.array_equal(tc.y, y) and np.array_equal(tc.ends, ends)
    assert np.array_equal(tc.contracted, contracted)
    assert nxt.contracted[2] and not tc.contracted[2]
    # Two children of one state are independent of each other.
    other = tc.contract(0)
    assert not other.contracted[2] and not nxt.contracted[0]
    assert np.array_equal(nxt.marginals(), conditional_marginals(g, [2]))


def test_chained_contraction_order_independent():
    gen = np.random.Generator(np.random.Philox(41))
    for _, g in SMALL:
        if g.n < 3 or g.m > 12:
            continue
        lev = leverage_scores(g)
        # grow a random 2-edge forest
        for _ in range(4):
            ids = [int(i) for i in gen.permutation(g.m)[:2]]
            try:
                fwd = ContractionState.from_edges(g, ids)
                rev = ContractionState.from_edges(g, ids[::-1])
            except InvalidConditioningError:
                continue
            a = conditional_marginals(g, fwd.contracted)
            b = conditional_marginals(g, rev.contracted)
            assert np.abs(a - b).max() <= 1e-10
            for j in range(g.m):
                if j in ids:
                    assert a[j] == 1.0
                else:
                    assert a[j] <= lev[j] + 1e-10


@pytest.mark.parametrize(
    "name,g",
    SHRINKING
    + [
        ("random_multi_a", random_connected_graph(5, 4, 2)),
        ("random_multi_b", random_connected_graph(6, 3, 8)),
    ],
)
def test_conditional_marginals_match_quotient_oracle(name, g):
    # Every forest: transfer-current updates against leverage scores of
    # the explicitly contracted multigraph.  Loops and contracted edges
    # are decided from the vertex blocks, so they hold exactly.
    for state in forests(g):
        got = conditional_marginals(g, state.contracted)
        assert np.abs(got - quotient_marginals(g, state)).max() <= 1e-12
        _, _, _, loops = state.quotient()
        assert all(got[e] == 0.0 for e in loops)
        assert all(got[e] == 1.0 for e in state.contracted)


@pytest.mark.parametrize(
    "name,g",
    [
        ("doubled_triangle", doubled_triangle()),
        ("weighted_k4", weighted_k4()),
        ("random_multi_a", random_connected_graph(5, 4, 2)),
        ("random_multi_b", random_connected_graph(6, 3, 8)),
    ],
)
def test_marginals_after_matches_one_more_contraction(name, g):
    for state in forests(g):
        tc = TransferCurrent(g)
        for eid in state.contracted:
            tc = tc.contract(eid)
        cands = tc.candidates()
        rows = tc.marginals_after(cands)
        for row, c in zip(rows, cands):
            nxt = state.contract(int(c))
            _, _, _, loops = nxt.quotient()
            assert np.abs(row - quotient_marginals(g, nxt)).max() <= 1e-12
            assert all(row[e] == 0.0 for e in loops)
            assert all(row[e] == 1.0 for e in nxt.contracted)


@pytest.mark.parametrize(
    "name,g",
    [(name, g) for name, g in SMALL if g.m <= 10]
    + [
        ("random_multi_a", random_connected_graph(5, 4, 2)),
        ("random_multi_b", random_connected_graph(6, 3, 8)),
    ],
)
def test_marginals_after_rows_equal_contracted_marginals_bit_for_bit(name, g):
    # A trace takes each step's marginals from the row it already has;
    # that row must be the contracted state's own marginals exactly.
    for state in forests(g):
        tc = TransferCurrent(g)
        for eid in state.contracted:
            tc = tc.contract(eid)
        cands = tc.candidates()
        for row, c in zip(tc.marginals_after(cands), cands):
            assert np.array_equal(row, tc.contract(int(c)).marginals())


@pytest.mark.parametrize(
    "name,g",
    SHRINKING
    + [
        ("random_multi_a", random_connected_graph(5, 4, 2)),
        ("random_multi_b", random_connected_graph(6, 3, 8)),
    ],
)
def test_ends_are_the_quotient_blocks_of_each_endpoint(name, g):
    # Along every forest, the two rows of ``ends`` name the same vertex
    # partition as the oracle's block of each endpoint.
    us, vs, _ = g.edge_arrays
    for state in forests(g):
        tc = TransferCurrent(g)
        for eid in state.contracted:
            tc = tc.contract(eid)
        _, vmap, _, _ = state.quotient()
        want = np.array(vmap)[np.array((us, vs))]
        pairs = set(zip(tc.ends.ravel().tolist(), want.ravel().tolist()))
        assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


def test_quotient_bookkeeping_parallel_edges():
    g = weighted_triangle()
    quot, vmap, eid_map, loops = ContractionState.from_edges(g, [0]).quotient()
    assert quot.n == 2 and quot.m == 2
    assert vmap[0] == vmap[1] != vmap[2]
    assert sorted(eid_map) == [1, 2]
    assert loops == []
    # both survivors run between the merged block and vertex 2
    assert {quot.edges[q][:2] for q in eid_map.values()} == {(0, 1)}


def test_quotient_single_block():
    g = path_graph(3)
    quot, _, eid_map, loops = ContractionState.from_edges(g, [0, 1]).quotient()
    assert quot is None and eid_map == {} and loops == []


def test_frame_cache_keys_on_the_graph_object_and_holds_one_frame():
    g, twin = weighted_triangle(), weighted_triangle()
    frame = laplacian_frame(g)
    assert laplacian_frame(g) is frame
    other = laplacian_frame(twin)
    assert other is not frame
    assert np.array_equal(other, frame)
    assert laplacian_frame.cache_info().currsize == 1


def test_shared_decomposition_builds_one_read_only_frame():
    g = random_connected_graph(30, 40, seed=21)
    scaled = laplacian_frame(g)
    # Every caller gets the same cached frame array.
    assert laplacian_frame(g) is scaled
    assert scaled.shape == (g.n, g.n - 1)
    with pytest.raises(ValueError, match="read-only"):
        scaled[0, 0] = 0.0
    # M = [0; C^-T] whitens L_G.
    assert np.allclose(scaled.T @ laplacian(g) @ scaled, np.eye(g.n - 1), atol=1e-10)
    assert not scaled[0].any()


def _direct_frame(g: WeightedGraph) -> np.ndarray:
    """``C^-T`` from one general inverse of the grounded Cholesky factor."""
    return np.tril(np.linalg.inv(np.linalg.cholesky(laplacian(g)[1:, 1:]))).T


@pytest.mark.parametrize(
    "name,g",
    [
        ("er300", erdos_renyi_connected(300, 0.05, 3)),
        ("cliquestar_20_20", clique_star(20, 20)),
        ("k400", complete_graph(400)),
        ("weighted_er1000", weighted_er(1000, 0.01, 3)),
    ],
)
def test_frame_by_triangular_halves_matches_the_direct_inverse(name, g):
    scaled = laplacian_frame(g)
    want = _direct_frame(g)
    assert np.abs(scaled[1:] - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(scaled.T @ laplacian(g) @ scaled - np.eye(g.n - 1)).max() <= 1e-10


@pytest.mark.parametrize(
    "name,g",
    [
        ("k129", complete_graph(129)),
        ("weighted_er129", weighted_er(129, 0.1, 5)),
        ("random_multigraph", random_connected_graph(30, 40, seed=21)),
    ],
)
def test_frames_of_at_most_129_vertices_take_one_direct_inverse(name, g):
    assert np.array_equal(laplacian_frame(g)[1:], _direct_frame(g))


@pytest.mark.parametrize("heavy", [1.0, 1e6])
def test_dense_leverage_matches_frame_row_differences(heavy):
    # K_60 takes the Gram-block path.  A heavy edge far from the grounded
    # vertex 0 makes the Gram form cancel there, so that edge has to be
    # redone as a row difference to stay this close.
    g = complete_graph(60)
    g = WeightedGraph(g.n, g.edges[:-1] + ((58, 59, heavy),))
    scaled = laplacian_frame(g)
    us, vs, ws = g.edge_arrays
    want = ws * ((scaled[us] - scaled[vs]) ** 2).sum(axis=1)
    assert np.all(np.abs(leverage_scores(g) - want) <= 1e-12 * want)


def test_leverage_scores_survive_a_weight_range_of_1e400(tmp_path):
    # A 4-cycle is series-parallel: edge e sees the other three in
    # series, so lev_e = w_e S_e / (1 + w_e S_e) with S_e = sum_{f != e}
    # 1 / w_f.  An eigenvalue cutoff relative to the 1e200 edge would
    # read the O(1) eigenvalues as zero; the grounded factor has none.
    path = tmp_path / "range.graph"
    path.write_text("4 4\n0 1 1e200\n1 2 1\n2 3 1e-200\n3 0 1\n")
    g = read_graph(str(path))
    got = leverage_scores(g)
    with mpmath.workdps(50):
        ws = [mpmath.mpf(w) for _, _, w in g.edges]
        for e, w in enumerate(ws):
            s = mpmath.fsum(1 / x for f, x in enumerate(ws) if f != e)
            want = w * s / (1 + w * s)
            assert abs(got[e] - want) <= 1e-12 * want


def test_transfer_current_is_exact_across_a_weight_range_of_1e16():
    # Exact leverage scores from the grounded Laplacian inverted at 50
    # digits.  Eigenvalues spread over 16 decades leave an
    # eigendecomposition's L^+ about 6e-10 off on the 1e8 edge.
    g = WeightedGraph(5, ((0, 1, 1e8), (1, 2, 1), (2, 3, 1e-8), (3, 4, 1), (0, 4, 2), (1, 3, 3)))
    got = TransferCurrent(g).marginals()
    with mpmath.workdps(50):
        lap = mpmath.matrix(g.n, g.n)
        for u, v, w in g.edges:
            w = mpmath.mpf(w)
            lap[u, u] += w
            lap[v, v] += w
            lap[u, v] -= w
            lap[v, u] -= w
        grounded = mpmath.inverse(lap[1:, 1:])
        inv = mpmath.matrix(g.n, g.n)
        inv[1:, 1:] = grounded
        for e, (u, v, w) in enumerate(g.edges):
            want = mpmath.mpf(w) * (inv[u, u] + inv[v, v] - 2 * inv[u, v])
            assert abs(got[e] - want) <= 1e-12 * want


def _eig_pinv_and_transfer_current(g):
    pinv = pinv_power(eig_sym(laplacian(g)), 1)
    us, vs, ws = g.edge_arrays
    incidence = np.zeros((g.m, g.n))
    incidence[np.arange(g.m), us] = np.sqrt(ws)
    incidence[np.arange(g.m), vs] = -np.sqrt(ws)
    return pinv, incidence @ pinv @ incidence.T


@pytest.mark.parametrize("name,g", SMALL)
def test_transfer_current_matches_eigendecomposition_oracle(name, g):
    _, want = _eig_pinv_and_transfer_current(g)
    got = TransferCurrent(g).y
    assert np.array_equal(got, got.T)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("name,g", SMALL)
def test_laplacian_pinv_matches_eigendecomposition_oracle(name, g):
    want, _ = _eig_pinv_and_transfer_current(g)
    assert np.abs(_laplacian_pinv(g) - want).max() <= 1e-12 * np.abs(want).max()


def test_leverage_scores_refuse_a_graph_the_grounded_factor_cannot_carry():
    # Two 1e20 edges on opposite sides of an 8-cycle: whichever vertex
    # is grounded, one of them lies off it and swamps its neighbours.
    edges = [(v, (v + 1) % 8, 1e20 if v in (1, 5) else 1.0) for v in range(8)]
    with pytest.raises(ValueError, match="not numerically positive definite"):
        leverage_scores(WeightedGraph(8, edges))


def test_leverage_scores_refuse_scores_that_miss_foster_identity():
    # A 1e8 edge halfway round a 50-cycle from the grounded vertex 0: the
    # factor survives, but the scores sum 8e-8 short of n - 1.
    edges = [(v, (v + 1) % 50, 1e8 if v == 25 else 1.0) for v in range(50)]
    with pytest.raises(ValueError, match=r"leverage scores sum to 48\.9999999\d*, expected 49"):
        leverage_scores(WeightedGraph(50, edges))


def test_size_guard_on_large_graph():
    big = ring_graph(2001)
    with pytest.raises(SizeGuardError):
        leverage_scores(big)
