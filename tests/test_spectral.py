"""Symmetric eigendecomposition, pseudo square roots, pencils, PSD order."""

import numpy as np
import pytest

from corpus import SMALL, triangle, weighted_triangle
from enumeration_oracle import enumerate_trees
from frame_oracle import eig_frame, pinv_power
from psd_order_oracle import random_pairs, range_psd_leq
from treespark.graph import WeightedGraph, complete_graph, laplacian
from treespark.spectral import (
    _opnorm,
    check_symmetric_triangle,
    eig_sym,
    normalized_pencil,
    psd_leq,
)
from treespark.leverage import laplacian_frame, leverage_scores


def _random_symmetric(gen, n, scale=1.0):
    a = gen.uniform(-scale, scale, size=(n, n))
    return (a + a.T) / 2.0


def test_eig_sym_identity():
    dec = eig_sym(np.eye(4))
    assert np.allclose(dec.eigenvalues, 1.0)
    assert np.allclose(dec.eigenvectors @ dec.eigenvectors.T, np.eye(4), atol=1e-12)


def test_eig_sym_triangle_laplacian():
    dec = eig_sym(laplacian(triangle()))
    assert np.allclose(sorted(dec.eigenvalues), [0.0, 3.0, 3.0], atol=1e-10)


def test_eig_sym_path3_laplacian():
    from corpus import path_graph

    dec = eig_sym(laplacian(path_graph(3)))
    assert np.allclose(sorted(dec.eigenvalues), [0.0, 1.0, 3.0], atol=1e-10)


@pytest.mark.parametrize("name,g", SMALL)
def test_eig_sym_reconstructs(name, g):
    lap = laplacian(g)
    dec = eig_sym(lap)
    recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
    scale = max(np.abs(dec.eigenvalues).max(), 1.0)
    assert np.abs(recon - lap).max() <= 1e-10 * scale
    gram = dec.eigenvectors.T @ dec.eigenvectors
    assert np.abs(gram - np.eye(g.n)).max() <= 1e-10


def test_eig_sym_rejects_asymmetric():
    with pytest.raises(ValueError):
        eig_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="need a square matrix"):
        eig_sym(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eig_sym_rejects_non_finite(bad):
    lap = laplacian(complete_graph(4))
    lap[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        eig_sym(lap)


def test_eig_sym_deterministic():
    gen = np.random.Generator(np.random.Philox(3))
    a = _random_symmetric(gen, 6)
    d1, d2 = eig_sym(a), eig_sym(a)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_pinv_sqrt_identity_and_diag():
    assert np.allclose(pinv_power(eig_sym(np.eye(3)), 0.5), np.eye(3), atol=1e-12)
    got = pinv_power(eig_sym(np.diag([0.0, 4.0])), 0.5)
    assert np.allclose(got, np.diag([0.0, 0.5]), atol=1e-12)
    got = pinv_power(eig_sym(np.diag([0.0, 4.0])), 1)
    assert np.allclose(got, np.diag([0.0, 0.25]), atol=1e-12)


def test_pinv_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        pinv_power(eig_sym(np.diag([-1.0, 2.0])), 0.5)


@pytest.mark.parametrize("name,g", SMALL)
def test_pinv_sqrt_projects_onto_range(name, g):
    lap = laplacian(g)
    p = pinv_power(eig_sym(lap), 0.5)
    pi = np.eye(g.n) - np.ones((g.n, g.n)) / g.n
    # P L P must be the projector onto the complement of the all-ones line.
    assert np.abs(p @ lap @ p - pi).max() <= 1e-9


def test_pinv_sqrt_complete_graph_closed_form():
    n = 5
    p = pinv_power(eig_sym(laplacian(complete_graph(n))), 0.5)
    pi = np.eye(n) - np.ones((n, n)) / n
    assert np.abs(p - pi / np.sqrt(n)).max() <= 1e-10


@pytest.mark.parametrize("name,g", SMALL)
def test_pencil_identity_case(name, g):
    lap = laplacian(g)
    lo, hi = normalized_pencil(eig_frame(lap), lap)
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-9)


def test_pencil_scaling():
    lap = laplacian(complete_graph(6))
    lo, hi = normalized_pencil(eig_frame(lap), 2.0 * lap)
    assert lo == pytest.approx(2.0, abs=1e-9)
    assert hi == pytest.approx(2.0, abs=1e-9)


def test_pencil_triangle_tree_frozen():
    # Spanning tree {0-1, 1-2} of the unit triangle at inverse-leverage
    # weight 3/2 against the triangle itself.  The conjugated matrix is
    # (1/3) L_T with tree-path eigenvalues (3/2)*{0, 1, 3}, so the
    # pencil extremes are exactly (1/2, 3/2).
    g = triangle()
    lt = 1.5 * laplacian(WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0))))
    lo, hi = normalized_pencil(eig_frame(laplacian(g)), lt)
    assert lo == pytest.approx(0.5, abs=1e-9)
    assert hi == pytest.approx(1.5, abs=1e-9)


def test_pencil_rank_deficient_h():
    # L_H supported on a strict subset of vertices: smallest positive
    # pencil eigenvalue collapses to zero (H does not span the range).
    n = 4
    lap_g = laplacian(complete_graph(n))
    lap_h = np.zeros((n, n))
    lap_h[:2, :2] = [[1.0, -1.0], [-1.0, 1.0]]
    lo, hi = normalized_pencil(eig_frame(lap_g), lap_h)
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert hi > 0.0


def test_pencil_rejects_a_zero_left_laplacian():
    with pytest.raises(ValueError, match="left Laplacian is identically zero"):
        normalized_pencil(eig_frame(np.zeros((3, 3))), np.zeros((3, 3)))


def test_pencil_rejects_h_that_leaks_into_the_null_space():
    # I + L_G does not vanish on the all-ones null vector of L_G.
    lap = laplacian(complete_graph(4))
    with pytest.raises(ValueError, match="does not vanish on the null space"):
        normalized_pencil(eig_frame(lap), lap + np.eye(4))


def test_frame_is_cached_read_only_and_whitens_the_range():
    g = weighted_triangle()
    lap = laplacian(g)
    scaled = laplacian_frame(g)
    assert laplacian_frame(g) is laplacian_frame(g)
    assert scaled.shape == (3, 2)
    assert not scaled.flags.writeable
    assert np.allclose(scaled.T @ lap @ scaled, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pencil_rejects_non_finite_h(bad):
    lap = laplacian(complete_graph(4))
    lap_h = 2.0 * lap
    lap_h[1, 2] = lap_h[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        normalized_pencil(eig_frame(lap), lap_h)


def test_opnorm_stack_matches_single_matrices():
    gen = np.random.Generator(np.random.Philox(9))
    stack = np.array([_random_symmetric(gen, 5) for _ in range(6)]).reshape(2, 3, 5, 5)
    norms = _opnorm(stack)
    assert norms.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        single = _opnorm(stack[idx])
        assert isinstance(single, float)
        assert norms[idx] == single
        assert single == pytest.approx(np.linalg.norm(stack[idx], 2), rel=1e-12)
    assert _opnorm(np.zeros((0, 0))) == 0.0
    assert _opnorm(np.zeros((3, 0, 0))).tolist() == [0.0, 0.0, 0.0]


def test_psd_leq_trivial_orders():
    gen = np.random.Generator(np.random.Philox(11))
    a = _random_symmetric(gen, 5)
    psd = a @ a.T
    verdict = psd_leq(np.zeros((5, 5)), psd)
    assert verdict.holds and verdict.witness_gap >= -1e-12
    refl = psd_leq(psd, psd)
    assert refl.holds
    assert refl.witness_gap == pytest.approx(0.0, abs=1e-9)


def test_psd_leq_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="shape mismatch"):
        psd_leq(np.eye(2), np.eye(3))


def test_psd_leq_incomparable_pair():
    verdict = psd_leq(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))
    assert not verdict.holds
    assert verdict.witness_gap == pytest.approx(-1.0, abs=1e-9)
    assert verdict.scale == pytest.approx(2.0)


def test_psd_leq_every_triangle_tree_below_triple():
    g = triangle()
    lap = laplacian(g)
    table = enumerate_trees(g)
    lev = leverage_scores(g)
    for ids in table.trees:
        lt = np.zeros((3, 3))
        for eid in ids:
            u, v, w = g.edges[eid]
            b = np.zeros(3)
            b[u], b[v] = 1.0, -1.0
            lt += (w / lev[eid]) * np.outer(b, b)
        assert psd_leq(lt, 3.0 * lap).holds


def test_psd_leq_transitive_on_chains():
    gen = np.random.Generator(np.random.Philox(23))
    for _ in range(25):
        a = _random_symmetric(gen, 6)
        p1 = _random_symmetric(gen, 6)
        p2 = _random_symmetric(gen, 6)
        b = a + p1 @ p1.T
        c = b + p2 @ p2.T
        assert psd_leq(a, b).holds
        assert psd_leq(b, c).holds
        assert psd_leq(a, c).holds


def test_psd_leq_antisymmetry():
    # A <= B and B <= A hold together only when A = B up to tolerance.
    gen = np.random.Generator(np.random.Philox(29))
    for _ in range(200):
        a, b = _random_symmetric(gen, 5), _random_symmetric(gen, 5)
        assert not (psd_leq(a, b).holds and psd_leq(b, a).holds)
        root = _random_symmetric(gen, 5)
        p = root @ root.T
        p /= np.linalg.norm(p, 2)
        bumped = a + 1e-3 * p
        assert psd_leq(a, bumped).holds and not psd_leq(bumped, a).holds
        nudged = a + 1e-12 * p
        assert psd_leq(a, nudged).holds and psd_leq(nudged, a).holds


def test_psd_leq_common_null_direction():
    # Both sides vanish on the all-ones vector, where B - A has eigenvalue
    # 0: the order is decided on the complement and the gap reads 0.
    lap = laplacian(triangle())
    verdict = psd_leq(lap, 2.0 * lap)
    assert verdict.holds
    assert verdict.witness_gap == pytest.approx(0.0, abs=1e-12)
    assert not psd_leq(2.0 * lap, lap).holds


def test_psd_leq_agrees_with_the_range_projection_route():
    gen = np.random.Generator(np.random.Philox(12))
    for family, a, b in random_pairs(gen, 100):
        assert psd_leq(a, b).holds == range_psd_leq(a, b), family


def test_symmetric_triangle_edge_cases():
    z = np.zeros((4, 4))
    gen = np.random.Generator(np.random.Philox(31))
    a = _random_symmetric(gen, 4)
    assert check_symmetric_triangle(a, a)
    assert check_symmetric_triangle(a, z)
    assert check_symmetric_triangle(z, a)


def test_symmetric_triangle_random_pairs():
    gen = np.random.Generator(np.random.Philox(37))
    for _ in range(100):
        n = int(gen.integers(2, 9))
        a = _random_symmetric(gen, n, scale=float(gen.uniform(0.5, 3.0)))
        b = _random_symmetric(gen, n, scale=float(gen.uniform(0.5, 3.0)))
        assert check_symmetric_triangle(a, b)


def test_laplacian_pencil_matches_brute_force_on_weighted_triangle():
    # Independent 3x3 oracle: K_3 pseudo square root is the centering
    # projector over sqrt(3), so the pencil matrix is (1/3) Pi L_H Pi.
    g = triangle()
    lap_h = laplacian(weighted_triangle())
    pi = np.eye(3) - np.ones((3, 3)) / 3.0
    expect = np.linalg.eigvalsh(pi @ lap_h @ pi / 3.0)
    lo, hi = normalized_pencil(eig_frame(laplacian(g)), lap_h)
    assert lo == pytest.approx(expect[1], abs=1e-9)
    assert hi == pytest.approx(expect[2], abs=1e-9)
