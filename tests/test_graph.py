"""Graph container, constructions and file round trips."""

import bisect
import math
import re
import tracemalloc

import numpy as np
import pytest

from corpus import (
    SMALL,
    erdos_renyi_triu,
    path_graph,
    random_connected_graph,
    star_graph,
    weighted_triangle,
    write_graph,
)
from enumeration_oracle import UnionFind
from treespark.graph import (
    DisconnectedGraphError,
    GraphFileError,
    SizeGuardError,
    WeightedGraph,
    clique_star,
    complete_graph,
    component_labels,
    erdos_renyi_connected,
    laplacian,
    read_graph,
    ring_graph,
)


def test_union_find_components():
    uf = UnionFind(5)
    assert uf.count == 5
    assert uf.union(0, 1)
    assert uf.union(1, 2)
    assert not uf.union(0, 2)
    assert uf.count == 3
    assert uf.find(2) == uf.find(0)
    assert uf.find(3) != uf.find(0)


def test_path2_laplacian_exact():
    lap = laplacian(path_graph(2))
    assert np.array_equal(lap, np.array([[1.0, -1.0], [-1.0, 1.0]]))


@pytest.mark.parametrize("n", range(3, 9))
def test_complete_graph_spectrum(n):
    # L(K_n) has eigenvalues {0, n, ..., n}.
    vals = np.linalg.eigvalsh(laplacian(complete_graph(n)))
    assert abs(vals[0]) < 1e-12
    assert np.allclose(vals[1:], n, atol=1e-10)


def test_star_spectrum_with_weight():
    # Star on d leaves with uniform weight W: eigenvalues {0, W (d-1 times), W(d+1)}.
    d, w = 4, 2.5
    vals = np.linalg.eigvalsh(laplacian(star_graph(d, weight=w)))
    expected = np.array([0.0] + [w] * (d - 1) + [w * (d + 1)])
    assert np.allclose(vals, expected, atol=1e-10)


@pytest.mark.parametrize("name,g", SMALL)
def test_laplacian_structure(name, g):
    lap = laplacian(g)
    assert np.allclose(lap, lap.T)
    assert np.allclose(lap @ np.ones(g.n), 0.0, atol=1e-12)
    vals = np.linalg.eigvalsh(lap)
    assert vals[1] > 1e-12, f"{name} should be connected"
    # The Laplacian is the sum of rank-one edge terms.
    total = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        b = np.zeros(g.n)
        b[u], b[v] = 1.0, -1.0
        total += w * np.outer(b, b)
    assert np.allclose(total, lap, atol=1e-12)


def _pair_index_laplacian(g, ws):
    """The Laplacian assembled by ``add.at`` on ``(row, column)`` pairs."""
    us, vs, _ = g.edge_arrays
    lap = np.zeros((g.n, g.n))
    np.add.at(lap, (us, vs), -ws)
    np.add.at(lap, (vs, us), -ws)
    np.add.at(lap, (us, us), ws)
    np.add.at(lap, (vs, vs), ws)
    return lap


@pytest.mark.parametrize(
    "name,g",
    SMALL
    + [
        ("k200", complete_graph(200)),
        ("random_multigraph", random_connected_graph(60, 150, seed=2)),
        ("heavy_parallel", WeightedGraph(3, ((0, 1, 1e8), (0, 1, 1e-9), (1, 2, 3.0), (0, 1, 0.7)))),
    ],
)
def test_laplacian_matches_the_pair_index_assembly(name, g):
    # Same adds in the same order, so the flat-index assembly is bit-identical.
    gen = np.random.Generator(np.random.Philox(g.m))
    ws = g.edge_arrays[2]
    assert np.array_equal(laplacian(g), _pair_index_laplacian(g, ws))
    weights = gen.random(g.m) * 10.0 ** gen.uniform(-6.0, 6.0, g.m)
    weights[gen.random(g.m) < 0.3] = 0.0
    assert np.array_equal(laplacian(g, weights), _pair_index_laplacian(g, weights))


def test_edges_canonicalized():
    g = WeightedGraph(3, ((2, 1, 1.0), (1, 0, 2.0), (0, 2, 3.0)))
    assert all(u < v for u, v, _ in g.edges)
    assert g.edges[0][:2] == (1, 2)
    assert g.edges[1][:2] == (0, 1)


def test_weighted_degrees():
    g = weighted_triangle()
    assert np.allclose(g.weighted_degrees(), [2.0, 3.0, 3.0])


def test_weighted_degrees_read_a_weight_vector_like_the_laplacian():
    g = WeightedGraph(4, ((0, 1, 1.0), (0, 1, 2.5), (1, 2, 0.5), (2, 3, 4.0), (3, 0, 1.5)))
    for weights in (None, np.array([0.0, 3.0, 1.0, 0.0, 2.0]), np.arange(5.0)):
        want = np.diag(laplacian(g, weights))
        assert np.allclose(g.weighted_degrees(weights), want, rtol=0, atol=1e-12)
    assert np.array_equal(g.weighted_degrees(np.ones(5)), [3.0, 3.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="expected 5 edge weights"):
        laplacian(g, np.ones(4))


@pytest.mark.parametrize(
    "edges,err",
    [
        (((0, 0, 1.0),), ValueError),  # self loop
        (((0, 1, 0.0),), ValueError),  # nonpositive weight
        (((0, 1, -2.0),), ValueError),
        (((0, 1, float("nan")),), ValueError),
        (((0, 1, float("inf")),), ValueError),
        (((0, 3, 1.0),), ValueError),  # endpoint out of range
    ],
)
def test_invalid_edges_rejected(edges, err):
    with pytest.raises(err):
        WeightedGraph(2 if max(max(u, v) for u, v, _ in edges) < 2 else 3, edges)


def test_non_integer_vertex_ids_rejected():
    # int() would truncate these to the path 0-1-2.
    with pytest.raises(ValueError, match=r"edge 0 \(0\.7, 1\.0, 1\.0\): vertex ids must be"):
        WeightedGraph(3, [(0.7, 1, 1.0), (1, 2.9, 1.0)])
    with pytest.raises(ValueError, match="edge 1 .*integers"):
        WeightedGraph(3, [(0, 1, 1.0), (1, 2.9, 1.0)])
    with pytest.raises(ValueError, match="edge 0 .*integers"):
        WeightedGraph(2, [(float("nan"), 1, 1.0)])


def test_edge_table_array_and_triples_build_the_same_graph():
    triples = [(2, 1, 1.0), (1, 0, 2.5), (0, 2, 3.0), (1, 2, 0.25)]
    g = WeightedGraph(3, triples)
    h = WeightedGraph(3, np.array(triples))
    assert g.edges == h.edges == ((1, 2, 1.0), (0, 1, 2.5), (0, 2, 3.0), (1, 2, 0.25))
    for a, b in zip(g.edge_arrays, h.edge_arrays):
        assert np.array_equal(a, b) and a.dtype == b.dtype and not a.flags.writeable
    assert all(type(u) is int and type(v) is int and type(w) is float for u, v, w in g.edges)
    with pytest.raises(ValueError, match="triples"):
        WeightedGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(OverflowError):
        WeightedGraph(3, [(0, 10**400, 1.0)])


def test_graphs_compare_and_hash_by_identity():
    g, h = complete_graph(4), complete_graph(4)
    assert g.edges == h.edges
    assert g == g and g != h
    assert len({g, h, g}) == 2
    with pytest.raises(AttributeError, match="read-only"):
        g.n = 5


def _nested_loop_edges(kind: str, *args) -> tuple:
    """The builders' edge lists as the per-edge loops that first built them."""
    if kind == "k":
        (n,) = args
        return tuple((u, v, 1.0) for u in range(n) for v in range(u + 1, n))
    if kind == "ring":
        (n,) = args
        return tuple((min(v, (v + 1) % n), max(v, (v + 1) % n), 1.0) for v in range(n))
    num_cliques, clique_size = args
    block = clique_size - 1
    edges = []
    for i in range(num_cliques):
        members = [0] + list(range(1 + i * block, 1 + (i + 1) * block))
        for a in range(clique_size):
            for b in range(a + 1, clique_size):
                edges.append((members[a], members[b], 1.0))
    return tuple(edges)


@pytest.mark.parametrize(
    "kind,args",
    [("k", (n,)) for n in range(2, 8)]
    + [("ring", (n,)) for n in range(3, 8)]
    + [("cliquestar", (c, s)) for c in range(1, 4) for s in range(3, 6)],
)
def test_builders_match_the_nested_loop_construction(kind, args, tmp_path):
    build = {"k": complete_graph, "ring": ring_graph, "cliquestar": clique_star}[kind]
    g = build(*args)
    assert g.edges == _nested_loop_edges(kind, *args)
    path = tmp_path / "g.graph"
    write_graph(g, str(path))
    h = read_graph(str(path))
    assert (h.n, h.edges) == (g.n, g.edges)


def _union_find_labels(n: int, us, vs) -> np.ndarray:
    uf = UnionFind(n)
    for u, v in zip(us, vs):
        uf.union(int(u), int(v))
    smallest = {}
    for x in range(n):
        smallest.setdefault(uf.find(x), x)
    return np.array([smallest[uf.find(x)] for x in range(n)])


def test_component_labels_match_union_find_on_random_multigraphs():
    gen = np.random.Generator(np.random.Philox(2024))
    disconnected = 0
    for _ in range(200):
        n = int(gen.integers(1, 40))
        m = int(gen.integers(0, 2 * n + 1))
        us, vs = gen.integers(0, n, m), gen.integers(0, n, m)  # loops and repeats included
        want = _union_find_labels(n, us, vs)
        assert np.array_equal(component_labels(n, us, vs), want)
        disconnected += bool(want.any())
    assert 20 <= disconnected <= 180


def _labelled_path(n: int):
    order = np.random.Generator(np.random.Philox(7)).permutation(n)
    return order[:-1], order[1:]


@pytest.mark.parametrize(
    "n,edges",
    [
        (500, _labelled_path(500)),
        (300, (np.full(299, 150), np.delete(np.arange(300), 150))),
        # Two triangles that only the last edge joins.
        (6, (np.array([0, 1, 2, 3, 4, 5, 2]), np.array([1, 2, 0, 4, 5, 3, 5]))),
    ],
    ids=["labelled_path", "star", "last_edge_joins"],
)
def test_component_labels_edge_cases(n, edges):
    us, vs = edges
    assert np.array_equal(component_labels(n, us, vs), _union_find_labels(n, us, vs))
    assert not component_labels(n, us, vs).any()
    assert component_labels(n, us[:-1], vs[:-1]).any()


def test_too_few_vertices_rejected():
    with pytest.raises(ValueError):
        WeightedGraph(1, ())
    with pytest.raises(ValueError, match="n >= 2"):
        complete_graph(1)
    with pytest.raises(ValueError, match="n >= 2"):
        erdos_renyi_connected(1, 0.5, 0)


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))


def test_parallel_edges_allowed():
    g = WeightedGraph(2, ((0, 1, 1.0), (0, 1, 2.0)))
    assert g.m == 2
    assert laplacian(g)[0, 1] == -3.0


def test_complete_and_ring_shapes():
    assert complete_graph(4).m == 6
    assert ring_graph(7).m == 7
    with pytest.raises(ValueError):
        ring_graph(2)


def test_clique_star_small():
    g = clique_star(2, 3)
    assert g.n == 5 and g.m == 6
    degs = np.zeros(g.n, dtype=int)
    for u, v, _ in g.edges:
        degs[u] += 1
        degs[v] += 1
    assert degs[0] == 4  # hub sits in both cliques
    assert sorted(degs[1:]) == [2, 2, 2, 2]


@pytest.mark.parametrize("cliques,size", [(1, 3), (2, 4), (3, 5), (10, 10), (4, 3)])
def test_clique_star_counts(cliques, size):
    g = clique_star(cliques, size)
    assert g.n == cliques * (size - 1) + 1
    assert g.m == cliques * size * (size - 1) // 2
    vals = np.linalg.eigvalsh(laplacian(g))
    assert vals[1] > 1e-12


def test_clique_star_parameter_guards():
    with pytest.raises(ValueError):
        clique_star(0, 3)
    with pytest.raises(ValueError):
        clique_star(2, 2)


def test_erdos_renyi_connected_deterministic():
    a = erdos_renyi_connected(12, 0.3, seed=5)
    b = erdos_renyi_connected(12, 0.3, seed=5)
    assert a.edges == b.edges
    c = erdos_renyi_connected(12, 0.3, seed=6)
    assert c.edges != a.edges
    assert erdos_renyi_connected(6, 1.0, seed=0).m == 15


def _erdos_renyi_reference(n: int, p: float, seed: int) -> tuple[WeightedGraph, int]:
    """The pair-list builder the vectorised one replaced, and its rejections."""
    gen = np.random.Generator(np.random.Philox(seed))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for attempt in range(1000):
        draws = gen.random(len(pairs))
        picked = [pairs[i] for i in np.flatnonzero(draws < p)]
        uf = UnionFind(n)
        for u, v in picked:
            uf.union(u, v)
        if uf.count == 1:
            return WeightedGraph(n, tuple((u, v, 1.0) for u, v in picked)), attempt
    raise AssertionError("reference builder found no connected draw")


@pytest.mark.parametrize(
    "n,p,seed,rejected",
    [(12, 0.3, 5, 0), (20, 0.15, 1, 3), (30, 0.1, 0, 12), (60, 0.2, 7, 0), (6, 1.0, 0, 0)],
)
def test_erdos_renyi_matches_the_pair_list_builder(n, p, seed, rejected):
    want, attempts = _erdos_renyi_reference(n, p, seed)
    assert attempts == rejected
    assert erdos_renyi_connected(n, p, seed).edges == want.edges


@pytest.mark.parametrize(
    "n,p,seed,rejected",
    [(2, 1.0, 0, 0), (363, 0.5, 1, 0), (400, 0.05, 5, 0), (1000, 0.01, 3, 1)],
)
def test_erdos_renyi_matches_the_one_call_builder(n, p, seed, rejected):
    # 363 * 362 / 2 pairs straddle one variate block; 1000 vertices take
    # eight blocks a draw, and a rejected draw before the kept one.
    want, attempts = erdos_renyi_triu(n, p, seed)
    assert attempts == rejected
    got = erdos_renyi_connected(n, p, seed)
    for a, b in zip(got.edge_arrays, want.edge_arrays):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_erdos_renyi_memory_does_not_grow_with_the_pair_count():
    # About 4.5e6 vertex pairs and 13,500 edges: a variate per pair held
    # at once would take 36 MB alone.
    tracemalloc.start()
    try:
        g = erdos_renyi_connected(3000, 0.003, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 3000
    assert peak < 20e6


def test_erdos_renyi_rejects_bad_probability():
    with pytest.raises(ValueError):
        erdos_renyi_connected(5, 0.0, seed=1)
    with pytest.raises(ValueError):
        erdos_renyi_connected(5, 1.5, seed=1)
    # Too sparse to come out connected: refused after a bounded search.
    with pytest.raises(ValueError, match="within 1000 attempts"):
        erdos_renyi_connected(50, 0.001, 0)


@pytest.mark.parametrize("name,g", SMALL)
def test_file_round_trip_bit_faithful(name, g, tmp_path):
    path = tmp_path / f"{name}.graph"
    write_graph(g, str(path))
    h = read_graph(str(path))
    assert h.n == g.n
    assert h.edges == g.edges  # exact float equality through %.17g


def test_file_round_trip_awkward_weights(tmp_path):
    g = WeightedGraph(3, ((0, 1, 0.1), (1, 2, 1.0 / 3.0), (0, 2, 7.25e-3)))
    path = tmp_path / "w.graph"
    write_graph(g, str(path))
    assert read_graph(str(path)).edges == g.edges


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty
        "3\n0 1 1.0\n",  # header missing edge count
        "3 2\n0 1 1.0\n",  # fewer edges than promised
        "3 1\n0 1 1.0\n1 2 1.0\n",  # more edges than promised
        "3 1\n0 1\n",  # malformed edge line
        "3 1\n0 1 abc\n",
        "x y\n",
    ],
)
def test_read_graph_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    with pytest.raises(GraphFileError):
        read_graph(str(path))


@pytest.mark.parametrize(
    "text,line",
    [
        # Six fields over two lines, but not three on each.
        ("3 2\n0 1\n1 2 1.0 7\n", "'0 1'"),
        ("3 2\n0 1 1.0 7\n1 2\n", "'0 1 1.0 7'"),
        # Three fields on each line; the second does not convert.
        ("3 2\n0 1 1.0\n1 2.5 1.0\n", "'1 2.5 1.0'"),
        ("3 2\n0 1 x\n1 y 1.0\n", "'0 1 x'"),
        # A bad line is named even when the edge count is also wrong.
        ("3 3\n0 1 1.0\n0 2 x\n", "'0 2 x'"),
    ],
)
def test_read_graph_names_the_first_bad_edge_line(tmp_path, text, line):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    with pytest.raises(GraphFileError, match=re.escape(f"{path}: bad edge line {line}") + "$"):
        read_graph(str(path))


def test_read_graph_skips_blank_lines_and_splits_on_any_whitespace(tmp_path):
    path = tmp_path / "odd.graph"
    # Blank lines, tabs, a form feed and an em space inside lines, CRLF
    # endings, and the underscores and signs that int() and float() take.
    path.write_bytes(
        "\n 3 3 \r\n\r\n0\t1 1.5\r\n \n1\x0c2\u20032.0\n+0 2 1_0.25\n\n".encode()
    )
    g = read_graph(str(path))
    assert g.n == 3 and g.edges == ((0, 1, 1.5), (1, 2, 2.0), (0, 2, 10.25))
    path.write_text("3 2\n0 1 1.0\n\n")
    with pytest.raises(GraphFileError, match="header promises 2 edges, file has 1$"):
        read_graph(str(path))


@pytest.mark.parametrize(
    "text", ["3 3\r0 1 1\r1 2 1\r0 2 1\r", "3 3\n0 1 1\n1 2 1\n0 2 1"], ids=["cr", "no-final-newline"]
)
def test_read_graph_takes_cr_endings_and_a_last_line_without_newline(tmp_path, text):
    path = tmp_path / "tri.graph"
    path.write_bytes(text.encode())
    assert read_graph(str(path)).edges == ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0))


@pytest.mark.parametrize(
    "data",
    [
        b"3 3\xff\n0 1 1\n1 2 1\n0 2 1\n",
        b"3 3\n0 1 1\n1 2 \xff\n0 2 1\n",
        # Far enough down that reading the header does not decode it.
        b"3000 2999\n" + b"".join(b"%d %d 1\n" % (i, i + 1) for i in range(2998)) + b"2998 2999 \xff\n",
    ],
    ids=["header", "edge-line", "late-edge-line"],
)
def test_read_graph_names_an_undecodable_file(tmp_path, data):
    path = tmp_path / "bin.graph"
    path.write_bytes(data)
    with pytest.raises(GraphFileError, match=re.escape(f"{path}: ") + ".*can't decode byte 0xff"):
        read_graph(str(path))


def test_read_graph_rejects_an_endpoint_too_large_for_a_float(tmp_path):
    path = tmp_path / "huge.graph"
    path.write_text(f"3 1\n0 1{'0' * 400} 1.0\n")
    with pytest.raises(GraphFileError):
        read_graph(str(path))


def test_read_graph_size_guard_fires_on_the_header(tmp_path):
    # Too few edge lines, and a malformed one: the guard still wins, and
    # the GraphFileError wrapper does not swallow it.
    path = tmp_path / "big.graph"
    path.write_text("3000 4499500\n0 1 abc\n")
    with pytest.raises(SizeGuardError, match="capped at n = 11, got n = 3000") as exc:
        read_graph(str(path), max_n=11)
    assert not isinstance(exc.value, GraphFileError)
    # At the cap the same file reaches its edge lines, and the bad one is named.
    with pytest.raises(GraphFileError, match=re.escape(f"{path}: bad edge line '0 1 abc'") + "$"):
        read_graph(str(path), max_n=3000)


def test_read_graph_disconnected_file(tmp_path):
    path = tmp_path / "disc.graph"
    path.write_text("4 2\n0 1 1.0\n2 3 1.0\n")
    with pytest.raises(DisconnectedGraphError):
        read_graph(str(path))


def test_missing_file_raises_file_error(tmp_path):
    with pytest.raises((GraphFileError, OSError)):
        read_graph(str(tmp_path / "nope.graph"))


def test_adjacency_cache_consistency():
    g = weighted_triangle()
    nbrs, cumw = g.adjacency
    offsets, _, ids = g.csr
    eids = [ids[offsets[v]:offsets[v + 1]].tolist() for v in range(g.n)]
    assert [len(x) for x in nbrs] == [2, 2, 2]
    assert cumw[1][-1] == pytest.approx(3.0)
    # Vertex 0's two unit weights read as the counts 1, 2; vertex 1's
    # weights 1 and 2 keep their running sum.
    assert cumw[0] == [1.0, 2.0] and cumw[1] == [1.0, 3.0]
    # eids point back at the right endpoints
    for v in range(3):
        for nb, eid in zip(nbrs[v], eids[v]):
            u, w, _ = g.edges[eid]
            assert {u, w} == {v, nb}
    # Every list naming a vertex shares that vertex's one int object.
    nbrs = complete_graph(300).adjacency[0]
    assert nbrs[0][-1] is nbrs[1][-1] == 299


@pytest.mark.parametrize(
    "name,g",
    SMALL + [("random_multigraph", random_connected_graph(15, 25, seed=4))],
)
def test_csr_matches_adjacency(name, g):
    nbrs = g.adjacency[0]
    offsets, nbr, eid = g.csr
    assert offsets.shape == (g.n + 1,)
    assert nbr.shape == eid.shape == (2 * g.m,)
    for v in range(g.n):
        lo, hi = offsets[v], offsets[v + 1]
        assert nbr[lo:hi].tolist() == nbrs[v]
        # Each entry's edge id names an edge joining v to that neighbour.
        for nb, e in zip(nbrs[v], eid[lo:hi].tolist()):
            assert {v, nb} == set(g.edges[e][:2])


def test_equal_weight_counts_bisect_to_int_r_times_d():
    # A vertex of d equal weights steps by bisecting its counts 1.0, ...,
    # d at r * d, which is int(r * d) on every variate: the counts are
    # exact.  The variates are 0, numpy's largest, every j / d and the
    # floats on each side of it.
    top = np.nextafter(1.0, 0.0)
    for d in [*range(1, 301), 1999]:
        counts = star_graph(d, 2.5).adjacency[1][0]
        assert counts == [float(i) for i in range(1, d + 1)]
        at = np.arange(d) / d
        rs = [0.0, top, *at.tolist()]
        rs += np.nextafter(at, 0.0).tolist() + np.nextafter(at, 1.0).tolist()
        for r in rs:
            assert bisect.bisect_right(counts, r * counts[-1]) == int(r * d)


def test_equal_weight_vertices_share_one_counts_list_per_degree():
    cumw = path_graph(5, (2.0, 2.0, 5.0, 5.0)).adjacency[1]
    # Every vertex but 2 has equal weights, of degree 1 or 2.
    assert cumw[0] is cumw[4] and cumw[0] == [1.0]
    assert cumw[1] is cumw[3] and cumw[1] == [1.0, 2.0]
    assert cumw[2] == [2.0, 7.0]


def test_regular_degree():
    # A graph whose vertices all share one counts list of length d reads
    # one identity exit-guide row of d cells, and no cell straddles;
    # every other graph reads 128.
    regular = [
        (complete_graph(2), 1),
        (complete_graph(60), 59),
        (complete_graph(129), 128),
        (ring_graph(500), 2),
        # Equal weights that are not 1 keep every step uniform.
        (WeightedGraph(3, ((0, 1, 2.5), (1, 2, 2.5), (0, 2, 2.5))), 2),
        # A 4-cycle with two doubled edges: every vertex has three entries.
        (
            WeightedGraph(
                4, ((0, 1, 1.0), (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (2, 3, 1.0), (0, 3, 1.0))
            ),
            3,
        ),
    ]
    for g, d in regular:
        assert g.exit_guide == (d, [list(range(d))] * g.n, False)
    # A path and a 4-leaf star have exit boundaries only on cell edges,
    # so their walks convert no variate.
    for g, straddles in (
        (path_graph(4), False),
        (star_graph(4), False),
        (star_graph(3), True),
        (weighted_triangle(), True),
        (random_connected_graph(12, 20, seed=3), True),
    ):
        cells, rows, flag = g.exit_guide
        assert (cells, flag) == (128, straddles)
        assert all(len(row) == 128 for row in rows)


def test_log_weight_scale_is_finite():
    g = WeightedGraph(2, ((0, 1, 1e-12), (0, 1, 1e12)))
    lap = laplacian(g)
    assert math.isfinite(lap[0, 0])
