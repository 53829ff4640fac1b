"""Weighted multigraph representation, named constructions and file I/O.

Vertices are dense integers ``0..n-1``.  A graph stores its edges once,
as read-only arrays ``(us, vs, ws)`` with the orientation normalised to
``u < v``; parallel edges are allowed and keep their own identity (the
edge id is the position in those arrays).  Self loops, non-integer
vertex ids and non-positive or non-finite weights are rejected, as are
disconnected graphs.  Edge ids and their order depend only on the
triples given, not on how they were built.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain

import numpy as np

ER_MAX_ATTEMPTS = 1000

# Exit-guide cells where vertices do not all share one counts list;
# cell q covers the variates in [q / GUIDE_CELLS, (q + 1) / GUIDE_CELLS).
GUIDE_CELLS = 128


class DisconnectedGraphError(ValueError):
    """Raised when an edge list does not connect all vertices."""


class GraphFileError(ValueError):
    """Raised when a graph file cannot be parsed."""


class SizeGuardError(ValueError):
    """Raised when an exhaustive routine is asked to exceed its size cap."""


def philox_stream(seed: int) -> np.random.Generator:
    """The generator of every seeded path: numpy's Philox at ``seed``.

    The same seed gives the same stream at a fixed library version.
    """
    return np.random.Generator(np.random.Philox(seed))


def component_labels(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Smallest vertex of each vertex's connected component.

    Hook and compress, after Shiloach and Vishkin: every edge that joins
    two components hooks the larger root onto the smaller, then pointer
    jumping flattens each tree to a star.  Each round merges at least
    one pair of components, and a root only ever hooks onto a smaller
    one, so the root left standing is its component's smallest vertex
    whatever order the hooks land in.
    """
    label = np.arange(n)
    while True:
        lu, lv = label[us], label[vs]
        cross = lu != lv
        if not cross.any():
            return label
        np.minimum.at(label, np.maximum(lu, lv)[cross], np.minimum(lu, lv)[cross])
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def _reject_first(table: np.ndarray, bad: np.ndarray, what: str) -> None:
    if bad.any():
        eid = int(np.flatnonzero(bad)[0])
        u, v, w = table[eid].tolist()
        raise ValueError(f"edge {eid} ({u!r}, {v!r}, {w!r}): {what}")


class WeightedGraph:
    """Connected weighted multigraph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices, at least 2.
    edges:
        ``(u, v, w)`` triples, as a sequence or an ``(m, 3)`` array, with
        integer ``u != v`` in range and ``w`` positive and finite.
        Orientation is normalised to ``u < v`` on construction; the
        position of a triple is its edge id.

    The read-only :attr:`edge_arrays` are the only stored form of the
    edges.  Graphs compare and hash by identity, so a cache keyed on a
    graph never reads its edges.
    """

    def __init__(self, n: int, edges):
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"need at least 2 vertices, got n={n}")
        table = np.asarray(edges, dtype=np.float64)
        if table.size == 0:
            table = table.reshape(0, 3)
        if table.ndim != 2 or table.shape[1] != 3:
            raise ValueError(f"edges must be (u, v, w) triples, got shape {table.shape}")
        u, v, w = table.T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        fractional = (lo != np.floor(lo)) | (hi != np.floor(hi))
        _reject_first(table, fractional, "vertex ids must be integers")
        _reject_first(table, (lo < 0) | (hi >= n), "endpoint out of range")
        _reject_first(table, lo == hi, "self loop")
        _reject_first(table, ~((w > 0.0) & (w < np.inf)), "weight must be positive and finite")
        us, vs, ws = lo.astype(np.int64), hi.astype(np.int64), w.copy()
        if component_labels(n, us, vs).any():
            raise DisconnectedGraphError(
                f"graph on {n} vertices with {len(ws)} edges is disconnected"
            )
        for arr in (us, vs, ws):
            arr.flags.writeable = False
        self.__dict__.update(n=n, m=len(ws), edge_arrays=(us, vs, ws))

    def __setattr__(self, name, value):
        raise AttributeError(f"WeightedGraph is read-only, cannot set {name!r}")

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The edges as ``(u, v, w)`` triples in edge-id order, built on first read."""
        us, vs, ws = self.edge_arrays
        return tuple(zip(us.tolist(), vs.tolist(), ws.tolist()))

    @cached_property
    def adjacency(self) -> tuple[list, list]:
        """Per-vertex neighbour and cumulative-weight lists ``(nbrs, cumw)``.

        Entries follow stored edge order, one entry per incident edge, so
        parallel edges appear once each; their edge ids sit at the same
        positions of :attr:`csr`.  ``cumw[v]`` is the running sum of
        ``v``'s incident weights, and ``cumw[v][-1]`` its total; a random
        walk step draws a uniform ``r`` and takes the first index with
        ``cumw[v][i] > r * cumw[v][-1]``.  At a vertex of ``d`` equal
        weights the list is the counts ``1.0, ..., d``, one list per
        degree shared by all such vertices: the counts are exact, so the
        step is ``int(r * d)`` whatever the weight.
        """
        offsets, nbr, eid = self.csr
        wts = self.edge_arrays[2][eid]
        bounds = offsets.tolist()
        spans = list(zip(bounds, bounds[1:]))
        # One int object per vertex, which every list naming it shares;
        # ``nbr.tolist()`` would make a new one per entry.
        nbr_list = np.array(range(self.n), dtype=object)[nbr].tolist()
        wt_list = wts.tolist()
        nbrs = [nbr_list[a:b] for a, b in spans]
        # A connected graph leaves no vertex without entries, so no
        # reduceat segment is empty.
        lo = np.minimum.reduceat(wts, offsets[:-1])
        hi = np.maximum.reduceat(wts, offsets[:-1])
        equal = lo == hi
        degrees = set(np.diff(offsets)[equal].tolist())
        counts = {d: np.arange(1.0, d + 1).tolist() for d in degrees}
        cumw = [
            counts[b - a] if f else list(accumulate(wt_list[a:b]))
            for (a, b), f in zip(spans, equal.tolist())
        ]
        return nbrs, cumw

    @cached_property
    def exit_guide(self) -> tuple[int, list[list[int]], bool]:
        """``(cells, rows, straddles)``: per-vertex walk exits by the variate's cell.

        A variate ``r`` falls in cell ``int(r * cells)``.  Entry
        ``rows[v][q]`` is the :attr:`adjacency` entry every variate of
        cell ``q`` takes from ``v`` under the walk's rule, bisection of
        ``cumw[v]`` at ``r * cumw[v][-1]``, and -1 where the cell
        straddles an exit boundary; ``straddles`` says whether any cell
        does.

        A graph whose vertices all share one counts list of length ``d``,
        such as a unit-weight complete graph or ring, gets ``d`` cells
        and one identity row: the cell is the exit, so no cell straddles.
        Every other graph gets ``GUIDE_CELLS`` cells, and cell ``q`` runs
        from ``q / 128`` to ``(q + 1) / 128 - 2**-53`` (numpy's variates
        are multiples of 2**-53).  The rule is monotone in ``r``, so a
        cell whose ends agree gives that exit to every variate in it.
        One numpy pass builds a row per distinct ``cumw`` list, and the
        vertices that share a list share its row.
        """
        cumw = self.adjacency[1]
        lists = list({id(c): c for c in cumw}.values())
        if len(lists) == 1:
            d = len(cumw[0])
            return d, [list(range(d))] * self.n, False
        cells = np.arange(GUIDE_CELLS)
        lo, hi = cells / GUIDE_CELLS, (cells + 1) / GUIDE_CELLS - 2.0**-53
        # The bisection passes an entry of running weight c at r exactly
        # when c <= r * t, t being its list's total.  For each entry below
        # the total (the others are never passed), k counts the cell
        # ends, in the order lo[0], hi[0], lo[1], ..., that do not pass
        # it yet.  The last end passes it (hi[-1] * t is the float just
        # below t), so k <= 255 and halving steps from 128 find it.
        ends = np.column_stack((lo, hi)).ravel()
        sizes = [len(x) for x in lists]
        row = np.repeat(np.arange(len(lists)), sizes)
        c = np.fromiter(chain.from_iterable(lists), np.float64, len(row))
        t = c[np.cumsum(sizes) - 1][row]
        pick = c < t
        c, t, row = c[pick], t[pick], row[pick]
        k = np.zeros(len(c), dtype=np.int64)
        step = GUIDE_CELLS
        while step:
            k = np.where(ends[k + step - 1] * t < c, k + step, k)
            step //= 2
        # Cell q's exit is the count of entries passed at lo[q], those
        # with k <= 2q; an entry first passed at hi[q] (k = 2q + 1)
        # makes the cell straddle.
        width = GUIDE_CELLS + 1
        passed = np.bincount(row * width + (k + 1) // 2, minlength=len(lists) * width)
        passed = passed.reshape(len(lists), width)
        exits = np.cumsum(passed, axis=1, out=passed)[:, :-1]
        odd = k % 2 == 1
        exits[row[odd], k[odd] // 2] = -1
        table = dict(zip(map(id, lists), exits.tolist()))
        return GUIDE_CELLS, [table[id(c)] for c in cumw], bool(odd.any())

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compressed adjacency ``(offsets, nbr, eid)``, O(m) int64 arrays.

        Vertex ``v``'s entries sit at ``offsets[v]:offsets[v + 1]`` in the
        same order as ``adjacency``, so ``offsets[v] + j`` locates the
        ``j``-th entry of ``adjacency[0][v]``.
        """
        us, vs, _ = self.edge_arrays
        ends = np.concatenate((us, vs))
        nbr = np.concatenate((vs, us))
        eid = np.tile(np.arange(self.m, dtype=np.int64), 2)
        order = np.lexsort((eid, ends))
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=self.n), out=offsets[1:])
        return offsets, nbr[order], eid[order]

    def weighted_degrees(self, weights=None) -> np.ndarray:
        """Sum of incident edge weights per vertex (Laplacian diagonal).

        ``weights`` replaces the edge weights with a length-``m`` vector
        aligned with edge ids, as in :func:`laplacian`.
        """
        us, vs, ws = self.edge_arrays
        ws = ws if weights is None else weights
        return np.bincount(us, ws, self.n) + np.bincount(vs, ws, self.n)


def laplacian(g: WeightedGraph, weights=None) -> np.ndarray:
    """Dense weighted Laplacian ``sum_e w_e (e_u - e_v)(e_u - e_v)^T``.

    ``weights`` replaces the graph's own edge weights with a length-``m``
    vector aligned with edge ids; zero entries drop their edge, so a
    subgraph such as a spanning tree is assembled over the parent's ids.
    """
    us, vs, ws = g.edge_arrays
    if weights is not None:
        ws = np.asarray(weights, dtype=np.float64)
        if ws.shape != (g.m,):
            raise ValueError(f"expected {g.m} edge weights, got shape {ws.shape}")
        keep = np.flatnonzero(ws)
        us, vs, ws = us[keep], vs[keep], ws[keep]
    n = g.n
    lap = np.zeros((n, n))
    # Flat indices keep ``add.at`` off its slow tuple-index path; the
    # adds, and their order, are those of the (row, column) form.
    flat = lap.reshape(-1)
    np.add.at(flat, us * n + vs, -ws)
    np.add.at(flat, vs * n + us, -ws)
    np.add.at(flat, us * (n + 1), ws)
    np.add.at(flat, vs * (n + 1), ws)
    return lap


def _unit_edges(us, vs) -> np.ndarray:
    """``(m, 3)`` table of unit-weight edges ``(us[i], vs[i])``, in row-major order."""
    return np.column_stack((np.ravel(us), np.ravel(vs), np.ones(np.size(us))))


def complete_graph(n: int) -> WeightedGraph:
    """Complete graph on n vertices with unit edge weights."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    return WeightedGraph(n, _unit_edges(*np.triu_indices(n, 1)))


def ring_graph(n: int) -> WeightedGraph:
    """Unit-weight cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError(f"ring needs n >= 3, got {n}")
    vs = np.arange(n)
    return WeightedGraph(n, _unit_edges(vs, (vs + 1) % n))


def clique_star(num_cliques: int, clique_size: int) -> WeightedGraph:
    """Unit-weight cliques glued at a shared hub vertex.

    Builds ``num_cliques`` copies of the complete graph on ``clique_size``
    vertices, all sharing vertex 0, so ``n = num_cliques * (clique_size - 1)
    + 1``.  Clique ``i`` occupies vertex 0 together with the block of
    ``clique_size - 1`` fresh vertices starting at ``1 + i * (clique_size -
    1)``, and its edges are emitted as one contiguous run.
    """
    if num_cliques < 1:
        raise ValueError(f"need at least one clique, got {num_cliques}")
    if clique_size < 3:
        raise ValueError(f"clique size must be >= 3, got {clique_size}")
    block = clique_size - 1
    # Row i lists clique i's members: the hub, then its own block.
    members = np.zeros((num_cliques, clique_size), dtype=np.int64)
    members[:, 1:] = np.arange(1, num_cliques * block + 1).reshape(num_cliques, block)
    a, b = np.triu_indices(clique_size, 1)
    return WeightedGraph(num_cliques * block + 1, _unit_edges(members[:, a], members[:, b]))


def erdos_renyi_connected(n: int, p: float, seed: int) -> WeightedGraph:
    """G(n, p) conditioned on connectivity by rejection sampling.

    Draws from :func:`philox_stream`, so the same seed reproduces the
    same graph; raises ValueError after ``ER_MAX_ATTEMPTS`` disconnected draws.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"edge probability must lie in (0, 1], got {p}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    gen = philox_stream(seed)
    # One variate per vertex pair u < v in row-major order, drawn 2^16
    # at a time: the sequence one call for every pair would draw.  Pair
    # k lies in row u, the first with row_ends[u] > k.
    pairs, block = n * (n - 1) // 2, 1 << 16
    starts = range(0, pairs, block)
    row_ends = np.cumsum(np.arange(n - 1, 0, -1))
    for _ in range(ER_MAX_ATTEMPTS):
        picked = np.concatenate(
            [lo + np.flatnonzero(gen.random(min(block, pairs - lo)) < p) for lo in starts]
        )
        us = np.searchsorted(row_ends, picked, side="right")
        try:
            return WeightedGraph(n, _unit_edges(us, picked - row_ends[us] + n))
        except DisconnectedGraphError:
            continue
    raise ValueError(f"no connected G({n}, {p}) draw within {ER_MAX_ATTEMPTS} attempts")


def guard_vertices(n: int, max_n: int | None) -> None:
    """Raise SizeGuardError when ``max_n`` is set and ``n`` exceeds it."""
    if max_n is not None and n > max_n:
        raise SizeGuardError(f"this command is capped at n = {max_n}, got n = {n}")


def read_graph(path: str, max_n: int | None = None) -> WeightedGraph:
    """Parse a graph file: a header line ``n m``, then one ``u v w`` line
    per edge, with 0-indexed vertices and a float weight.

    With ``max_n`` set, a header naming more vertices raises
    SizeGuardError before any edge line is read.  Blank lines are
    skipped.  The edge lines are read in one pass, with no re-scan:
    each is split into ``u v w`` and converted by ``int`` and ``float``
    once, and the first line that does not is named.  A file that does
    not decode as text raises GraphFileError naming the file.
    """
    try:
        with open(path) as fh:
            header = next((ln.strip() for ln in fh if ln.strip()), None)
            if header is None:
                raise GraphFileError(f"{path}: empty graph file")
            head = header.split()
            if len(head) != 2:
                raise GraphFileError(f"{path}: header must be 'n m', got {header!r}")
            try:
                n, m = int(head[0]), int(head[1])
            except ValueError as exc:
                raise GraphFileError(f"{path}: bad header {header!r}") from exc
            guard_vertices(n, max_n)
            us, vs, ws = [], [], []
            for ln in fh:
                if ln.isspace():
                    continue
                try:
                    u, v, w = ln.split()
                    us.append(int(u))
                    vs.append(int(v))
                    ws.append(float(w))
                except ValueError as exc:
                    raise GraphFileError(f"{path}: bad edge line {ln.strip()!r}") from exc
    except UnicodeDecodeError as exc:
        raise GraphFileError(f"{path}: {exc}") from exc
    if len(ws) != m:
        raise GraphFileError(f"{path}: header promises {m} edges, file has {len(ws)}")
    try:
        return WeightedGraph(n, np.array((us, vs, ws), dtype=np.float64).T)
    except DisconnectedGraphError:
        raise
    except (ValueError, OverflowError) as exc:
        raise GraphFileError(f"{path}: {exc}") from exc
