"""Experiment drivers: tree-average sparsifier certificates, lower bound
constructions and sampler law checks, each returning one :class:`Report`.

Every driver derives per-trial seeds as ``base_seed + trial_index``, so
trials are reproducible one by one and independent of how work is
scheduled.  A seeded tree driver's trial j is its check (pencil, degree
windows or star vector) on the edge counts of seed ``base_seed + j``'s
t trees, and ``MAX_TREE_SLOTS`` caps t for every such driver.  Formulas
use the natural log; reports echo ``ln n`` and ``log2 n`` so either
convention can be read off.  Pass gates on high-probability statements
are finite-sample calibration choices and are recorded in the report
next to the data they gate.
"""

from __future__ import annotations

import math
import operator
import os
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import __version__
from .graph import WeightedGraph, clique_star, complete_graph, laplacian, philox_stream
from .leverage import laplacian_frame, leverage_scores
from .spectral import normalized_pencil
from .treesample import tree_edge_counts, wilson_tree_batches

DEFAULT_PASS_GATE = 0.9

# Most tree-edge slots (t trees times n - 1 edges) one trial may
# walk: about 1.5 h at ~0.11 ms per K_200 tree on a 2-vCPU VM, while
# K_2000 at eps = 0.01 (1.2e9 slots) still runs.
MAX_TREE_SLOTS = 10**10


@dataclass(frozen=True)
class Report:
    """What every experiment driver returns.

    The envelope says which driver ran (``kind``), on which graph, with
    which settings and for how long; ``results`` holds the driver's own
    outputs.  ``config`` always carries ``ln n`` and ``log2 n``.
    """

    kind: str
    graph_desc: str
    n: int
    config: dict
    results: dict
    wallclock_sec: float
    library_version: str = __version__

    def to_dict(self) -> dict:
        """The JSON form: the envelope fields and ``results`` in one flat mapping."""
        out = asdict(self)
        out.update(out.pop("results"))
        return out

    def __getattr__(self, name: str):
        """Read a driver output as an attribute: ``report.t`` is ``report.results["t"]``."""
        try:
            return self.__dict__["results"][name]
        except KeyError:
            raise AttributeError(name) from None


def _report(kind: str, graph_desc: str, n: int, start: float, config: dict, **results) -> Report:
    config = {**config, "ln_n": math.log(n), "log2_n": math.log2(n)}
    return Report(kind, graph_desc, n, config, results, time.perf_counter() - start)


def _seeds(base_seed: int, trials: int) -> list[int]:
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    return list(range(base_seed, base_seed + trials))


def write_extremes_csv(report: Report, path: str) -> None:
    """Per-trial extremes as CSV: trial, seed, lambda_min, lambda_max."""
    import csv

    results = report.results
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "seed", "lambda_min", "lambda_max"])
        for j, (seed, (lo, hi)) in enumerate(zip(results["seeds"], results["extremes"])):
            writer.writerow([j, seed, repr(lo), repr(hi)])


# ---------------------------------------------------------------------------
# Single reweighted tree, upper envelope
# ---------------------------------------------------------------------------


def run_single_tree_upper(
    g: WeightedGraph, trials: int, base_seed: int, graph_desc: str | None = None
) -> Report:
    """Largest pencil eigenvalue of single inverse-leverage trees.

    Passes when every trial's ``lambda_max`` stays at or below ``100 ln
    n``; the report also records the tighter constant the data actually
    supports (``max / ln n``).
    """
    seeds = _seeds(base_seed, trials)
    start = time.perf_counter()
    extremes = _run_trials(partial(_sum_trees_trial, g, 1, _pencil_check(g)), seeds)
    highs = sorted(hi for _, hi in extremes)
    envelope = 100.0 * math.log(g.n)
    max_lambda = highs[-1]
    return _report(
        "single_tree_upper",
        graph_desc or f"n={g.n},m={g.m}",
        g.n,
        start,
        {"base_seed": base_seed},
        trials=trials,
        seeds=seeds,
        envelope=envelope,
        extremes=extremes,
        max_lambda=max_lambda,
        median_lambda=highs[len(highs) // 2],
        empirical_constant=max_lambda / math.log(g.n),
        passed=max_lambda <= envelope,
    )


# ---------------------------------------------------------------------------
# Seeded trials, each one check on its trees' edge counts; averaged trees
# ---------------------------------------------------------------------------


def _check_tree_slots(t, n: int) -> int:
    """``t`` as an int, refused unless ``t`` trees of ``n - 1`` edges fit
    the cap; called before any frame is built."""
    try:
        t = operator.index(t)
    except TypeError:
        raise ValueError(f"need an integer t, got {t!r}") from None
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if t * (n - 1) > MAX_TREE_SLOTS:
        raise ValueError(
            f"t = {t} trees on n = {n} vertices exceed the cap of "
            f"MAX_TREE_SLOTS = {MAX_TREE_SLOTS} tree-edge slots per trial"
        )
    return t


def _sum_trees_trial(g: WeightedGraph, t: int, check: Callable, seed: int):
    """``check(g, counts, t)`` on the edge counts of the ``t`` trees of
    ``seed``; a check is a module-level function under ``partial`` that
    binds only its own data, so pool workers can receive it."""
    return check(g, tree_edge_counts(g, philox_stream(seed), t), t)


# Set only inside pool workers, by the executor's initializer, so each
# worker receives the trial once instead of once per seed.
_WORKER_TRIAL: Callable[[int], object] | None = None


def _install_trial(trial: Callable[[int], object]) -> None:
    global _WORKER_TRIAL
    _WORKER_TRIAL = trial


def _worker_trial(seed: int):
    return _WORKER_TRIAL(seed)


def _run_trials(trial: Callable[[int], object], seeds: list[int], jobs: int = 1) -> list:
    """``trial(seed)`` for every seed, in seed order.

    At most ``jobs`` worker processes run the trials, never more than
    the CPUs or the seeds (each worker receives the whole trial); one
    worker or none means the trials run in this process.
    """
    workers = min(jobs, len(seeds), os.cpu_count() or 1)
    if workers <= 1:
        return [trial(seed) for seed in seeds]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=workers, initializer=_install_trial, initargs=(trial,)
    ) as pool:
        return list(pool.map(_worker_trial, seeds))


def _inverse_leverage_weights(g: WeightedGraph, lev) -> np.ndarray:
    """``w_e / lev_e``, the tree edge weights every seeded check reads;
    ``lev`` is the :func:`leverage_scores` array or a closed-form value."""
    return g.edge_arrays[2] / lev


def _pencil_extremes(edge_weights, g: WeightedGraph, counts, t: int) -> tuple[float, float]:
    """Pencil extremes of ``t`` trees with these edge counts, averaged
    with edge e weighted ``edge_weights[e]``; on the same stream this
    equals ``normalized_pencil(frame, average_trees([reweight_tree(
    sample_tree_stream(g, gen), lev) for _ in range(t)]))``."""
    return normalized_pencil(laplacian_frame(g), laplacian(g, counts * edge_weights / t))


def _pencil_check(g: WeightedGraph) -> Callable:
    """Pencil check of inverse-leverage trees, for any tree count.
    Leverage scores build the cached :func:`laplacian_frame`, so pool
    workers inherit it."""
    return partial(_pencil_extremes, _inverse_leverage_weights(g, leverage_scores(g)))


def run_sum_trees(
    g: WeightedGraph,
    eps: float,
    trials: int,
    base_seed: int,
    c_mult: float | None = 1.0,
    t: int | None = None,
    gate: float = DEFAULT_PASS_GATE,
    jobs: int = 1,
    graph_desc: str | None = None,
) -> Report:
    """Average ``t`` independent inverse-leverage trees per trial and
    test the two-sided pencil bound ``1 - eps <= lambda <= 1 + eps``.

    ``t`` defaults to ``ceil(c_mult * eps^-2 * (ln n)^2)``, and a ``t``
    with ``t * (n - 1) > MAX_TREE_SLOTS`` is refused before L_G is
    factored.  A trial passes when both extremes fall inside the window;
    the report gate is the fraction of passing trials required, 0.9 by
    default.  With ``jobs > 1`` trials run in up to ``jobs`` processes,
    no more than the CPUs, each receiving the leverage weights and the
    factored L_G once; per-trial seeds are ``base_seed + trial_index``
    either way, so results do not depend on the schedule.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"need eps in (0, 1), got {eps}")
    seeds = _seeds(base_seed, trials)
    start = time.perf_counter()
    if t is None:
        if c_mult is None or c_mult <= 0.0:
            raise ValueError("need either an explicit t or a positive c_mult")
        try:
            t = math.ceil(c_mult * eps**-2 * math.log(g.n) ** 2)
        except (OverflowError, ValueError):
            raise ValueError(f"t is not finite for eps = {eps!r}, c_mult = {c_mult!r}") from None
    else:
        c_mult = None  # an explicit t leaves the multiplier unused
    t = _check_tree_slots(t, g.n)
    extremes = _run_trials(partial(_sum_trees_trial, g, t, _pencil_check(g)), seeds, jobs)
    ok = [lo >= 1.0 - eps and hi <= 1.0 + eps for lo, hi in extremes]
    pass_fraction = sum(ok) / trials
    # Increments of the tree average have range 1/t in the normalised frame.
    config = {"base_seed": base_seed, "jobs": jobs, "range_per_tree": 1.0 / t}
    return _report(
        "sum_trees",
        graph_desc or f"n={g.n},m={g.m}",
        g.n,
        start,
        config,
        eps_target=eps,
        t=t,
        c_mult=c_mult,
        trials=trials,
        seeds=seeds,
        extremes=extremes,
        pass_fraction=pass_fraction,
        gate=gate,
        passed=pass_fraction >= gate,
    )


# ---------------------------------------------------------------------------
# Clique-star lower bound constructions
# ---------------------------------------------------------------------------


def clique_leverage_value(clique_size: int) -> float:
    """Leverage score of every clique-star edge, in closed form.

    In a clique-star every edge lies inside a single clique attached to
    the rest of the graph only at the hub, so contracting nothing and
    cutting at the hub leaves the other cliques dangling: they carry no
    current and the edge's effective resistance equals its value inside
    one complete graph on ``clique_size`` vertices.  There the
    ``s (s - 1) / 2`` scores are equal by symmetry and sum to ``s - 1``
    (Foster's theorem), so each is ``2 / s``.
    """
    return 2.0 / clique_size


def _degree_violation(edge_weights, lo_win, hi_win, g: WeightedGraph, counts, t: int) -> bool:
    """Whether the average of ``t`` trees weighted ``edge_weights``
    leaves a vertex's weighted degree outside ``(lo_win, hi_win)``."""
    avg_deg = g.weighted_degrees(counts * edge_weights) / t
    return bool(np.any(avg_deg > hi_win) or np.any(avg_deg < lo_win))


def run_multi_tree_lower(
    num_cliques: int,
    clique_size: int,
    eps: float,
    trials: int,
    base_seed: int,
    t: int | None = None,
) -> Report:
    """Weighted-degree violations of few-tree averages on a clique-star.

    Builds the clique-star, averages ``t`` inverse-leverage trees per
    trial and scans every vertex's weighted degree against the window
    ``(1 - eps, 1 + eps)`` times its weighted degree in the parent.  A
    violated window at any vertex already rules the average out as an
    ``eps`` spectral approximation, so only degrees are examined and no
    dense solve is ever attempted at this size.

    ``t`` defaults to ``floor(0.05 * eps^-2 * ln n)`` (clamped to >= 1),
    in which case ``eps`` must lie strictly inside the admissible window
    ``(5 / clique_size, 1/2)``.  An explicit ``t`` skips that refusal and
    only records whether the window held; ``eps`` outside ``(0, 1)`` is
    refused either way.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"need eps in (0, 1), got {eps}")
    seeds = _seeds(base_seed, trials)
    start = time.perf_counter()
    g = clique_star(num_cliques, clique_size)
    window = (5.0 / clique_size, 0.5)
    window_ok = window[0] < eps < window[1]
    t_formula = 0.05 * eps**-2 * math.log(g.n)
    if t is None:
        if not window_ok:
            raise ValueError(
                f"eps = {eps} outside the admissible window ({window[0]:g}, {window[1]:g})"
            )
        t = max(1, math.floor(t_formula))
    t = _check_tree_slots(t, g.n)
    lev = clique_leverage_value(clique_size)
    deg = g.weighted_degrees()
    weights = _inverse_leverage_weights(g, lev)
    check = partial(_degree_violation, weights, (1.0 - eps) * deg, (1.0 + eps) * deg)
    violations = _run_trials(partial(_sum_trees_trial, g, t, check), seeds)
    return _report(
        "multi_tree_lower",
        f"cliquestar:{num_cliques},{clique_size}",
        g.n,
        start,
        {"base_seed": base_seed},
        num_cliques=num_cliques,
        clique_size=clique_size,
        eps=eps,
        t=t,
        t_formula=t_formula,
        eps_window=window,
        eps_window_ok=window_ok,
        leverage_value=lev,
        leverage_method="closed form 2 / clique_size (Foster on one clique, the rest dangles)",
        degree_role="per-vertex clique degree (clique_size - 1)",
        trials=trials,
        seeds=seeds,
        violations=violations,
        violation_fraction=sum(violations) / trials,
    )


def _star_ratio(edge_weights, g: WeightedGraph, counts: np.ndarray, t: int) -> tuple[int, float]:
    """Max tree degree ``d`` over non-hub vertices of the one tree (t = 1)
    with these edge counts, and its star vector's quadratic-form ratio."""
    us, vs, ws = g.edge_arrays
    ids = np.flatnonzero(counts)
    tu, tv = us[ids], vs[ids]
    deg = g.weighted_degrees(counts)
    center = 1 + int(np.argmax(deg[1:]))
    d = int(deg[center])
    # The star: d at the centre, -1 at its tree neighbours but the hub.
    x = np.zeros(g.n)
    x[tv[tu == center]] = -1.0
    x[tu[tv == center]] = -1.0
    x[0] = 0.0
    x[center] = float(d)
    tree_form = float(np.sum(edge_weights[ids] * (x[tu] - x[tv]) ** 2))
    parent_form = float(np.sum(ws * (x[us] - x[vs]) ** 2))
    return d, tree_form / parent_form


def run_single_tree_lower(
    num_cliques: int, clique_size: int, trials: int, base_seed: int
) -> Report:
    """Star-vector certificates against single-tree approximation.

    Per trial, draws one tree of the clique-star, finds the maximum tree
    degree ``d`` over non-hub vertices and evaluates the test vector
    that puts ``d`` on that vertex and ``-1`` on its tree neighbours
    other than the hub, whose many parent edges would swamp the parent
    form.  With inverse-leverage weights the star alone contributes a
    quadratic form ratio of ``(d + 1) / 2``, so the trial certifies that
    the tree is not a ``d / 2`` approximation of the parent; the report
    records the realised ratios and how often the certified factor
    reached ``ln(clique_size) / 2``.
    """
    seeds = _seeds(base_seed, trials)
    start = time.perf_counter()
    g = clique_star(num_cliques, clique_size)
    lev = clique_leverage_value(clique_size)
    check = partial(_star_ratio, _inverse_leverage_weights(g, lev))
    stars = _run_trials(partial(_sum_trees_trial, g, 1, check), seeds)
    max_degrees, ratios = map(list, zip(*stars))
    factors = [d / 2.0 for d in max_degrees]
    certified = [ratio > f for ratio, f in zip(ratios, factors)]
    half_log_s = math.log(clique_size) / 2.0
    return _report(
        "single_tree_lower",
        f"cliquestar:{num_cliques},{clique_size}",
        g.n,
        start,
        {"base_seed": base_seed},
        num_cliques=num_cliques,
        clique_size=clique_size,
        trials=trials,
        seeds=seeds,
        max_degrees=max_degrees,
        certified_factors=factors,
        quadform_ratios=ratios,
        certified=certified,
        certified_fraction=sum(certified) / trials,
        freq_factor_ge_half_log_s=(
            sum(1 for c, f in zip(certified, factors) if c and f >= half_log_s) / trials
        ),
        freq_ratio_ge_half_log_s=sum(1 for r in ratios if r >= half_log_s) / trials,
        leverage_value=lev,
    )


# ---------------------------------------------------------------------------
# Degree law of a fixed vertex
# ---------------------------------------------------------------------------


def degree_reference_pmf(n: int) -> list[float]:
    """Law of a fixed vertex's tree degree in the complete graph.

    Exactly ``1 + Binomial(n - 2, 1/n)``; index j of the returned list
    is the probability of degree ``j + 1``.
    """
    p = 1.0 / n
    out = []
    for j in range(n - 1):
        out.append(math.comb(n - 2, j) * p**j * (1.0 - p) ** (n - 2 - j))
    return out


def run_degree_dist(n: int, samples: int, base_seed: int) -> Report:
    """Empirical degree of vertex 0 over uniform trees of the complete graph.

    Compares against the exact ``1 + Binomial(n - 2, 1/n)`` law in total
    variation; the gate is ``4 sqrt(bins / samples)`` with ``n - 1``
    bins.  All samples come from one :func:`philox_stream` seeded at
    ``base_seed``.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    start = time.perf_counter()
    g = complete_graph(n)
    hist = np.zeros(n - 1, dtype=np.int64)
    us = g.edge_arrays[0]
    # Edges list their smaller endpoint first, so us names vertex 0's edges.
    for ids in wilson_tree_batches(g, philox_stream(base_seed), samples):
        hist += np.bincount((us[ids] == 0).sum(axis=1) - 1, minlength=n - 1)
    counts = hist.tolist()
    pmf = degree_reference_pmf(n)
    tv = 0.5 * math.fsum(abs(counts[j] / samples - pmf[j]) for j in range(n - 1))
    gate = 4.0 * math.sqrt((n - 1) / samples)
    return _report(
        "degree_dist",
        f"k:{n}",
        n,
        start,
        {},
        samples=samples,
        base_seed=base_seed,
        counts=counts,
        reference_pmf=pmf,
        tv_distance=tv,
        gate=gate,
        passed=tv <= gate,
    )
