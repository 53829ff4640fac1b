"""Experiment drivers: tree-average sparsifier certificates, lower bound
constructions and sampler law checks, each returning one :class:`Report`.

Every driver derives per-trial seeds as ``base_seed + trial_index``, so
trials are reproducible one by one and independent of how work is
scheduled.  Formulas use the natural log; reports echo ``ln n`` and
``log2 n`` so either convention can be read off.  Pass gates on
high-probability statements are finite-sample calibration choices and
are recorded in the report next to the data they gate.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .graph import WeightedGraph, clique_star, complete_graph, laplacian, philox_stream
from .leverage import laplacian_frame, leverage_scores
from .spectral import normalized_pencil
from .treesample import tree_edge_counts, wilson_tree_batches

DEFAULT_PASS_GATE = 0.9

# Most tree-edge slots (t trees times n - 1 edges) one certify trial may
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
    extremes = _run_trials(_certify_run(g, 1), seeds)
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
# Averaged trees as sparsifier candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CertifyRun:
    """State every certify trial of one run shares, built once per run.

    ``edge_weights`` is the weight each sampled tree gives each edge,
    the inverse-leverage weight ``w_e / lev_e`` for certify runs;
    ``frame`` is the shared whitening frame of L_G
    (:func:`laplacian_frame`), the only form of L_G a trial reads.  It
    is built before any pool starts, so forked workers share one copy.
    """

    g: WeightedGraph
    t: int
    edge_weights: np.ndarray
    frame: tuple[np.ndarray, np.ndarray]


def _certify_run(g: WeightedGraph, t: int) -> _CertifyRun:
    _, _, ws = g.edge_arrays
    lev = leverage_scores(g).values
    return _CertifyRun(g, t, ws / lev, laplacian_frame(g))


def _sum_trees_trial(run: _CertifyRun, seed: int) -> tuple[float, float]:
    """Pencil extremes of the average of ``run.t`` reweighted trees.

    Equals ``normalized_pencil(run.frame, average_trees([reweight_tree(
    sample_tree_stream(g, gen), prof) for _ in range(t)]))`` on the same
    stream, but reads the trees as :func:`tree_edge_counts`: one count
    per edge and one Laplacian assembly.
    """
    g = run.g
    counts = tree_edge_counts(g, philox_stream(seed), run.t)
    return normalized_pencil(run.frame, laplacian(g, counts * run.edge_weights / run.t))


# Set only inside pool workers, by the executor's initializer, so each
# worker receives the run once instead of once per trial.
_WORKER_RUN: _CertifyRun | None = None


def _install_run(run: _CertifyRun) -> None:
    global _WORKER_RUN
    _WORKER_RUN = run


def _worker_trial(seed: int) -> tuple[float, float]:
    return _sum_trees_trial(_WORKER_RUN, seed)


def _run_trials(run: _CertifyRun, seeds: list[int], jobs: int = 1) -> list[tuple[float, float]]:
    """Pencil extremes of every trial seed, in seed order.

    At most ``jobs`` worker processes run the trials, and never more
    than there are seeds, since each worker receives the whole run;
    one worker or none means the trials run in this process.
    """
    workers = min(jobs, len(seeds))
    if workers <= 1:
        return [_sum_trees_trial(run, seed) for seed in seeds]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=workers, initializer=_install_run, initargs=(run,)
    ) as pool:
        extremes = list(pool.map(_worker_trial, seeds))
    return extremes


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
    default.  With ``jobs > 1`` trials run in up to ``jobs`` separate
    processes, each of which receives the leverage weights and the
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
    elif t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    else:
        c_mult = None  # an explicit t leaves the multiplier unused
    if t * (g.n - 1) > MAX_TREE_SLOTS:
        raise ValueError(
            f"t = {t} trees on n = {g.n} vertices exceed the cap of "
            f"MAX_TREE_SLOTS = {MAX_TREE_SLOTS} tree-edge slots per trial"
        )
    extremes = _run_trials(_certify_run(g, t), seeds, jobs)
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
        t=int(t),
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
    ``(5 / clique_size, 1/2)``.  An explicit ``t`` skips the refusal and
    only records whether the window held.
    """
    seeds = _seeds(base_seed, trials)
    start = time.perf_counter()
    g = clique_star(num_cliques, clique_size)
    n = g.n
    window = (5.0 / clique_size, 0.5)
    window_ok = window[0] < eps < window[1]
    t_formula = 0.05 * eps**-2 * math.log(n)
    if t is None:
        if not window_ok:
            raise ValueError(
                f"eps = {eps} outside the admissible window ({window[0]:g}, {window[1]:g})"
            )
        t = max(1, math.floor(t_formula))
    elif t < 1:
        raise ValueError(f"need t >= 1, got {t}")

    lev = clique_leverage_value(clique_size)
    inv_lev = 1.0 / lev
    base_deg = g.weighted_degrees()
    lo_win = (1.0 - eps) * base_deg
    hi_win = (1.0 + eps) * base_deg
    ws = g.edge_arrays[2]

    violations = []
    for seed in seeds:
        w = tree_edge_counts(g, philox_stream(seed), t) * ws * inv_lev
        avg_deg = g.weighted_degrees(w) / t
        violations.append(bool(np.any(avg_deg > hi_win) or np.any(avg_deg < lo_win)))

    return _report(
        "multi_tree_lower",
        f"cliquestar:{num_cliques},{clique_size}",
        n,
        start,
        {"base_seed": base_seed},
        num_cliques=num_cliques,
        clique_size=clique_size,
        eps=eps,
        t=int(t),
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


def run_single_tree_lower(
    num_cliques: int, clique_size: int, trials: int, base_seed: int
) -> Report:
    """Star-vector certificates against single-tree approximation.

    Per trial, draws one tree of the clique-star, finds the maximum tree
    degree ``d`` over non-hub vertices and evaluates the test vector
    that puts ``d`` on that vertex and ``-1`` on its tree neighbours.
    With inverse-leverage weights the star alone contributes a quadratic
    form ratio of ``(d + 1) / 2``, so the trial certifies that the tree
    is not a ``d / 2`` approximation of the parent; the report records
    the realised ratios and how often the certified factor reached
    ``ln(clique_size) / 2``.
    """
    seeds = _seeds(base_seed, trials)
    start = time.perf_counter()
    g = clique_star(num_cliques, clique_size)
    n = g.n
    us, vs, ws = g.edge_arrays
    lev = clique_leverage_value(clique_size)
    inv_lev = 1.0 / lev

    max_degrees = []
    factors = []
    ratios = []
    certified = []
    for seed in seeds:
        [(parents, ids)] = wilson_tree_batches(g, philox_stream(seed), 1)
        parents, ids = parents[0], ids[0]
        tu, tv = us[ids], vs[ids]
        deg = g.weighted_degrees(np.bincount(ids, minlength=g.m))
        center = 1 + int(np.argmax(deg[1:]))
        d = int(deg[center])
        # The star: d at the centre, -1 at its tree neighbours, that is
        # its parent and every vertex whose parent it is.
        x = np.zeros(n)
        x[parents[center - 1]] = -1.0
        x[1:][parents == center] = -1.0
        x[center] = float(d)
        tree_form = float(np.sum(ws[ids] * inv_lev * (x[tu] - x[tv]) ** 2))
        parent_form = float(np.sum(ws * (x[us] - x[vs]) ** 2))
        ratio = tree_form / parent_form
        max_degrees.append(d)
        factors.append(d / 2.0)
        ratios.append(ratio)
        certified.append(bool(ratio > d / 2.0))

    half_log_s = math.log(clique_size) / 2.0
    return _report(
        "single_tree_lower",
        f"cliquestar:{num_cliques},{clique_size}",
        n,
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
    # Vertex 0 is the root, so its tree degree counts its children.
    for parents, _ in wilson_tree_batches(g, philox_stream(base_seed), samples):
        hist += np.bincount((parents == 0).sum(axis=1) - 1, minlength=n - 1)
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
