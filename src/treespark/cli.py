"""Command line front end.

Commands
--------
``treespark sample``   write sampled spanning trees as text lines
``treespark certify``  tree-average sparsifier certificate with JSON report
``treespark diag``     diagnostic suites (marginals, martingale, tails, ...)

Graphs are given either as a file path (format: ``n m`` header then
``u v w`` lines) or as a constructor spec: ``k:N`` (complete),
``ring:N``, ``cliquestar:L,S`` or ``er:N,P`` (seeded by ``--seed``).

Exit codes: 0 pass, 1 gate or diagnostic failure, 2 usage or unreadable
input, 3 invalid (disconnected) graph, 4 size guard refusal or a graph
too large to allocate.  The default seed comes from ``TREESPARK_SEED``
when set, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .graph import (
    DisconnectedGraphError,
    SizeGuardError,
    complete_graph,
    clique_star,
    erdos_renyi_connected,
    guard_vertices,
    philox_stream,
    read_graph,
    ring_graph,
)
from .leverage import DENSE_SOLVE_CAP
from .spectral import check_symmetric_triangle
from .srdiag import (
    SHRINKING_EDGE_CAP,
    TRACE_VERTEX_CAP,
    check_trace_bounds,
    default_reverse_chernoff_grid,
    martingale_trace,
    reverse_chernoff_check,
    check_stirling_binom_lower,
    shrinking_marginals_suite,
    trace_dump,
)
from .experiments import DEFAULT_PASS_GATE, run_sum_trees, write_extremes_csv
from .treesample import wilson_tree_batches

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BAD_GRAPH = 3
EXIT_SIZE_GUARD = 4


class UsageError(ValueError):
    pass


# Constructor specs ``kind:a,b``: the builder, the type of each
# comma-separated field, and the vertex count those fields imply.
_CONSTRUCTORS = {
    "k": (complete_graph, (int,), lambda n: n),
    "ring": (ring_graph, (int,), lambda n: n),
    "cliquestar": (clique_star, (int, int), lambda num, size: num * (size - 1) + 1),
    "er": (erdos_renyi_connected, (int, float), lambda n, p: n),
}


def parse_graph_spec(spec: str, seed: int, max_n: int | None = None):
    """Build a graph from a constructor spec or read it from a file.

    With ``max_n`` set, a spec or file header naming more vertices raises
    SizeGuardError before any edge is built or read.
    """
    kind, _, rest = spec.partition(":")
    if kind in _CONSTRUCTORS:
        build, types, vertices = _CONSTRUCTORS[kind]
        try:
            fields = rest.split(",")
            if len(fields) != len(types):
                raise ValueError(f"expected {len(types)} comma-separated values")
            args = [typ(field) for typ, field in zip(types, fields)]
            guard_vertices(vertices(*args), max_n)
            return build(*args, seed) if kind == "er" else build(*args)
        except (DisconnectedGraphError, SizeGuardError):
            raise
        except ValueError as exc:
            raise UsageError(f"bad graph spec {spec!r}: {exc}") from exc
    if os.path.exists(spec):
        return read_graph(spec, max_n)
    raise UsageError(f"graph spec {spec!r} is neither a constructor nor a file")


def _int_at_least(low: int, high: int | None = None):
    """argparse type for integers that must be at least ``low`` (and at most ``high``)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_seed_int = _int_at_least(0)


def _fraction(low: float = 0.0, high: float = 1.0, closed: bool = True):
    """argparse type for a float in ``[low, high]``, or ``(low, high)`` if not ``closed``.

    NaN lies in no interval, so it is always rejected.
    """
    interval = f"[{low:g}, {high:g}]" if closed else f"({low:g}, {high:g})"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
        inside = low <= value <= high if closed else low < value < high
        if not inside:
            raise argparse.ArgumentTypeError(f"must be in {interval}, got {text}")
        return value

    return parse


def _output_path(text: str) -> str:
    """argparse type for a file to write: its directory must already exist."""
    folder = os.path.dirname(text) or "."
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"directory {folder!r} does not exist")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


def _default_seed() -> int:
    raw = os.environ.get("TREESPARK_SEED", "0")
    try:
        return _seed_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"TREESPARK_SEED {exc}")


def _output(path: str | None, default=None):
    """``path`` opened for writing, or a context that yields ``default``."""
    return open(path, "w") if path else contextlib.nullcontext(default)


def _emit(text: str, out_path: str | None) -> None:
    with _output(out_path, sys.stdout) as fh:
        fh.write(text)


def _cmd_sample(args) -> int:
    g = parse_graph_spec(args.graph, args.seed)
    ws = g.edge_arrays[2]
    with _output(args.out, sys.stdout) as out:
        for i in range(args.count):
            # Tree i is the one checked row of its own seed's batch.
            [[ids]] = wilson_tree_batches(g, philox_stream(args.seed + i), 1)
            ids = np.sort(ids)
            edges = " ".join(map(str, ids.tolist()))
            weights = " ".join(f"{w:.17g}" for w in ws[ids].tolist())
            out.write(f"{g.n}; {edges}; {weights}\n")
    return EXIT_PASS


def _cmd_certify(args) -> int:
    g = parse_graph_spec(args.graph, args.seed, max_n=DENSE_SOLVE_CAP)
    report = run_sum_trees(
        g,
        eps=args.eps,
        trials=args.trials,
        base_seed=args.seed,
        c_mult=args.cmult,
        t=args.t,
        gate=args.gate,
        jobs=args.jobs,
        graph_desc=args.graph,
    )
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
    if args.csv:
        write_extremes_csv(report, args.csv)
    results = report.results
    if not args.json:
        print(
            f"certify: pass_fraction={results['pass_fraction']:g} gate={results['gate']:g} "
            f"{'PASS' if results['passed'] else 'FAIL'}",
            file=sys.stderr,
        )
    return EXIT_PASS if results["passed"] else EXIT_FAIL


def _diag_marginals(args) -> tuple[bool, dict]:
    # A connected graph within the edge cap has at most one more vertex than edges.
    g = parse_graph_spec(args.graph, args.seed, max_n=SHRINKING_EDGE_CAP + 1)
    report = shrinking_marginals_suite(g)
    forest, edge, conditional, unconditional = report.worst
    return report.passed, {
        "suite": "marginals",
        "graph": args.graph,
        "forests": report.num_forests,
        "pairs": report.num_pairs,
        "max_excess": report.max_excess,
        "worst": {
            "forest": forest,
            "edge": edge,
            "conditional": conditional,
            "unconditional": unconditional,
        },
        "passed": report.passed,
    }


def _diag_martingale(args) -> tuple[bool, dict]:
    g = parse_graph_spec(args.graph, args.seed, max_n=TRACE_VERTEX_CAP)
    results = []
    margins = []
    with _output(args.dump) as dump:
        for seed in range(args.seed, args.seed + args.seeds):
            trace = martingale_trace(g, seed)
            results.append(check_trace_bounds(trace))
            margins.append((*trace.worst_margin(), seed))
            if dump:
                dump.write(trace_dump(trace))
    # The first smallest margin, or the first NaN one: argmin returns it.
    margin, step, bound, seed = margins[int(np.argmin([m[0] for m in margins]))]
    passed = all(results)
    return passed, {
        "suite": "martingale",
        "graph": args.graph,
        "seeds": args.seeds,
        "failures": results.count(False),
        "worst": {"margin": margin, "seed": seed, "step": step, "bound": bound},
        "passed": passed,
    }


def _tally(suite: str, results: list[bool], **fields) -> tuple[bool, dict]:
    """A suite's verdict and payload: its name, ``fields``, failures, passed."""
    passed = all(results)
    return passed, {
        "suite": suite,
        **fields,
        "failures": results.count(False),
        "passed": passed,
    }


def _diag_reverse_chernoff(args) -> tuple[bool, dict]:
    grid = default_reverse_chernoff_grid()
    results = [reverse_chernoff_check(k, p, eps) for k, p, eps in grid]
    return _tally("reverse-chernoff", results, triples=len(grid))


def _diag_stirling(args) -> tuple[bool, dict]:
    results = [
        check_stirling_binom_lower(k, l)
        for k in range(2, args.kmax + 1)
        for l in range(1, k)
    ]
    return _tally("stirling", results, kmax=args.kmax, pairs=len(results))


def _diag_matrix_fact(args) -> tuple[bool, dict]:
    gen = philox_stream(args.seed)
    results = []
    for _ in range(args.pairs):
        a = gen.uniform(-1.0, 1.0, (args.dim, args.dim))
        b = gen.uniform(-1.0, 1.0, (args.dim, args.dim))
        results.append(check_symmetric_triangle((a + a.T) / 2.0, (b + b.T) / 2.0))
    return _tally("matrix-fact", results, pairs=args.pairs, dim=args.dim)


_DIAG_SUITES = {
    "marginals": _diag_marginals,
    "martingale": _diag_martingale,
    "reverse-chernoff": _diag_reverse_chernoff,
    "stirling": _diag_stirling,
    "matrix-fact": _diag_matrix_fact,
}


def _cmd_diag(args) -> int:
    passed, payload = _DIAG_SUITES[args.suite](args)
    payload["library_version"] = __version__
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_PASS if passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treespark", description="weighted spanning tree sparsifier toolkit"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="sample spanning trees")
    p_sample.add_argument("--graph", required=True)
    p_sample.add_argument("--count", type=_positive_int, default=1)
    p_sample.add_argument("--seed", type=_seed_int, default=None)
    p_sample.add_argument("--out", type=_output_path, default=None)
    p_sample.set_defaults(func=_cmd_sample)

    p_cert = sub.add_parser("certify", help="tree-average sparsifier certificate")
    p_cert.add_argument("--graph", required=True)
    p_cert.add_argument("--eps", type=_fraction(closed=False), required=True)
    p_cert.add_argument("--t", type=_positive_int, default=None)
    p_cert.add_argument("--cmult", type=_fraction(high=math.inf, closed=False), default=1.0)
    p_cert.add_argument("--trials", type=_positive_int, default=10)
    p_cert.add_argument("--gate", type=_fraction(), default=DEFAULT_PASS_GATE)
    p_cert.add_argument("--seed", type=_seed_int, default=None)
    p_cert.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1)
    p_cert.add_argument("--json", action="store_true", help="machine output only")
    p_cert.add_argument("--out", type=_output_path, default=None)
    p_cert.add_argument("--csv", type=_output_path, default=None)
    p_cert.set_defaults(func=_cmd_certify)

    p_diag = sub.add_parser("diag", help="diagnostic suites")
    p_diag.add_argument("suite", choices=sorted(_DIAG_SUITES))
    p_diag.add_argument("--graph", default="k:5")
    p_diag.add_argument("--seeds", type=_positive_int, default=20)
    p_diag.add_argument("--kmax", type=_int_at_least(2), default=60)
    p_diag.add_argument("--pairs", type=_positive_int, default=200)
    # Each pair draws two dim x dim matrices; the dense cap bounds them.
    p_diag.add_argument("--dim", type=_int_at_least(1, DENSE_SOLVE_CAP), default=8)
    p_diag.add_argument("--seed", type=_seed_int, default=None)
    p_diag.add_argument("--dump", type=_output_path, default=None)
    p_diag.add_argument("--out", type=_output_path, default=None)
    p_diag.set_defaults(func=_cmd_diag)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None:
            args.seed = _default_seed()
        return args.func(args)
    except DisconnectedGraphError as exc:
        print(f"treespark: invalid graph: {exc}", file=sys.stderr)
        return EXIT_BAD_GRAPH
    except (SizeGuardError, MemoryError) as exc:
        print(f"treespark: size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except (ValueError, OSError) as exc:
        print(f"treespark: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
