"""One CLI invocation in a fresh interpreter, timed from inside.

Usage: ``python3 perfbench/child.py SPEC_JSON`` with ``src`` on
``PYTHONPATH``.  SPEC_JSON holds ``argv`` (the ``treespark`` arguments),
``kind`` (``certify``, ``martingale`` or ``import``), ``trace`` and
``out``, the path the result record is written to.

The invocation is ``treespark.cli.main(argv)`` itself.  Untraced, only
the CLI's own graph-spec and runner names are wrapped, to stamp the end
of set-up and the runner interval and to capture the per-seed martingale
outputs the CLI does not print.  Traced, every layer function is wrapped
as well (see ``spans.py``) and the spans are written when ``main``
returns.
"""

import json
import resource
import sys
import time


def _probe(cli, kind: str, marks: dict):
    """Wrap the CLI's own names: set-up end, runner interval, outputs."""
    clock = time.perf_counter
    parse = cli.parse_graph_spec

    def parse_graph_spec(*args, **kwargs):
        t0 = clock()
        g = parse(*args, **kwargs)
        marks["build_s"] = clock() - t0
        return g

    cli.parse_graph_spec = parse_graph_spec
    if kind == "certify":
        runner = cli.run_sum_trees

        def run_sum_trees(*args, **kwargs):
            marks["runner_start"] = clock()
            try:
                return runner(*args, **kwargs)
            finally:
                marks["runner_end"] = clock()

        cli.run_sum_trees = run_sum_trees
    elif kind == "martingale":
        trace_fn, check_fn = cli.martingale_trace, cli.check_trace_bounds
        outputs = marks["outputs"] = []

        def martingale_trace(g, seed):
            marks.setdefault("runner_start", clock())
            trace = trace_fn(g, seed)
            outputs.append([seed, max(trace.step_norms), trace.variation_norms[-1], None])
            return trace

        def check_trace_bounds(trace, *args, **kwargs):
            verdict = check_fn(trace, *args, **kwargs)
            outputs[-1][3] = bool(verdict)
            marks["runner_end"] = clock()
            return verdict

        cli.martingale_trace = martingale_trace
        cli.check_trace_bounds = check_trace_bounds


def main() -> None:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import treespark.cli as cli

    marks = {"import_s": time.perf_counter() - t0}
    if spec["kind"] == "import":
        marks["done"] = time.monotonic()
    else:
        rec = None
        if spec["trace"]:
            import spans

            rec = spans.Recorder()
            spans.install(rec)
            if spec["kind"] == "martingale":
                suites = cli._DIAG_SUITES
                suites["martingale"] = rec.wrap("cli.diag_martingale", suites["martingale"])
        _probe(cli, spec["kind"], marks)
        marks["rc"] = cli.main(spec["argv"])
        marks["done"] = time.monotonic()
        from treespark.leverage import _laplacian_pinv

        info = _laplacian_pinv.cache_info()
        marks["pinv_hits"], marks["pinv_misses"] = info.hits, info.misses
        if rec is not None:
            marks["spans"] = rec.spans
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    marks["peak_rss_kb"] = max(own, kids)
    with open(spec["out"], "w") as fh:
        json.dump(marks, fh)


if __name__ == "__main__":
    main()
