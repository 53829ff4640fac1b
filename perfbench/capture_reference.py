"""Capture ``reference.json``: the outputs of every pooled op seed.

Run from the repository root, once per program version whose outputs are
the reference:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/capture_reference.py

It calls the same library functions the CLI calls, with the same graph
inputs the benchmark generates (graph files go to ``perfbench/out``).
"""

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workload as W  # noqa: E402
from treespark.cli import parse_graph_spec  # noqa: E402
from treespark.experiments import DEFAULT_PASS_GATE, run_sum_trees  # noqa: E402
from treespark.srdiag import check_trace_bounds, martingale_trace  # noqa: E402

JOBS = 2


def certify_extremes(w: W.Workload, spec: str) -> tuple[int, list]:
    g = parse_graph_spec(spec, 0)
    rep = run_sum_trees(g, eps=w.eps, trials=w.pool, base_seed=0, c_mult=1.0, jobs=JOBS)
    return rep.t, [list(x) for x in rep.extremes]


def main() -> None:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    ref = {"tolerance": reference.TOL}
    for w in W.WORKLOADS.values():
        t0 = time.perf_counter()
        if w.kind == "martingale":
            g = parse_graph_spec(w.graph, 0)
            rows = []
            for seed in range(w.pool):
                trace = martingale_trace(g, seed)
                rows.append(
                    [max(trace.step_norms), trace.variation_norms[-1], bool(check_trace_bounds(trace))]
                )
            ref[w.name] = {"graph": w.graph, "outputs": rows}
        elif w.graph == "wer":
            graphs = []
            for gs in range(w.graph_pool):
                path = str(out_dir / f"reference-wer-g{gs}.txt")
                sha = W.write_wer_graph(path, gs)
                t, extremes = certify_extremes(w, path)
                graphs.append({"graph_seed": gs, "sha256": sha, "extremes": extremes})
                os.remove(path)
            ref[w.name] = {"t": t, "gate": DEFAULT_PASS_GATE, "graphs": graphs}
        else:
            t, extremes = certify_extremes(w, w.graph)
            ref[w.name] = {"graph": w.graph, "t": t, "gate": DEFAULT_PASS_GATE, "extremes": extremes}
        print(f"{w.name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(reference.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
