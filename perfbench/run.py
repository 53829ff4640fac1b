"""treespark benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each CLI call runs in a fresh interpreter
(``child.py``) with BLAS pinned to one thread, so the process pool, the
fork and the ``lru_cache`` behave as they do for a user.  Calls repeat
until ``--seconds`` is spent; end-to-end metrics are medians over calls.
``--trace 1`` alternates each untraced call with a traced ``--jobs 1``
replay and reports per-layer metrics instead.  Every call's outputs are
checked against ``reference.json``.  The last stdout line is the JSON
result; the full record and the environment go to
``perfbench/out/<workload>-seed<N>-trace<T>/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import spans as S  # noqa: E402
import workload as W  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALL_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "graph.build_s": "s",
    "graph.adjacency_s": "s",
    "graph.laplacian_calls_per_op": "count",
    "graph.laplacian_ms_per_op": "ms",
    "spectral.eig_sym_calls_per_op": "count",
    "spectral.eig_sym_ms_per_op": "ms",
    "spectral.pencil_calls_per_op": "count",
    "spectral.pencil_ms_per_op": "ms",
    "treesample.trees_per_op": "count",
    "treesample.sample_us_per_tree": "us",
    "treesample.reweight_us_per_tree": "us",
    "treesample.average_ms_per_op": "ms",
    "treesample.walk_steps_per_tree_computed": "steps",
    "treesample.ns_per_walk_step": "ns",
    "leverage.scores_calls_per_op": "count",
    "leverage.scores_ms_per_op": "ms",
    "leverage.pinv_cache_hit_ratio": "ratio",
    "leverage.conditional_calls_per_op": "count",
    "leverage.conditional_ms_per_op": "ms",
    "srdiag.trace_ms_per_op": "ms",
    "srdiag.check_ms_per_op": "ms",
    "experiments.self_ms_per_op": "ms",
    "experiments.op_ms_p50": "ms",
    "experiments.op_ms_p90": "ms",
    "experiments.parallel_efficiency": "ratio",
    "bench.trace_overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def blas_info() -> tuple[str, int]:
    """Loaded BLAS library and its thread count, read from the library."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() or "mkl" in ln.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "MKL_Get_Max_Threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return Path(path).name, int(fn())
    raise BenchError("cannot find the BLAS library numpy loaded, or its thread count")


def environment(jobs: int) -> dict:
    name, threads = blas_info()
    affinity = sorted(os.sched_getaffinity(0))
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_library": name,
        "blas_threads": threads,
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "loadavg_start": list(os.getloadavg()),
        "workers": jobs,
    }
    check_oversubscription(jobs, threads, len(affinity))
    return env


def check_oversubscription(workers: int, blas_threads: int, nproc: int) -> None:
    if workers * blas_threads > nproc:
        raise BenchError(
            f"{workers} workers x {blas_threads} BLAS threads exceeds nproc = {nproc}; "
            "the timing would measure the scheduler"
        )


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


def invoke(spec: dict, out: Path) -> tuple[dict | None, float | None, str]:
    """Run one child; return its record, its wall time and its stderr tail."""
    spec = dict(spec, out=str(out))
    if out.exists():
        out.unlink()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None, "timed out"
    if proc.returncode != 0 or not out.exists():
        return None, None, err[-2000:]
    with open(out) as fh:
        marks = json.load(fh)
    out.unlink()
    return marks, marks["done"] - start, err[-2000:]


class Bench:
    def __init__(self, w: W.Workload, seed: int, outdir: Path, ref: dict):
        self.w = w
        self.outdir = outdir
        self.ref = ref
        self.bases = W.call_bases(w, seed, 1024)
        self.calls: list[dict] = []
        if w.graph == "wer":
            graph_seed = seed % w.graph_pool
            record = ref["graphs"][graph_seed]
            path = outdir / f"wer1000-g{graph_seed}.txt"
            if W.write_wer_graph(str(path), graph_seed) != record["sha256"]:
                raise BenchError("generated graph differs from the reference input")
            self.graph_seed, self.spec = graph_seed, str(path)
            self.extremes = record["extremes"]
        else:
            self.graph_seed, self.spec = 0, w.graph
            self.extremes = ref.get("extremes")

    def argv(self, base: int, ops: int, jobs: int, report: Path) -> list[str]:
        w = self.w
        if w.kind == "certify":
            return [
                "certify", "--graph", self.spec, "--eps", repr(w.eps), "--trials", str(ops),
                "--seed", str(base), "--jobs", str(jobs), "--json", "--out", str(report),
            ]
        return [
            "diag", "martingale", "--graph", self.spec, "--seeds", str(ops),
            "--seed", str(base), "--out", str(report),
        ]

    def call(self, mode: str, trace: bool, jobs: int, ops: int) -> dict:
        """One CLI call on the next pooled window; checks its outputs."""
        base = self.bases[len(self.calls) % len(self.bases)]
        n = len(self.calls)
        report_path = self.outdir / f"call{n}.report.json"
        if report_path.exists():
            report_path.unlink()
        spec = {
            "argv": self.argv(base, ops, jobs, report_path),
            "kind": self.w.kind,
            "trace": trace,
        }
        marks, wall, err = invoke(spec, self.outdir / f"call{n}.marks.json")
        report = None
        if report_path.exists():
            with open(report_path) as fh:
                try:
                    report = json.load(fh)
                except ValueError:
                    pass  # an unreadable report fails every op of the call
        if marks is None:
            failed = ops
        elif self.w.kind == "certify":
            failed = reference.certify_failures(
                report, marks["rc"], self.ref, self.extremes, base, ops, self.w.eps
            )
        else:
            failed = reference.martingale_failures(
                report, marks["rc"], marks.get("outputs"), self.ref["outputs"], base, ops
            )
        rec = {"mode": mode, "trace": trace, "jobs": jobs, "base": base, "ops": ops,
               "failed": failed, "wall_s": wall, "marks": marks,
               "runner_s": runner_s(marks) if marks and "runner_end" in marks else None}
        if failed:
            rec["stderr"] = err
        self.calls.append(rec)
        return rec


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def runner_s(marks: dict) -> float:
    return marks["runner_end"] - marks["runner_start"]


def completed(calls: list[dict]) -> list[dict]:
    """Calls that ran to the end; wrong outputs are counted in ``failed``."""
    ok = [c for c in calls if c["runner_s"] is not None]
    if not ok:
        raise BenchError("no call ran to completion")
    return ok


def end_to_end(calls: list[dict]) -> dict:
    ok = completed(calls)
    return {
        "wall_s": statistics.median(c["wall_s"] for c in ok),
        "setup_s": statistics.median(c["marks"]["import_s"] + c["marks"]["build_s"] for c in ok),
        "ops_per_s": statistics.median(c["ops"] / c["runner_s"] for c in ok),
        "peak_rss_mb": statistics.median(c["marks"]["peak_rss_kb"] / 1024.0 for c in ok),
    }


def traced_metrics(marks: dict, kind: str, steps_per_tree: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced call, and its self-time accounting.

    Op latencies are returned in the accounting under ``op_ms``; the
    caller pools them across traced calls.
    """
    spans = marks["spans"]
    selfs = S.self_times(spans)
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for (name, start, end, parent, op), s in zip(spans, selfs):
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + s
    op_names = {"experiments.trial"} if kind == "certify" else {"srdiag.trace", "srdiag.check"}
    op_ms: dict[int, float] = {}
    for name, start, end, parent, op in spans:
        if name in op_names:
            op_ms[op] = op_ms.get(op, 0.0) + (end - start) * 1e3
    ops = len(op_ms)
    if ops == 0:
        raise BenchError("the traced call recorded no op")
    trees = count.get("treesample.sample", 0)

    def per_op_ms(name):
        return total.get(name, 0.0) * 1e3 / ops

    def per_tree_us(name):
        return total.get(name, 0.0) * 1e6 / trees if trees else 0.0

    runner_layers = {"experiments", "cli"}
    lookups = marks["pinv_hits"] + marks["pinv_misses"]
    walks = count.get("treesample.walk", 0)
    m = {
        "cli.import_s": marks["import_s"],
        "graph.build_s": marks["build_s"],
        "graph.adjacency_s": total.get("graph.adjacency", 0.0),
        "graph.laplacian_calls_per_op": count.get("graph.laplacian", 0) / ops,
        "graph.laplacian_ms_per_op": per_op_ms("graph.laplacian"),
        "spectral.eig_sym_calls_per_op": count.get("spectral.eig_sym", 0) / ops,
        "spectral.eig_sym_ms_per_op": per_op_ms("spectral.eig_sym"),
        "spectral.pencil_calls_per_op": count.get("spectral.pencil", 0) / ops,
        "spectral.pencil_ms_per_op": per_op_ms("spectral.pencil"),
        "treesample.trees_per_op": trees / ops,
        "treesample.sample_us_per_tree": per_tree_us("treesample.sample"),
        "treesample.reweight_us_per_tree": per_tree_us("treesample.reweight"),
        "treesample.average_ms_per_op": per_op_ms("treesample.average"),
        "treesample.walk_steps_per_tree_computed": steps_per_tree,
        "treesample.ns_per_walk_step": (
            own.get("treesample.walk", 0.0) * 1e9 / (walks * steps_per_tree) if walks else 0.0
        ),
        "leverage.scores_calls_per_op": count.get("leverage.scores", 0) / ops,
        "leverage.scores_ms_per_op": per_op_ms("leverage.scores"),
        "leverage.pinv_cache_hit_ratio": marks["pinv_hits"] / lookups if lookups else 0.0,
        "leverage.conditional_calls_per_op": count.get("leverage.conditional", 0) / ops,
        "leverage.conditional_ms_per_op": per_op_ms("leverage.conditional"),
        "srdiag.trace_ms_per_op": per_op_ms("srdiag.trace"),
        "srdiag.check_ms_per_op": per_op_ms("srdiag.check"),
        "experiments.self_ms_per_op": sum(
            s for sp, s in zip(spans, selfs) if S.layer_of(sp[0]) in runner_layers
        ) * 1e3 / ops,
    }
    # Self time by layer inside the runner interval; whatever no span
    # covers there is the CLI's own loop.
    lo, hi = marks["runner_start"], marks["runner_end"]
    by_layer: dict[str, float] = {}
    for sp, s in zip(spans, selfs):
        if sp[1] >= lo and sp[2] <= hi:
            by_layer[S.layer_of(sp[0])] = by_layer.get(S.layer_of(sp[0]), 0.0) + s
    runner = hi - lo
    by_layer["cli"] = by_layer.get("cli", 0.0) + runner - sum(by_layer.values())
    accounting = {
        "ops": ops,
        "op_ms": list(op_ms.values()),
        "runner_s_per_op": runner / ops,
        "layer_self_s_per_op": {k: v / ops for k, v in sorted(by_layer.items())},
    }
    return m, accounting


def not_applicable(values: dict, w: W.Workload) -> dict:
    reasons = {}
    for name, value in values.items():
        if value == 0.0:
            reasons[name] = "no call of this layer function in this workload"
    if w.jobs == 1:
        reasons["experiments.parallel_efficiency"] = "workload runs with --jobs 1"
    return reasons


def median_dict(dicts: list[dict]) -> dict:
    keys = sorted({k for d in dicts for k in d})
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------


def run(w: W.Workload, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    outdir = HERE / "out" / f"{w.name}-seed{seed}-trace{int(trace)}"
    outdir.mkdir(parents=True, exist_ok=True)
    env = environment(w.jobs)
    with open(outdir / "environment.json", "w") as fh:
        json.dump(env, fh, indent=1)
    if not (ROOT / "src" / "treespark").is_dir():
        raise BenchError(f"no treespark package under {ROOT / 'src'}")
    bench = Bench(w, seed, outdir, reference.load()[w.name])

    # Compile bytecode and warm the file cache before anything is timed.
    marks, _, err = invoke({"kind": "import", "trace": False}, outdir / "warmup.json")
    if marks is None:
        raise BenchError(f"cannot import treespark: {err.strip()}")

    deadline = time.monotonic() + seconds
    traced, overhead = [], []
    while True:
        round_start = time.monotonic()
        user = bench.call("user", False, w.jobs, w.ops_per_call)
        if trace:
            serial_ops = w.serial_ops or w.ops_per_call
            tr = bench.call("traced", True, 1, serial_ops)
            base = user if w.jobs == 1 else bench.call("serial", False, 1, serial_ops)
            if tr["runner_s"] is not None and base["runner_s"] is not None:
                traced.append(tr)
                overhead.append(tr["wall_s"] / base["wall_s"])
        now = time.monotonic()
        if now + (now - round_start) > deadline:
            break

    attempted = sum(c["ops"] for c in bench.calls)
    failed = sum(c["failed"] for c in bench.calls)
    users = [c for c in bench.calls if c["mode"] == "user"]
    if not trace:
        metrics = end_to_end(users)
        units = END_TO_END
        extra = {}
    else:
        if not traced:
            raise BenchError("no traced call completed")
        n, us, vs, ws = W.graph_edges(w, bench.graph_seed)
        steps = W.wilson_expected_steps(n, us, vs, ws)
        per_call, accounting = [], []
        for c in traced:
            m, acc = traced_metrics(c["marks"], w.kind, steps)
            per_call.append(m)
            accounting.append(acc)
        metrics = median_dict(per_call)
        # Op latency quantiles pool the ops of every traced call.
        op_ms = [x for a in accounting for x in a.pop("op_ms")]
        metrics["experiments.op_ms_p50"], metrics["experiments.op_ms_p90"] = (
            float(q) for q in np.quantile(op_ms, [0.5, 0.9])
        )
        metrics["bench.trace_overhead_ratio"] = statistics.median(overhead)
        serial = [c for c in completed(bench.calls) if not c["trace"] and c["jobs"] == 1]
        serial_op_s = statistics.median(c["runner_s"] / c["ops"] for c in serial)
        traced_op_s = statistics.median(a["runner_s_per_op"] for a in accounting)
        metrics["experiments.parallel_efficiency"] = 0.0
        if w.jobs > 1:
            parallel_op_s = statistics.median(c["runner_s"] / c["ops"] for c in completed(users))
            metrics["experiments.parallel_efficiency"] = serial_op_s / (w.jobs * parallel_op_s)
        metrics = {k: metrics[k] for k in PER_LAYER}
        units = PER_LAYER
        extra = {
            "not_applicable": not_applicable(metrics, w),
            "accounting": {
                "traced_runner_s_per_op": traced_op_s,
                "untraced_serial_runner_s_per_op": serial_op_s,
                "traced_over_untraced": traced_op_s / serial_op_s,
                "layer_self_s_per_op": median_dict([a["layer_self_s_per_op"] for a in accounting]),
            },
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "failed_op_ratio": failed / attempted,
        "result": result,
        **extra,
        "calls": [{k: v for k, v in c.items() if k != "marks"} for c in bench.calls],
    }
    with open(outdir / "result.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        result, record = run(W.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        note = record.get("not_applicable", {}).get(name)
        print(f"{name} {metric['value']:.6g} {metric['unit']}" + (f"  (n/a: {note})" if note else ""))
    print(f"failed_op_ratio {record['failed_op_ratio']:.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} ops)")
    if "accounting" in record:
        acc = record["accounting"]
        print("accounting (s/op): " + json.dumps(acc))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
