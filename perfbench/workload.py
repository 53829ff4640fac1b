"""Workload table, seeded input generation and the Wilson step identity.

Everything here depends only on numpy and the workload seed; the
program under test receives nothing but a graph spec or a graph file and
the CLI flags built from the plan.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "certify" or "martingale"
    graph: str  # constructor spec, or "wer" for the generated file
    ops_per_call: int  # certify trials or martingale seeds per CLI call
    pool: int  # op seeds 0..pool-1 have reference outputs
    jobs: int = 1
    eps: float = 0.5
    graph_pool: int = 1  # generated graphs: graph seed = workload seed % graph_pool
    serial_ops: int = 0  # traced --jobs 1 replay size when jobs > 1


# Why each workload exists is written in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-k200",
            "certify",
            "k:200",
            ops_per_call=12,
            pool=256,
        ),
        Workload(
            "certify-wer1000",
            "certify",
            "wer",
            ops_per_call=6,
            pool=16,
            jobs=2,
            graph_pool=8,
            serial_ops=2,
        ),
        Workload(
            "diag-martingale-k10",
            "martingale",
            "k:10",
            ops_per_call=30,
            pool=512,
        ),
    )
}

WER_N = 1000
WER_P = 0.01
WER_WEIGHTS = (1.0, 8.0)


def _connected(n: int, us: np.ndarray, vs: np.ndarray) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for u, v in zip(us.tolist(), vs.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count == 1


def wer_edges(graph_seed: int, n: int = WER_N, p: float = WER_P):
    """Connected weighted G(n, p) by rejection, weights uniform in [1, 8]."""
    gen = np.random.Generator(np.random.Philox(graph_seed))
    iu, iv = np.triu_indices(n, 1)
    while True:
        keep = gen.random(iu.size) < p
        us, vs = iu[keep], iv[keep]
        ws = gen.uniform(*WER_WEIGHTS, us.size)
        if _connected(n, us, vs):
            return n, us, vs, ws


def graph_text(n: int, us, vs, ws) -> str:
    """The package's text format: ``n m`` header, then ``u v w`` lines."""
    lines = [f"{n} {len(us)}"]
    lines += [f"{u} {v} {w:.17g}" for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist())]
    return "\n".join(lines) + "\n"


def write_wer_graph(path: str, graph_seed: int) -> str:
    """Write the certify-wer1000 graph for ``graph_seed``; return its sha256."""
    text = graph_text(*wer_edges(graph_seed))
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return hashlib.sha256(text.encode()).hexdigest()


def complete_edges(n: int):
    iu, iv = np.triu_indices(n, 1)
    return n, iu, iv, np.ones(iu.size)


def graph_edges(workload: Workload, graph_seed: int):
    if workload.graph == "wer":
        return wer_edges(graph_seed)
    kind, _, size = workload.graph.partition(":")
    if kind != "k":
        raise ValueError(f"no edge generator for {workload.graph!r}")
    return complete_edges(int(size))


def call_bases(workload: Workload, seed: int, count: int) -> list[int]:
    """First op seed of each CLI call; every window lies inside the pool."""
    gen = np.random.Generator(np.random.Philox(seed))
    return gen.integers(0, workload.pool - workload.ops_per_call + 1, size=count).tolist()


def wilson_expected_steps(n: int, us, vs, ws) -> float:
    """Expected walk steps per tree of Wilson's sampler rooted at vertex 0.

    Wilson (1996): ``E[steps] = sum_v d_v R_eff(v, 0)`` with weighted
    degrees ``d_v``; ``R_eff(v, 0)`` is the diagonal of the inverse of the
    Laplacian grounded at vertex 0.
    """
    lap = np.zeros((n, n))
    np.add.at(lap, (us, vs), -ws)
    np.add.at(lap, (vs, us), -ws)
    deg = np.zeros(n)
    np.add.at(deg, us, ws)
    np.add.at(deg, vs, ws)
    lap[np.diag_indices(n)] = deg
    reff = np.diag(np.linalg.inv(lap[1:, 1:]))
    return float(deg[1:] @ reff)
