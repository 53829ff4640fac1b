"""The benchmark's hooks still bind to the program.

``perfbench/child.py`` runs one CLI call, wrapping the CLI's own names
to stamp set-up and the runner interval; traced, it also wraps every
``spans.TARGETS`` function and the lazy ``WeightedGraph.adjacency``
build.  Either way it reads ``_laplacian_pinv.cache_info()`` afterwards.
A refactor that unbinds any of them, or leaves a layer's span
unrecorded, makes the call fail here instead of only in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CALLS = [
    (
        "certify",
        ["certify", "--graph", "k:8", "--eps", "0.5", "--trials", "2", "--jobs", "1", "--json"],
        {"graph.build", "graph.adjacency", "spectral.pencil", "experiments.trial"},
    ),
    (
        "martingale",
        ["diag", "martingale", "--graph", "k:5", "--seeds", "2"],
        {"srdiag.trace", "srdiag.check", "treesample.walk"},
    ),
]


def _child_marks(kind, argv, trace, tmp_path):
    """Run the child on ``argv`` and check the marks every run records."""
    marks_path = tmp_path / "marks.json"
    spec = {
        "argv": argv + ["--seed", "0", "--out", str(tmp_path / "report.json")],
        "kind": kind,
        "trace": trace,
        "out": str(marks_path),
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    marks = json.loads(marks_path.read_text())
    assert marks["rc"] == 0
    assert {"build_s", "import_s", "peak_rss_kb"} <= marks.keys()
    assert marks["runner_start"] < marks["runner_end"]
    if kind == "martingale":
        # One output row with a bool verdict per seed: the correctness
        # probe reads each verdict.
        seeds = int(argv[argv.index("--seeds") + 1])
        assert len(marks["outputs"]) == seeds
        assert all(isinstance(row[3], bool) for row in marks["outputs"])
    assert isinstance(marks["pinv_hits"], int) and isinstance(marks["pinv_misses"], int)
    return marks


@pytest.mark.parametrize("kind,argv,names", CALLS)
def test_traced_child_call_records_the_layer_spans(kind, argv, names, tmp_path):
    marks = _child_marks(kind, argv, True, tmp_path)
    assert names <= {span[0] for span in marks["spans"]}
    if kind == "martingale":
        # One traced trace and one traced check per seed.
        seeds = int(argv[argv.index("--seeds") + 1])
        names = [span[0] for span in marks["spans"]]
        assert names.count("srdiag.trace") == names.count("srdiag.check") == seeds


@pytest.mark.parametrize("kind,argv", [call[:2] for call in CALLS], ids=["certify", "martingale"])
def test_untraced_child_call_records_the_runner_marks(kind, argv, tmp_path):
    # Every end-to-end metric of the benchmark comes from this call.
    marks = _child_marks(kind, argv, False, tmp_path)
    assert "spans" not in marks
