"""Reference outputs and the checker behind ``failed``.

``reference.json`` holds, per workload, the outputs of every op seed in
the workload's pool, captured by ``capture_reference.py``: certify
extremes ``(lo, hi)`` per trial seed (per generated graph for
certify-wer1000), and martingale ``max_step_norm``,
``final_variation_norm`` and ``check_trace_bounds`` verdict per seed.
Pass fractions and exit codes follow from those and the gate.

An op fails if its call raised or died, if the call's exit code, pass
verdict, pass fraction, seeds or tree count disagree with the reference
(then every op of the call fails), or if its own outputs differ from the
reference by more than ``TOL``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Reordering the sums behind the tree average or the pencil moves the
# extremes by about 1e-12; values here are of order 1.  TOL leaves two
# decades above that, and nothing more.
TOL = 1e-10

EXIT_PASS, EXIT_FAIL = 0, 1


def load() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def close(value, ref, tol: float = TOL) -> bool:
    return (
        isinstance(value, (int, float))
        and math.isfinite(value)
        and abs(value - ref) <= tol * max(1.0, abs(ref))
    )


def certify_failures(report, rc, ref: dict, extremes, base: int, trials: int, eps: float) -> int:
    """Failed ops of one ``certify`` call.

    ``report`` is the parsed JSON report (None if missing), ``rc`` the
    exit code, ``ref`` the workload's reference record (``t``, ``gate``)
    and ``extremes`` the reference ``[lo, hi]`` list indexed by seed.
    """
    seeds = list(range(base, base + trials))
    if not isinstance(report, dict) or report.get("seeds") != seeds:
        return trials
    want = [extremes[s] for s in seeds]
    passing = sum(lo >= 1.0 - eps and hi <= 1.0 + eps for lo, hi in want)
    fraction = passing / trials
    passed = fraction >= ref["gate"]
    if (
        report.get("t") != ref["t"]
        or report.get("gate") != ref["gate"]
        or report.get("pass_fraction") != fraction
        or report.get("passed") is not passed
        or rc != (EXIT_PASS if passed else EXIT_FAIL)
        or len(report.get("extremes", ())) != trials
    ):
        return trials
    return sum(
        not (close(lo, rlo) and close(hi, rhi))
        for (lo, hi), (rlo, rhi) in zip(report["extremes"], want)
    )


def martingale_failures(report, rc, outputs, ref_outputs, base: int, seeds: int) -> int:
    """Failed ops of one ``diag martingale`` call.

    ``outputs`` are the per-seed ``[seed, max_step_norm,
    final_variation_norm, verdict]`` rows captured around the CLI's own
    calls; ``ref_outputs`` is indexed by seed.
    """
    expected_seeds = list(range(base, base + seeds))
    if (
        not isinstance(report, dict)
        or outputs is None
        or [row[0] for row in outputs] != expected_seeds
    ):
        return seeds
    want = [ref_outputs[s] for s in expected_seeds]
    failures = sum(not verdict for _, _, verdict in want)
    passed = failures == 0
    if (
        report.get("seeds") != seeds
        or report.get("failures") != failures
        or report.get("passed") is not passed
        or rc != (EXIT_PASS if passed else EXIT_FAIL)
    ):
        return seeds
    return sum(
        not (close(step, rstep) and close(var, rvar) and verdict is rverdict)
        for (_, step, var, verdict), (rstep, rvar, rverdict) in zip(outputs, want)
    )
