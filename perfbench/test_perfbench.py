"""Tests of the benchmark itself: span arithmetic, the reference checker
and seed determinism of the generated inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json

import pytest

import reference
import run
import spans as S
import workload as W


def test_self_times_synthetic_tree():
    spans = [
        ["experiments.root", 0.0, 10.0, -1, -1],
        ["leverage.a", 1.0, 4.0, 0, 0],
        ["spectral.b", 3.0, 6.0, 0, 0],  # overlaps a: the union counts once
        ["graph.c", 9.0, 12.0, 0, 1],  # runs past the parent: clipped
        ["spectral.d", 2.0, 3.0, 1, 0],
    ]
    assert S.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])
    assert S.layer_of("treesample.walk") == "treesample"


def test_recorder_nesting_ops_and_partition():
    rec = S.Recorder()

    def leaf(x):
        return x + 1

    leaf_w = rec.wrap("graph.leaf", leaf)

    def trial(x):
        return leaf_w(leaf_w(x))

    trial_w = rec.wrap("experiments.trial", trial, op_start=True)
    root = rec.wrap("experiments.root", lambda: [trial_w(i) for i in range(3)])
    assert root() == [2, 3, 4]
    names = [s[0] for s in rec.spans]
    assert names[0] == "experiments.root" and names.count("graph.leaf") == 6
    assert [s[4] for s in rec.spans if s[0] == "experiments.trial"] == [0, 1, 2]
    assert all(rec.spans[s[3]][0] == "experiments.trial" for s in rec.spans if s[0] == "graph.leaf")
    selfs = S.self_times(rec.spans)
    root_span = rec.spans[0]
    assert sum(selfs) == pytest.approx(root_span[2] - root_span[1], abs=1e-9)


CERT_REF = {"t": 3, "gate": 0.9}


def _cert_report(extremes, base, passed_fraction, passed):
    return {
        "seeds": list(range(base, base + len(extremes))),
        "extremes": [list(x) for x in extremes],
        "t": 3,
        "gate": 0.9,
        "pass_fraction": passed_fraction,
        "passed": passed,
    }


def test_certify_checker_tolerance_and_call_level_failures():
    ref_ext = [[0.8, 1.2], [0.7, 1.3], [0.6, 1.4], [0.55, 1.45]]
    report = _cert_report(ref_ext[1:3], 1, 1.0, True)
    assert reference.certify_failures(report, 0, CERT_REF, ref_ext, 1, 2, 0.5) == 0
    # A 1e-12 summation-order move is absorbed; a 1e-9 move is not.
    moved = copy.deepcopy(report)
    moved["extremes"][0][0] += 1e-12
    assert reference.certify_failures(moved, 0, CERT_REF, ref_ext, 1, 2, 0.5) == 0
    moved["extremes"][1][1] -= 1e-9
    assert reference.certify_failures(moved, 0, CERT_REF, ref_ext, 1, 2, 0.5) == 1
    # Call-level disagreement fails every op of the call.
    assert reference.certify_failures(report, 1, CERT_REF, ref_ext, 1, 2, 0.5) == 2
    assert reference.certify_failures(None, 0, CERT_REF, ref_ext, 1, 2, 0.5) == 2
    assert reference.certify_failures(report, 0, CERT_REF, ref_ext, 0, 2, 0.5) == 2
    # A failing window expects exit code 1 and passed = False.
    failing = [[0.4, 1.2], [0.7, 1.3]]
    bad = _cert_report(failing, 0, 0.5, False)
    assert reference.certify_failures(bad, 1, CERT_REF, failing, 0, 2, 0.5) == 0
    assert reference.certify_failures(bad, 0, CERT_REF, failing, 0, 2, 0.5) == 2


def test_martingale_checker():
    ref_rows = [[0.5, 2.0, True], [0.6, 2.5, True], [0.7, 3.0, False]]
    outputs = [[0, 0.5, 2.0, True], [1, 0.6, 2.5, True]]
    report = {"seeds": 2, "failures": 0, "passed": True}
    assert reference.martingale_failures(report, 0, outputs, ref_rows, 0, 2) == 0
    nudged = copy.deepcopy(outputs)
    nudged[1][2] += 1e-8
    assert reference.martingale_failures(report, 0, nudged, ref_rows, 0, 2) == 1
    flipped = copy.deepcopy(outputs)
    flipped[0][3] = False
    assert reference.martingale_failures(report, 0, flipped, ref_rows, 0, 2) == 1
    assert reference.martingale_failures(report, 1, outputs, ref_rows, 0, 2) == 2
    assert reference.martingale_failures(report, 0, outputs, ref_rows, 1, 2) == 2


def _perturb(rows, seed, delta):
    rows = copy.deepcopy(rows)
    rows[seed][0] += delta
    return rows


def test_perturbed_reference_reports_failed_ops(tmp_path):
    """The real program agrees with reference.json; a perturbed copy fails."""
    from treespark.cli import main

    ref = reference.load()
    cert = ref["certify-k200"]
    out = tmp_path / "cert.json"
    rc = main(["certify", "--graph", "k:200", "--eps", "0.5", "--trials", "2",
               "--seed", "7", "--jobs", "1", "--json", "--out", str(out)])
    report = json.loads(out.read_text())
    assert reference.certify_failures(report, rc, cert, cert["extremes"], 7, 2, 0.5) == 0
    perturbed = _perturb(cert["extremes"], 8, 1e-9)
    assert reference.certify_failures(report, rc, cert, perturbed, 7, 2, 0.5) == 1

    from treespark.srdiag import check_trace_bounds, martingale_trace
    from treespark.cli import parse_graph_spec

    g = parse_graph_spec("k:10", 0)
    outputs = []
    for seed in (3, 4):
        trace = martingale_trace(g, seed)
        outputs.append([seed, max(trace.step_norms), trace.variation_norms[-1],
                        bool(check_trace_bounds(trace))])
    rows = ref["diag-martingale-k10"]["outputs"]
    failures = sum(not r[3] for r in outputs)
    rep = {"seeds": 2, "failures": failures, "passed": failures == 0}
    rc = 0 if failures == 0 else 1
    assert reference.martingale_failures(rep, rc, outputs, rows, 3, 2) == 0
    assert reference.martingale_failures(rep, rc, outputs, _perturb(rows, 4, 1e-9), 3, 2) == 1


def test_generated_graph_is_seed_deterministic(tmp_path):
    a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    sha_a = W.write_wer_graph(str(a), 3)
    sha_b = W.write_wer_graph(str(b), 3)
    sha_c = W.write_wer_graph(str(c), 4)
    assert sha_a == sha_b and a.read_bytes() == b.read_bytes()
    assert sha_c != sha_a
    graphs = reference.load()["certify-wer1000"]["graphs"]
    assert graphs[3]["sha256"] == sha_a
    n, m = map(int, a.read_text().split("\n", 1)[0].split())
    assert n == W.WER_N and 4000 < m < 6000


def test_call_plan_is_seeded_and_inside_the_pool():
    for w in W.WORKLOADS.values():
        bases = W.call_bases(w, 11, 50)
        assert bases == W.call_bases(w, 11, 50)
        assert bases != W.call_bases(w, 12, 50)
        assert all(0 <= b and b + w.ops_per_call <= w.pool for b in bases)


def test_wilson_identity_on_complete_graph():
    # K_8: 7 vertices of degree 7 at resistance 2/8 from the root.
    assert W.wilson_expected_steps(*W.complete_edges(8)) == pytest.approx(12.25)


def test_oversubscription_is_refused():
    run.check_oversubscription(2, 1, 2)
    with pytest.raises(run.BenchError):
        run.check_oversubscription(2, 2, 2)
    with pytest.raises(run.BenchError):
        run.check_oversubscription(2, 1, 1)


def test_metric_tables_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
