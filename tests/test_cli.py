"""Command line surface: specs, exit codes, output formats, seeding."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from corpus import SMALL, random_connected_graph, weighted_triangle, write_graph
from test_experiments import DRIVER_KEYS
from tree_line_oracle import format_tree_line, parse_tree_line, sample_tree_wilson
import treespark.cli as cli
from treespark.cli import (
    EXIT_BAD_GRAPH,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_SIZE_GUARD,
    EXIT_USAGE,
    _tally,
    build_parser,
    main,
    parse_graph_spec,
)
from treespark.experiments import DEFAULT_PASS_GATE
from treespark.graph import WeightedGraph, complete_graph
from treespark.srdiag import TRACE_EDGE_CAP
from treespark.treesample import SpanningTree

SRC = Path(__file__).resolve().parents[1] / "src"


def test_parse_graph_spec_constructors():
    assert parse_graph_spec("k:5", 0).m == 10
    assert parse_graph_spec("ring:6", 0).m == 6
    g = parse_graph_spec("cliquestar:2,3", 0)
    assert g.n == 5
    assert parse_graph_spec("er:8,0.5", 3).n == 8


def test_parse_graph_spec_file(tmp_path):
    path = tmp_path / "tri.graph"
    write_graph(weighted_triangle(), str(path))
    g = parse_graph_spec(str(path), 0)
    assert g.edges == weighted_triangle().edges


def test_sample_deterministic_output(capsys):
    assert main(["sample", "--graph", "k:5", "--count", "3", "--seed", "7"]) == EXIT_PASS
    first = capsys.readouterr().out
    assert main(["sample", "--graph", "k:5", "--count", "3", "--seed", "7"]) == EXIT_PASS
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().split("\n")
    assert len(lines) == 3
    g = complete_graph(5)
    for line in lines:
        tree = parse_tree_line(line, g, "original")
        assert len(tree.edge_ids) == 4


# sha256 of `sample --count 40 --seed 0` stdout, drawn at the version
# whose `sample` built one SpanningTree per line.  The batch-row route
# prints the same bytes.
SAMPLE_DIGESTS = {
    "k:60": "00cb564c9de5f81b2e29f6ff1942d8434bf92cb8d1a561dc3babc0f7cc16059a",
    "multigraph": "d7c78a9b138ce2e44c5b9c3e07043f649227e7d97ab98bb144282184daf6c47c",
}


@pytest.mark.parametrize("name", sorted(SAMPLE_DIGESTS))
def test_sample_lines_match_their_object_route_digest(name, tmp_path, capsys):
    # The weighted multigraph takes the walk's bisect path and has
    # parallel edges; K_60 reads a regular graph's identity exit guide.
    if name == "multigraph":
        g = random_connected_graph(30, 50, seed=8)
        spec = str(tmp_path / "multi.graph")
        write_graph(g, spec)
    else:
        g, spec = complete_graph(60), name
    assert main(["sample", "--graph", spec, "--count", "40", "--seed", "0"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_DIGESTS[name]
    assert out.splitlines() == [format_tree_line(sample_tree_wilson(g, s)) for s in range(40)]


def test_sample_and_certify_build_no_tree_objects(monkeypatch, tmp_path, capsys):
    def refuse(self):
        raise AssertionError("a SpanningTree was built")

    monkeypatch.setattr(SpanningTree, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        sample_tree_wilson(complete_graph(4), 0)
    path = tmp_path / "multi.graph"
    write_graph(random_connected_graph(12, 20, seed=3), str(path))
    for spec in ("k:6", str(path)):
        assert main(["sample", "--graph", spec, "--count", "3", "--seed", "1"]) == EXIT_PASS
        assert len(capsys.readouterr().out.splitlines()) == 3
        argv = ["certify", "--graph", spec, "--eps", "0.5", "--t", "3", "--trials", "2"]
        assert main(argv + ["--jobs", "1", "--json"]) in (EXIT_PASS, EXIT_FAIL)
        assert json.loads(capsys.readouterr().out)["kind"] == "sum_trees"
        argv = ["diag", "martingale", "--graph", spec, "--seeds", "3", "--seed", "1"]
        assert main(argv) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["suite"] == "martingale"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of `diag martingale --seeds 30 --seed 0 --dump dump.txt` (stdout,
# dump), drawn at the version whose trace built one SpanningTree per
# seed.  Sorting the walk's edge ids draws the same orderings.
MARTINGALE_DIGESTS = {
    "k:10": (
        "017beea92b0e076cf3bd7f781723b3e245fe199d2a7f4c9dde6aba62c621bd37",
        "6b085f408bbf8d5c4c70c5ac8c4a9d2463b6b73cb37f06b31f3fbaac7c225a6d",
    ),
    "multi.graph": (
        "fbcd7c42fb1df0f93f56bdf0cf8782787c8ec76498e9ba02527cadd12181d30f",
        "84b025c2fe8f3b88f1ac578a531a7d87178f2af49e603aec2e6bc978a7e4a132",
    ),
}


@pytest.mark.parametrize("spec", sorted(MARTINGALE_DIGESTS))
def test_martingale_outputs_match_their_object_route_digests(spec, tmp_path, monkeypatch, capsys):
    # The weighted multigraph (12 vertices) takes the walk's bisect path.
    monkeypatch.chdir(tmp_path)
    write_graph(random_connected_graph(12, 20, seed=3), "multi.graph")
    argv = ["diag", "martingale", "--graph", spec, "--seeds", "30", "--seed", "0"]
    assert main(argv + ["--dump", "dump.txt"]) == EXIT_PASS
    digests = (_sha256(capsys.readouterr().out), _sha256(Path("dump.txt").read_text()))
    assert digests == MARTINGALE_DIGESTS[spec]


# sha256 of `diag marginals --graph <name>.graph` stdout on each corpus
# graph with m <= 10, drawn at the version whose suite compared one
# (forest, edge) pair at a time.
MARGINALS_DIGESTS = {
    "p2": "b2eca2dafcfcab4367deb69c1973fc6e61e166cf2981dfd9048f8f0d22610f1a",
    "p3": "2101e834c257af15cb55b757677430ba9f3b844b33a10fcc8ea8426e4138bb76",
    "wp3": "af92c39888de3bbfa7c1d0e59677fdbe0649dccbc324291ebf292ae276786caf",
    "p4": "c99432845c67ce47e9051dff0791e6eda5826285109a83372447841518ed384e",
    "parallel_pair": "e005029658c5b8d8f4d79a81d34e358ef0fcbec5a1beaae22f6aa296fa02af20",
    "triangle": "fefeb3b9ff5b16b08d4a69d8b6ac2104fe1b21d659805b7fd0b7044e19cd3679",
    "weighted_triangle": "07b75db5a57eb3d91b686a73a7585ade298ac109b4da9833f2b99b30f71a723f",
    "doubled_triangle": "8b9273f8cceee166cd3b10ad911d46361144a06a899ec5e5867dc25b051d18c6",
    "c4": "8870c7874810f9d1e608e5045b3f0c0f18342610d304b01ead6f2632175589f0",
    "c5": "3e83e014580f1254328c8165bb1a7d8dfc27e3c5c13a62c2fd367f16178ef4da",
    "star5": "ea8c0d81ca84ec094b7b974ec7ae030907ba628201ebc9aab16ba33819fb8b16",
    "diamond": "5c9e8f97c16bf2b75d924bdbc0da969a020a7aa9029c490022849a43876a0263",
    "k4": "ce3bdfd1f64c25ebc80150e386ad1b98cdfa578453a801d7965d5b684823cb0d",
    "weighted_k4": "65fc029cccef28881d40700d85f4f24fe0db49c01f17ae349cd1d2127bb20f4e",
    "k5_minus_edge": "022843ad785ee89e9427b1a28926ed7611dd22a0cbac4eb5987ced16299c98f5",
    "k5": "71ebb7951f0d1b084a6daee46d58b29be82969bf6aae1768742b434d832b5716",
    "cliquestar_2_3": "83a1b769793b22d9be5debd4455a332eeae5f9a7d91036218dd83179e4e38c98",
}


@pytest.mark.parametrize("name,g", [(name, g) for name, g in SMALL if g.m <= 10])
def test_marginals_report_matches_its_per_pair_digest(name, g, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_graph(g, f"{name}.graph")
    assert main(["diag", "marginals", "--graph", f"{name}.graph"]) == EXIT_PASS
    assert _sha256(capsys.readouterr().out) == MARGINALS_DIGESTS[name]


def test_sample_to_file(tmp_path, capsys):
    out = tmp_path / "trees.txt"
    code = main(["sample", "--graph", "ring:8", "--count", "2", "--seed", "1", "--out", str(out)])
    assert code == EXIT_PASS
    assert capsys.readouterr().out == ""
    assert len(out.read_text().strip().split("\n")) == 2


def test_certify_tree_graph_passes(tmp_path, capsys):
    path = tmp_path / "path.graph"
    from corpus import path_graph

    write_graph(path_graph(5), str(path))
    code = main(
        ["certify", "--graph", str(path), "--eps", "0.1", "--t", "1", "--trials", "3", "--seed", "2"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    payload = json.loads(captured.out)
    assert payload["pass_fraction"] == 1.0
    assert payload["kind"] == "sum_trees"
    assert payload["graph_desc"] == str(path)
    assert "PASS" in captured.err


def test_certify_json_flag_silences_stderr(tmp_path, capsys):
    path = tmp_path / "path.graph"
    from corpus import path_graph

    write_graph(path_graph(4), str(path))
    code = main(
        [
            "certify", "--graph", str(path), "--eps", "0.1", "--t", "1",
            "--trials", "2", "--seed", "2", "--json",
        ]
    )
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    assert captured.err == ""
    json.loads(captured.out)


def test_certify_single_tree_fails_gate(capsys):
    code = main(
        [
            "certify", "--graph", "k:200", "--eps", "0.5", "--t", "1",
            "--trials", "5", "--seed", "0", "--jobs", "1", "--json",
        ]
    )
    captured = capsys.readouterr()
    assert code == EXIT_FAIL
    payload = json.loads(captured.out)
    assert payload["pass_fraction"] == 0.0


def test_certify_runs_on_a_weight_range_of_1e400(tmp_path, capsys):
    path = tmp_path / "range.graph"
    path.write_text("4 4\n0 1 1e200\n1 2 1\n2 3 1e-200\n3 0 1\n")
    code = main(
        ["certify", "--graph", str(path), "--eps", "0.5", "--trials", "4", "--jobs", "1", "--json"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_PASS, captured.err
    assert json.loads(captured.out)["pass_fraction"] == 1.0


def test_certify_refuses_a_graph_the_grounded_factor_cannot_carry(tmp_path, capsys):
    path = tmp_path / "heavy.graph"
    lines = [f"{v} {(v + 1) % 8} {1e20 if v in (1, 5) else 1.0}" for v in range(8)]
    path.write_text("8 8\n" + "\n".join(lines) + "\n")
    assert main(["certify", "--graph", str(path), "--eps", "0.5", "--jobs", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grounded Laplacian is not numerically positive definite" in captured.err


def test_certify_refuses_leverage_scores_that_miss_foster_identity(tmp_path, capsys):
    path = tmp_path / "ring.graph"
    edges = [(v, (v + 1) % 50, 1e8 if v == 25 else 1.0) for v in range(50)]
    write_graph(WeightedGraph(50, edges), str(path))
    assert main(["certify", "--graph", str(path), "--eps", "0.5", "--jobs", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "leverage scores sum to" in captured.err


def test_certify_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "ext.csv"
    code = main(
        [
            "certify", "--graph", "k:8", "--eps", "0.5", "--t", "2", "--trials", "3",
            "--seed", "0", "--jobs", "1", "--json", "--csv", str(csv_path),
        ]
    )
    capsys.readouterr()
    assert code in (EXIT_PASS, EXIT_FAIL)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "trial,seed,lambda_min,lambda_max"
    assert len(lines) == 4


def test_diag_marginals_pass_and_guard(capsys):
    assert main(["diag", "marginals", "--graph", "k:4"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["forests"] > 0
    # K_6 has 15 edges, past the exhaustive-conditioning cap
    assert main(["diag", "marginals", "--graph", "k:6"]) == EXIT_SIZE_GUARD


@pytest.mark.parametrize("header", [None, "3000 4499500\n0 1 1.0\n"])
def test_marginals_size_guard_trips_before_the_graph_is_built(header, tmp_path, capsys):
    spec = "k:3000"
    if header is not None:
        spec = str(tmp_path / "big.graph")
        (tmp_path / "big.graph").write_text(header)
    start = time.perf_counter()
    assert main(["diag", "marginals", "--graph", spec]) == EXIT_SIZE_GUARD
    assert time.perf_counter() - start < 0.5
    assert "capped at n = 11, got n = 3000" in capsys.readouterr().err


def test_marginals_runs_at_the_edge_cap(capsys):
    # K_5 has m = 10, the largest edge count the suite accepts.
    assert main(["diag", "marginals", "--graph", "k:5"]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_diag_marginals_reports_its_worst_pair(capsys):
    assert main(["diag", "marginals", "--graph", "cliquestar:2,3"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    worst = payload["worst"]
    assert set(worst) == {"forest", "edge", "conditional", "unconditional"}
    assert worst["conditional"] - worst["unconditional"] == payload["max_excess"]
    assert worst["edge"] not in worst["forest"]


def test_diag_martingale_with_dump(tmp_path, capsys):
    dump = tmp_path / "traces.txt"
    code = main(
        ["diag", "martingale", "--graph", "k:5", "--seeds", "10", "--seed", "3", "--dump", str(dump)]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    assert payload["failures"] == 0
    lines = dump.read_text().strip().split("\n")
    assert len(lines) == 10 * 5  # 4 steps plus a JSON summary per trace
    json.loads(lines[4])


def test_diag_martingale_runs_on_a_weight_range_of_1e400(tmp_path, capsys):
    # The Cholesky frame carries a 4-cycle weighted (1e200, 1, 1e-200,
    # 1) through the martingale; an eigendecomposition of its Laplacian
    # does not converge.
    path = tmp_path / "range.graph"
    write_graph(WeightedGraph(4, ((0, 1, 1e200), (1, 2, 1.0), (2, 3, 1e-200), (3, 0, 1.0))), str(path))
    assert main(["diag", "martingale", "--graph", str(path), "--seeds", "5"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True and payload["failures"] == 0


def test_diag_martingale_reports_worst_margin(tmp_path, capsys):
    dump = tmp_path / "traces.txt"
    argv = ["diag", "martingale", "--graph", "k:5", "--seeds", "6", "--seed", "11"]
    assert main(argv + ["--dump", str(dump)]) == EXIT_PASS
    worst = json.loads(capsys.readouterr().out)["worst"]
    summaries = [json.loads(line) for line in dump.read_text().split("\n") if line.startswith("{")]
    margins = []
    for seed, rec in enumerate(summaries, start=11):
        margins.append((rec["max_edge_norm"] - rec["max_step_norm"], seed, "increment_range"))
        margins.append((rec["cumulative_bound"] - rec["final_variation_norm"], seed, "cumulative"))
    margin, seed, bound = min(margins)
    assert worst["margin"] == pytest.approx(margin, abs=1e-12)
    assert (worst["seed"], worst["bound"]) == (seed, bound)
    assert 1 <= worst["step"] <= 4
    assert worst["margin"] >= 0.0


def test_diag_martingale_worst_is_a_nan_margin_after_finite_ones(monkeypatch, capsys):
    # Seed 2's trace carries a NaN step norm; strict "<" against the
    # finite margins of seeds 0 and 1 never picked it.
    draw = cli.martingale_trace

    def poisoned(g, seed):
        trace = draw(g, seed)
        if seed != 2:
            return trace
        return dataclasses.replace(trace, step_norms=(math.nan,) + trace.step_norms[1:])

    monkeypatch.setattr(cli, "martingale_trace", poisoned)
    argv = ["diag", "martingale", "--graph", "k:6", "--seeds", "4", "--seed", "0"]
    assert main(argv) == EXIT_FAIL
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == 1
    assert math.isnan(payload["worst"]["margin"])
    assert (payload["worst"]["seed"], payload["worst"]["step"]) == (2, 1)
    assert payload["worst"]["bound"] == "increment_range"


@pytest.mark.parametrize("argv", [["sample"], ["certify", "--eps", "0.5", "--jobs", "1"]])
def test_a_graph_too_large_to_allocate_exits_size_guard(argv, monkeypatch, capsys):
    # Stands in for numpy refusing k:3000000 or ring:3000000000; nothing
    # is allocated for real.
    def unbuildable(n):
        raise MemoryError(f"Unable to allocate an edge list for n = {n}")

    _, types, vertices = cli._CONSTRUCTORS["k"]
    monkeypatch.setitem(cli._CONSTRUCTORS, "k", (unbuildable, types, vertices))
    assert main([argv[0], "--graph", "k:30", *argv[1:]]) == EXIT_SIZE_GUARD
    err = capsys.readouterr().err
    assert err.startswith("treespark: size guard: Unable to allocate") and "Traceback" not in err


def test_diag_reverse_chernoff(capsys):
    assert main(["diag", "reverse-chernoff"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["suite", "triples", "failures", "passed", "library_version"]
    assert payload["triples"] >= 200
    assert payload["failures"] == 0


def test_diag_stirling(capsys):
    assert main(["diag", "stirling", "--kmax", "40"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["suite", "kmax", "pairs", "failures", "passed", "library_version"]
    assert payload["pairs"] == sum(k - 1 for k in range(2, 41))


def test_diag_matrix_fact(capsys):
    assert main(["diag", "matrix-fact", "--pairs", "50", "--dim", "6", "--seed", "5"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["suite", "pairs", "dim", "failures", "passed", "library_version"]
    assert payload["failures"] == 0


def test_tally_counts_failures():
    assert _tally("demo", [True, False, False], size=3) == (
        False,
        {"suite": "demo", "size": 3, "failures": 2, "passed": False},
    )
    assert _tally("demo", [True]) == (True, {"suite": "demo", "failures": 0, "passed": True})


def test_diag_to_file(tmp_path, capsys):
    out = tmp_path / "diag.json"
    assert main(["diag", "marginals", "--graph", "k:4", "--out", str(out)]) == EXIT_PASS
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["passed"] is True


def test_bad_specs_exit_usage(capsys):
    assert main(["sample", "--graph", "k:abc"]) == EXIT_USAGE
    assert main(["sample", "--graph", "/nonexistent/file.graph"]) == EXIT_USAGE
    assert main(["sample", "--graph", "torus:4"]) == EXIT_USAGE
    assert main(["sample", "--graph", "cliquestar:3"]) == EXIT_USAGE
    assert "expected 2 comma-separated values" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["certify", "--graph", "k:6", "--eps", "0.5", "--jobs", "0"], "--jobs"),
        (["certify", "--graph", "k:6", "--eps", "0.5", "--jobs", "-3"], "--jobs"),
        (["certify", "--graph", "k:6", "--eps", "0.5", "--trials", "0"], "--trials"),
        (["sample", "--graph", "k:6", "--count", "-2"], "--count"),
        (["sample", "--graph", "k:6", "--count", "0"], "--count"),
    ],
)
def test_count_flags_below_one_exit_usage(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at least 1" in captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["diag", "martingale", "--graph", "k:5", "--seeds", "0"], "--seeds: must be at least 1"),
        (["diag", "martingale", "--seeds", "-3"], "--seeds: must be at least 1"),
        (["diag", "matrix-fact", "--pairs", "0"], "--pairs: must be at least 1"),
        (["diag", "matrix-fact", "--dim", "0"], "--dim: must be at least 1"),
        (["diag", "stirling", "--kmax", "1"], "--kmax: must be at least 2"),
    ],
)
def test_diag_counts_that_would_pass_vacuously_exit_usage(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {message}" in captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["certify", "--graph", "k:6", "--eps", "0.5", "--gate", "7"], "--gate: must be in [0, 1]"),
        (["certify", "--graph", "k:6", "--eps", "0.5", "--gate", "-0.1"], "--gate: must be in [0, 1]"),
        (["certify", "--graph", "k:6", "--eps", "0.5", "--gate", "nan"], "--gate: must be in [0, 1]"),
        (["certify", "--graph", "k:6", "--eps", "0.5", "--seed", "-1"], "--seed: must be at least 0"),
        (["sample", "--graph", "k:6", "--seed", "-1"], "--seed: must be at least 0"),
        (["diag", "martingale", "--seed", "-5"], "--seed: must be at least 0"),
    ],
)
def test_gate_and_seed_out_of_range_exit_usage(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {message}" in captured.err


def test_gate_bounds_are_accepted(capsys):
    for gate in ("0", "1"):
        argv = ["certify", "--graph", "k:5", "--eps", "0.5", "--t", "2", "--trials", "1"]
        assert main(argv + ["--gate", gate, "--jobs", "1", "--json"]) in (EXIT_PASS, EXIT_FAIL)
    capsys.readouterr()


def test_env_seed_negative_rejected(monkeypatch, capsys):
    monkeypatch.setenv("TREESPARK_SEED", "-1")
    assert main(["sample", "--graph", "k:4"]) == EXIT_USAGE
    assert "TREESPARK_SEED must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["k:3000", "cliquestar:100,30", "er:5000,0.5", "ring:2001"])
def test_certify_size_guard_trips_before_the_graph_is_built(spec, capsys):
    start = time.perf_counter()
    assert main(["certify", "--graph", spec, "--eps", "0.5", "--jobs", "1"]) == EXIT_SIZE_GUARD
    assert time.perf_counter() - start < 0.5
    assert "capped at n = 2000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--eps", "1.5"], "--eps: must be in (0, 1)"),
        (["--eps", "nan"], "--eps: must be in (0, 1)"),
        (["--eps", "0"], "--eps: must be in (0, 1)"),
        (["--eps", "0.5", "--t", "0"], "--t: must be at least 1"),
        (["--eps", "0.5", "--cmult", "-1"], "--cmult: must be in (0, inf)"),
        (["--eps", "0.5", "--cmult", "nan"], "--cmult: must be in (0, inf)"),
        (["--eps", "abc"], "--eps: expected a number, got 'abc'"),
    ],
)
def test_certify_ranges_are_checked_before_the_graph_is_built(flags, message, capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--graph", "k:2000", "--jobs", "1"] + flags)
    assert exc.value.code == EXIT_USAGE
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {message}" in captured.err


@pytest.mark.parametrize("flags", [["--eps", "1e-200"], ["--eps", "0.01", "--cmult", "1e308"]])
def test_certify_overflowing_t_exits_usage(flags, capsys):
    argv = ["certify", "--graph", "k:10", "--trials", "1", "--jobs", "1"] + flags
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "not finite for eps = " in captured.err and "c_mult = " in captured.err


@pytest.mark.parametrize("flags", [["--eps", "1e-100"], ["--eps", "0.5", "--t", "1000000000000"]])
def test_certify_huge_finite_t_exits_usage_at_once(flags, capsys):
    # t = ceil(1e200 (ln 10)^2) and t = 1e12 are finite but past the
    # tree-slot cap; both are refused before any tree is walked.
    argv = ["certify", "--graph", "k:10", "--trials", "1", "--jobs", "1"] + flags
    start = time.perf_counter()
    assert main(argv) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "on n = 10 vertices exceed the cap of MAX_TREE_SLOTS = 10000000000" in captured.err


def test_martingale_size_guard_trips_before_the_graph_is_built(capsys):
    start = time.perf_counter()
    assert main(["diag", "martingale", "--graph", "k:1200"]) == EXIT_SIZE_GUARD
    assert time.perf_counter() - start < 0.5
    assert "capped at n = 12, got n = 1200" in capsys.readouterr().err


def test_martingale_edge_cap_trips_on_parallel_edges(tmp_path, capsys):
    # Three vertices pass the vertex cap, but 513 edges would need a
    # 513 x 513 transfer-current matrix; the trace refuses them first.
    path = tmp_path / "fat.graph"
    write_graph(WeightedGraph(3, [(0, 1, 1.0)] * TRACE_EDGE_CAP + [(1, 2, 1.0)]), str(path))
    assert main(["diag", "martingale", "--graph", str(path), "--seeds", "1"]) == EXIT_SIZE_GUARD
    assert f"capped at m = {TRACE_EDGE_CAP} edges, got m = {TRACE_EDGE_CAP + 1}" in capsys.readouterr().err


def test_matrix_fact_dim_is_capped_by_argparse():
    parser = build_parser()
    assert parser.parse_args(["diag", "matrix-fact", "--dim", "2000"]).dim == 2000
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["diag", "matrix-fact", "--dim", "2001"])
    assert exc.value.code == EXIT_USAGE


def test_certify_size_guard_reads_only_the_file_header(tmp_path, capsys):
    # The header promises 3000 vertices; the edge lines are never parsed.
    path = tmp_path / "big.graph"
    path.write_text("3000 4499500\n0 1 1.0\n")
    assert main(["certify", "--graph", str(path), "--eps", "0.5"]) == EXIT_SIZE_GUARD
    assert "got n = 3000" in capsys.readouterr().err
    # Below the cap the same file reaches the full parser and is refused there.
    path.write_text("30 5\n0 1 1.0\n")
    assert main(["certify", "--graph", str(path), "--eps", "0.5"]) == EXIT_USAGE
    capsys.readouterr()


def test_malformed_file_exit_usage(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("not a graph\n")
    assert main(["sample", "--graph", str(bad)]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("data", [b"3 3\xff\n0 1 1\n", b"3 1\n0 1 \xff\n"], ids=["header", "edge-line"])
def test_undecodable_file_exit_usage_naming_the_file(data, tmp_path, capsys):
    bad = tmp_path / "bin.graph"
    bad.write_bytes(data)
    assert main(["sample", "--graph", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"treespark: {bad}: ")


def test_disconnected_file_exit_bad_graph(tmp_path, capsys):
    disc = tmp_path / "disc.graph"
    disc.write_text("4 2\n0 1 1.0\n2 3 1.0\n")
    assert main(["sample", "--graph", str(disc)]) == EXIT_BAD_GRAPH
    capsys.readouterr()


def test_env_seed_default(monkeypatch, capsys):
    monkeypatch.setenv("TREESPARK_SEED", "123")
    assert main(["sample", "--graph", "k:6"]) == EXIT_PASS
    from_env = capsys.readouterr().out
    assert main(["sample", "--graph", "k:6", "--seed", "123"]) == EXIT_PASS
    explicit = capsys.readouterr().out
    assert from_env == explicit


def test_env_seed_garbage_rejected(monkeypatch, capsys):
    monkeypatch.setenv("TREESPARK_SEED", "not-a-number")
    assert main(["sample", "--graph", "k:4"]) == EXIT_USAGE
    capsys.readouterr()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_installed_entry_point_runs():
    # The package need not be installed: put the checkout's src first.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "treespark.cli", "sample", "--graph", "k:4", "--seed", "1"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_certify_json_names_each_setting_once(capsys):
    argv = ["certify", "--graph", "k:8", "--eps", "0.5", "--t", "2", "--trials", "3"]
    main(argv + ["--seed", "4", "--jobs", "1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == DRIVER_KEYS["sum_trees"]
    assert payload["kind"] == "sum_trees"
    assert payload["graph_desc"] == "k:8"
    assert (payload["t"], payload["c_mult"], payload["trials"]) == (2, None, 3)
    assert payload["seeds"] == [4, 5, 6]
    assert payload["gate"] == DEFAULT_PASS_GATE
    assert payload["config"]["jobs"] == 1
    # With --t given, --cmult sets nothing, so it is not reported.
    main(argv + ["--cmult", "3", "--seed", "4", "--jobs", "1", "--json"])
    assert json.loads(capsys.readouterr().out)["c_mult"] is None


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["certify", "--graph", "k:2000", "--eps", "0.5", "--out"], "--out"),
        (["certify", "--graph", "k:2000", "--eps", "0.5", "--csv"], "--csv"),
        (["diag", "martingale", "--graph", "k:12", "--dump"], "--dump"),
        (["diag", "martingale", "--graph", "k:12", "--out"], "--out"),
        (["sample", "--graph", "k:2000", "--out"], "--out"),
    ],
)
def test_unwritable_output_paths_exit_before_the_run(argv, flag, tmp_path, capsys):
    missing = tmp_path / "missing" / "report.out"
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(missing)])
    assert exc.value.code == EXIT_USAGE
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: directory" in captured.err
    assert not missing.parent.exists()


def test_output_path_that_is_a_directory_exits_before_the_run(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--graph", "k:2000", "--eps", "0.5", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE
    assert "argument --out: " in capsys.readouterr().err


def test_output_path_in_the_working_directory_is_accepted(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--graph", "k:4", "--seed", "1", "--out", "trees.txt"]) == EXIT_PASS
    assert (tmp_path / "trees.txt").read_text().strip()
