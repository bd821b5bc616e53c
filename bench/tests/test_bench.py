"""Tests of the benchmark itself: every workload at reduced size, the gate,
the pinned answers against networkx, and the result contract.

Run with `python -m pytest bench/tests -q` from the repository root.
"""

import json
import shutil
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

import gate
import run
import spans
import workloads
from ectf import albert_matrix, encode_graph6, erdos_hypercube, random_matrix


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    return h


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_runs_clean_at_reduced_size(name, trace):
    result = run.run_workload(name, seed=5, seconds=0, trace=trace, small=True)
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    if trace:
        assert all(f"{layer}.self_s" in result["layers"] for layer in spans.LAYERS)
        assert result["overhead"]["spans"] == len(result["tracer"].spans) > 0
    else:
        assert all(v > 0 for v in result["metrics"].values())


def test_gate_catches_a_wrong_expected_answer(monkeypatch):
    monkeypatch.setattr(workloads, "MU3", 2)
    result = run.run_workload("hypercube-scale", seed=5, seconds=0, trace=False, small=True)
    assert result["failed"] == len(result["rounds"])
    assert any("mu_3" in p for p in result["problems"])
    assert json.loads(run.report_line(result))["correct"] is False


def test_gate_rejects_corrupted_witnesses_and_bijections():
    g = albert_matrix(random_matrix(8, 8, workloads.FROZEN_8X8[1]))
    adj = gate.Neighbours(g.rows)
    edge = next(g.edges())
    assert gate.check_witness(adj, "anti_triangle", (edge[0], edge[1], 0))
    assert gate.check_witness(adj, "adj_3", (edge[0],))
    assert gate.check_mu(adj, {"k": 2, "value": 3, "exact": True, "witness": list(edge)}, 2, 3)
    identity = list(range(g.order))
    assert gate.check_bijection(adj, adj, identity) == []
    # vertices 0 and 1 are a_1 and a_2: only a_1 is adjacent to b_1
    assert gate.check_bijection(adj, adj, [1, 0] + identity[2:])
    assert gate.check_isomorphism(adj, adj, None, False)


def test_pinned_isomorphism_answers_match_networkx():
    graphs = {i: albert_matrix(random_matrix(8, 8, s)) for i, s in workloads.FROZEN_8X8.items()}
    for (a, b), iso in workloads.FROZEN_PAIRS:
        assert nx.vf2pp_is_isomorphic(_nx(graphs[a]), _nx(graphs[b])) is iso


def test_seeded_dedupe_pairs_are_distinct():
    """The 'distinct' answer for consecutive seeded 32x32 graphs, shown by
    an invariant (sorted per-vertex common-neighbour counts, as a matrix
    square) that the gate's plain-set version agrees with."""

    def profile(g):
        a = np.array([[(r >> v) & 1 for v in range(g.order)] for r in g.rows])
        return sorted(map(tuple, np.sort(a @ a, axis=1).tolist()))

    hits, _ = workloads.search_inputs(5, small=False)
    graphs = [albert_matrix(random_matrix(32, 32, s)) for s in hits]
    for g, h in zip(graphs, graphs[1:]):
        assert profile(g) != profile(h)
        assert gate.Neighbours(g.rows).profile == profile(g)
        assert gate.check_isomorphism(gate.Neighbours(g.rows), gate.Neighbours(h.rows), None, False) == []


def test_graph6_reference_matches_networkx_and_library():
    matrix = gate.cayley_matrix(7, (5, 6, 7))
    expected = nx.to_graph6_bytes(nx.from_numpy_array(matrix.astype(int)), header=False).rstrip(b"\n")
    assert gate.graph6_bytes(matrix) == expected
    assert encode_graph6(erdos_hypercube(2)) == expected
    assert gate.matrix_rows(matrix) == erdos_hypercube(2).rows
    small = matrix[:40, :40]
    assert gate.graph6_bytes(small) == nx.to_graph6_bytes(
        nx.from_numpy_array(small.astype(int)), header=False).rstrip(b"\n")


def test_benchmark_json_names_match_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_cli_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hypercube-scale", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert set(last["metrics"]) == set(run.END_TO_END_UNITS)


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", ".work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify-corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
