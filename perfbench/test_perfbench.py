"""Tests of the benchmark itself: its inputs, references, checkers and tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs as gen
import reference as ref
import run
import workloads

SRC = run.ROOT / "src"


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _connected(n, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, todo = {0}, [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


@pytest.mark.parametrize("n,d", [(16, 3), (64, 4), (128, 4)])
def test_random_regular_is_simple_and_regular(n, d):
    edges = gen.random_regular_edges(n, d, random.Random(5))
    assert len(set(edges)) == len(edges) == n * d // 2
    assert all(u < v for u, v in edges)
    assert _degrees(n, edges) == [d] * n


@pytest.mark.parametrize("n", [2, 3, 12, 60])
def test_pruefer_tree_is_a_tree(n):
    edges = gen.random_tree_edges(n, random.Random(n))
    assert len(set(edges)) == n - 1
    assert _connected(n, edges)


def test_inputs_follow_the_seed_only():
    assert gen.make_input("rr64", 3) == gen.make_input("rr64", 3)
    assert gen.make_input("rt48", 3) == gen.make_input("rt48", 3)
    assert gen.make_input("rr64", 3) != gen.make_input("rr64", 4)


def test_path_closed_form_matches_charpoly():
    for n in range(1, 11):
        nv, edges = ref.family_graph("path", (n,))
        assert ref.path_coefficients(n) == ref.charpoly_coefficients(ref.laplacian(nv, edges))


def test_closed_form_spectra_match_eigvalsh():
    ref.self_check_families(("path", "star", "complete", "complete_bipartite", "wheel"))


def test_poisson_binomial_is_the_normalised_charpoly():
    n, edges = gen.make_input("rt48", 1)
    coeffs = ref.charpoly_coefficients(ref.laplacian(n, edges))
    want = [c / sum(coeffs) for c in coeffs]
    got = ref.poisson_binomial(ref.eigenvalues(ref.laplacian(n, edges)))
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


def test_checkers_reject_wrong_outputs():
    want = ref.path_coefficients(30)
    good = "k,c_k\n" + "".join(f"{k},{c}\n" for k, c in enumerate(want))
    assert checks.check_coeffs_csv(good.encode(), want) is None
    assert checks.check_coeffs_csv(good.replace(f",{want[7]}\n", f",{want[7] + 1}\n").encode(),
                                want) is not None
    ok = b"a: PASS (1 graphs)\nb: PASS (x: y)\nverification: PASS (2/2 checks)\n"
    assert checks.check_verify(ok) is None
    assert checks.check_verify(ok.replace(b"b: PASS", b"b: FAIL")) is not None
    assert checks.check_verify(ok.replace(b"(2/2", b"(2/3")) is not None
    row = ref.family_row("path", (40,))
    assert checks.check_rows(f"[{json.dumps(row)}]".encode(), [row]) is None
    assert checks.check_rows(f"[{json.dumps(dict(row, max_degree=3))}]".encode(), [row]) is not None
    assert checks.check_rows(f"[{json.dumps(dict(row, mu=row['mu'] * 1.001))}]".encode(), [row]) is not None


def _lapstats(argv):
    return subprocess.run([sys.executable, "-m", "lapstats", *argv], capture_output=True,
                          env=_env(), cwd=run.ROOT, timeout=120, check=True).stdout


def _traced(argv, spans: Path):
    out = subprocess.run([sys.executable, str(run.TRACE_RUNNER), str(spans), *argv],
                         capture_output=True, env=_env(), cwd=run.ROOT, timeout=120, check=True)
    traces = {}
    assert run.read_trace(spans, traces, "op") is None
    return out.stdout, traces["op"]


def test_traced_runs_repeat_counts_and_stdout(tmp_path):
    inputs = workloads.Inputs(tmp_path, seed=2)
    rt, _, _ = inputs.edge_list("rt48")
    argvs = [
        ["coeffs", "--edge-list", rt, "--signless"],
        ["spectrum", "--edge-list", rt],
        ["diagnose", "--family", "path", "--n", "300"],
        ["sweep", "--family", "wheel", "--ladder", "40,80,200", "--jobs", "2"],
        ["coeffs", "--family", "path", "--n", "200", "--closed-form", "--format", "csv"],
    ]
    runs = []
    for _ in range(2):
        traces = {}
        for i, argv in enumerate(argvs):
            stdout, report = _traced(argv, tmp_path / "spans.json")
            assert stdout == _lapstats(argv), argv
            traces[i] = report
        runs.append(run.layer_metrics(traces))
    for metric in run.EXACT_COUNTERS:
        assert runs[0][metric] == runs[1][metric], metric
    assert runs[0]["spectra.numeric_spectrum.calls"] == 1
    assert runs[0]["diagnostics.run_sweep.wait_s"] > 0
    assert runs[0]["serialize.output_bytes"] > 0
    assert runs[0]["spectra.numeric_spectrum.trace_residual_max"] < 1e-8


def test_workloads_name_the_reported_ops(tmp_path):
    names = [o["name"] for w in run.WORKLOADS for o in workloads.WORKLOADS[w](
        workloads.Inputs(tmp_path, seed=1))]
    assert tuple(names) == run.OP_NAMES
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [m["name"] for m in bench["end_to_end"]] == [
        "wall_s", "cpu_s", "peak_rss_mb", "setup_s", "ops_ok_ratio"]


def test_timeout_kills_the_op(tmp_path):
    outcome = run.run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                            _env(), 0.5, tmp_path)
    assert outcome.timed_out
    assert outcome.wall_s < 10


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "family-scale",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, cwd=tmp_path, timeout=180)
    assert out.returncode != 0
    assert out.stdout == b""
