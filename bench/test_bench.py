"""Self-tests of the benchmark: determinism, the independent checker, and
refusal to run without the program's sources.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from factorkit import (  # noqa: E402
    GenSpec,
    HypothesisError,
    MultiGraph,
    TheoremParams,
    TreePacking,
    gen_functions,
    gen_tree_connected,
    gf_factor_bipartite,
    spanning_tree_packing,
    tree_connected_gf,
)


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result


def _counts(result: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def _declared(group: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


@pytest.mark.parametrize("workload", ["campaign", "pipelines", "queries"])
def test_traced_call_counts_repeat(workload):
    first = _result(_run(workload, 5, 1))
    second = _result(_run(workload, 5, 1))
    assert _counts(first) == _counts(second)
    assert any(v > 0 for k, v in _counts(first).items() if k.endswith(".calls"))
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _declared("per_layer")


def test_end_to_end_metrics_match_benchmark_json():
    result = _result(_run("campaign", 2, 0))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_queries_make_no_packer_call():
    counts = _counts(_result(_run("queries", 3, 1)))
    assert counts["connectivity.spanning_tree_packing.calls"] == 0


def test_campaign_reports_are_byte_identical():
    def reports():
        return [inst.call().to_json() for inst in workloads.campaign(11)]

    assert reports() == reports()


def test_checker_rejects_packings_of_another_graph():
    base = gen_tree_connected(GenSpec(n=6, trees=4, extra_edges=1, seed=3))
    pairs = [(u, v) for _, u, v in base.edges]
    G = MultiGraph(list(base.vertices), pairs + pairs)
    g, f = gen_functions(G, k=1, m=1, seed=3)
    cert = tree_connected_gf(G, g, f, params=TheoremParams(k=1, m=1), seed=3)
    assert checks.two_point(cert, G, g, f, m=1) == "certificate"

    other = MultiGraph([1, 2], [(1, 2)])
    foreign = spanning_tree_packing(other, 1)
    assert isinstance(foreign, TreePacking)
    tampered = dataclasses.replace(cert, packings={"factor": foreign, "complement": foreign})
    assert tampered.verify()  # the program's own check accepts it
    with pytest.raises(checks.Mismatch):
        checks.two_point(tampered, G, g, f, m=1)


def test_checker_accepts_only_the_declared_gate_refusal():
    G, P = workloads._two_halves(32, 7)
    g, f = gen_functions(G, k=1, seed=7)
    with pytest.raises(HypothesisError) as refused:
        gf_factor_bipartite(G, P, g, f, seed=7)
    exc = refused.value
    assert checks.two_point(exc, G, g, f, P=P, gate=workloads.REFUSAL_GATE).startswith("refusal:")
    with pytest.raises(checks.Mismatch):  # a refusal where none was expected
        checks.two_point(exc, G, g, f, P=P)
    with pytest.raises(checks.Mismatch):  # a partition for another tree count
        checks.two_point(exc, G, g, f, P=P, gate=(workloads.REFUSAL_GATE[0], 16))
    with pytest.raises(checks.Mismatch):  # an answer where the gate must refuse
        checks.two_point(None, G, g, f, P=P, gate=workloads.REFUSAL_GATE)
    with pytest.raises(checks.Mismatch):  # a hypothesis with no certificate
        checks.two_point(HypothesisError("g <= d/2 <= f", ""), G, g, f, P=P)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("queries", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
