"""CLI surface: subcommands, formats, exit codes."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import factorkit
from factorkit import harness
from factorkit.cli import main
from factorkit.generators import gen_functions
from factorkit.graph import Factor, MultiGraph, parse_graph, serialize_graph
from factorkit.pipeline import FactorCertificate, NoFactorCertificate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_emits_parseable_graph(capsys):
    code, out, _ = run(capsys, "gen", "--n", "5", "--trees", "3", "--seed", "4")
    assert code == 0
    parsed = parse_graph(out)
    assert parsed.graph.num_vertices == 5
    assert parsed.graph.num_edges == 12


def test_gen_with_windows(capsys):
    code, out, _ = run(
        capsys, "gen", "--n", "5", "--trees", "4", "--bipartite",
        "--k", "1", "--seed", "6",
    )
    assert code == 0
    parsed = parse_graph(out)
    assert parsed.g is not None and parsed.f is not None


def test_factor_roundtrip_through_files(tmp_path, capsys):
    code, out, _ = run(
        capsys, "gen", "--n", "6", "--trees", "4", "--bipartite",
        "--k", "1", "--seed", "5",
    )
    path = tmp_path / "g.txt"
    path.write_text(out)
    code, out, _ = run(
        capsys, "factor", "--theorem", "bipartite-gf",
        "--graph", str(path), "--format", "json", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] in ("factor", "none", "unknown")
    if payload["outcome"] == "factor":
        parsed = parse_graph(path.read_text())
        for v, d in payload["degrees"].items():
            vi = int(v)
            assert d in (parsed.g[vi], parsed.f[vi])


def test_orient_eulerian_without_windows(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("p multigraph 3 6\ne 1 2\ne 2 3\ne 3 1\ne 1 2\ne 2 3\ne 3 1\n")
    code, out, _ = run(capsys, "orient", "--graph", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "orientation"
    assert all(v == 2 for v in payload["outdegrees"].values())


def test_orient_with_windows_asks_for_two_points(tmp_path, capsys):
    # d+(v) must be 0 or 2 at every vertex of the triangle: the cyclic
    # orientation has d+ = 1, inside [0, 2] but not one of the two points
    path = tmp_path / "g.txt"
    path.write_text("p multigraph 3 3\ne 1 2\ne 2 3\ne 3 1\nf 1 0 2\nf 2 0 2\nf 3 0 2\n")
    code, out, _ = run(capsys, "orient", "--graph", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["outcome"] == "none"


def test_decompose_bipartite_host(tmp_path, capsys):
    lines = ["p multigraph 5 18"]
    for u in (1, 2):
        for v in (3, 4, 5):
            lines += [f"e {u} {v}"] * 3
    path = tmp_path / "g.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(
        capsys, "decompose", "--graph", str(path),
        "--m1", "1", "--m2", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "decomposition"
    assert len(payload["part1_edges"]) + len(payload["part2_edges"]) == 18


def test_verify_exit_code_and_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "bijection", "--trials", "4",
        "--format", "json", "--seed", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hard_errors"] == 0


def test_toughness_and_bi(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text("p multigraph 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
    code, out, _ = run(capsys, "toughness", "--graph", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "1"
    code, out, _ = run(capsys, "bi", "--graph", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_toughness_at_the_cap(tmp_path, capsys):
    # K_{4,4,4,4}: removing three whole parts leaves four lone vertices
    part = lambda v: (v - 1) // 4
    edges = [(u, v) for u in range(1, 17) for v in range(u + 1, 17) if part(u) != part(v)]
    path = tmp_path / "k4444.txt"
    path.write_text(
        f"p multigraph 16 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    )
    code, out, _ = run(capsys, "toughness", "--graph", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "outcome": "toughness", "value": "3", "witness": list(range(1, 13)),
    }


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "bi", "--graph", "/no/such/file")
    assert code == 2
    assert "input error" in err


def test_malformed_graph_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("e 1 2\n")
    code, _, err = run(capsys, "bi", "--graph", str(path))
    assert code == 2


def test_factor_without_windows_is_input_error(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("p multigraph 2 1\ne 1 2\n")
    code, _, err = run(
        capsys, "factor", "--theorem", "bi-large", "--graph", str(path)
    )
    assert code == 2
    assert "window lines" in err


def test_factor_refusal_exits_zero(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(
        "p multigraph 2 2\ne 1 2\ne 1 2\nf 1 1 1\nf 2 1 1\n"
    )
    code, out, _ = run(
        capsys, "factor", "--theorem", "tree-gf", "--graph", str(path),
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["outcome"] in ("refusal", "none")


def _odd_ring(tmp_path, n=18):
    # an n-cycle with one chord closing a triangle: not bipartite
    edges = [(v, v % n + 1) for v in range(1, n + 1)] + [(1, 3)]
    path = tmp_path / "ring.txt"
    path.write_text(
        f"p multigraph {n} {len(edges)}\n"
        + "".join(f"e {u} {v}\n" for u, v in edges)
    )
    return path


def test_toughness_above_cap_is_a_refusal(tmp_path, capsys):
    path = _odd_ring(tmp_path)
    code, out, err = run(capsys, "toughness", "--graph", str(path), "--format", "json")
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["outcome"] == "refusal"
    assert payload["hypothesis"] == "toughness exact cap"


@pytest.mark.parametrize("n", [18, 22])
def test_decompose_nonbipartite_above_cap_uses_local_search(tmp_path, capsys, n):
    # n=18 starts from the exact witness, n=22 from the local search
    path = _odd_ring(tmp_path, n)
    code, out, err = run(
        capsys, "decompose", "--graph", str(path),
        "--m1", "1", "--m2", "1", "--format", "json",
    )
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["outcome"] == "refusal"
    assert payload["hypothesis"] == "(m1+m2+1)-tree-connected cross factor"


def test_almost_bipartite_answers_past_the_exact_index_cap(tmp_path, capsys):
    # the selector is a subset sum over the gaps, exact at any size
    code, out, _ = run(
        capsys, "gen", "--n", "24", "--trees", "6", "--bipartite", "--k", "1",
        "--seed", "3",
    )
    path = tmp_path / "g.txt"
    path.write_text(out)
    code, out, err = run(
        capsys, "factor", "--theorem", "almost-bipartite", "--graph", str(path),
        "--format", "json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["outcome"] == "factor"


def test_a_none_names_what_found_nothing(tmp_path, capsys):
    def factor(host: str, theorem: str, *extra: str) -> dict:
        path = tmp_path / "g.txt"
        path.write_text(host)
        code, out, err = run(
            capsys, "factor", "--theorem", theorem, "--graph", str(path),
            "--format", "json", *extra,
        )
        assert (code, err) == (0, "")
        return json.loads(out)

    # windows drawn for m = 0 miss the m = 1 window of tree-gf; with the
    # gates skipped a stage finds nothing, and tree-gf has no selector
    _, host, _ = run(capsys, "gen", "--n", "6", "--trees", "8", "--k", "1", "--seed", "1")
    assert factor(host, "tree-gf", "--m", "1", "--assume-hypotheses") == {
        "outcome": "none",
        "detail": "a stage found nothing under the assumed hypotheses",
    }
    # K_{2,3} x2 plus one intra edge, gap 2 at vertex 3: no h in {g, f}^V
    # has an even sum and h(X) - h(Y) in [0, 3], with or without the gates
    G = MultiGraph(range(1, 6), [(1, 2)] + [(u, v) for u in (1, 2) for v in (3, 4, 5)] * 2)
    g, f = gen_functions(G, k=2, seed=0)
    g[3], f[3] = G.degree(3) // 2 - 1, G.degree(3) // 2 + 1
    for assume in ((), ("--assume-hypotheses",)):
        assert factor(serialize_graph(G, g, f), "almost-bipartite", *assume) == {
            "outcome": "none",
            "detail": "no admissible selector",
        }


def test_a_host_below_the_tree_gate_answers_none_at_m_zero(tmp_path, capsys):
    # 2 spanning trees, below the 6k^2 of tree-gf and the 4k^2 of
    # tree-gf-bipartite: the gate refuses, and past it keep-bi and the tree
    # pairing, which take the gate's trees at every m, find nothing
    for theorem, bipartite in (("tree-gf", ()), ("tree-gf-bipartite", ("--bipartite",))):
        _, host, _ = run(capsys, "gen", "--n", "6", "--trees", "2", "--k", "1",
                         *bipartite, "--seed", "1")
        path = tmp_path / "g.txt"
        path.write_text(host)
        argv = ("factor", "--theorem", theorem, "--m", "0", "--graph", str(path),
                "--format", "json")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["outcome"] == "refusal"
        code, out, err = run(capsys, *argv, "--assume-hypotheses")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "outcome": "none",
            "detail": "a stage found nothing under the assumed hypotheses",
        }


def test_gen_with_empty_window_is_a_refusal(capsys):
    code, out, err = run(
        capsys, "gen", "--n", "6", "--trees", "1", "--k", "1", "--m", "3",
        "--format", "json",
    )
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["outcome"] == "refusal"
    assert payload["hypothesis"] == "nonempty degree window at every vertex"



def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(factorkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "factorkit", "verify", "--theorem", "bijection", "--trials", "2"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "bijection" in done.stdout


@pytest.mark.parametrize("n", range(21, 26))
def test_orient_decides_gap_two_past_the_selector_cap(tmp_path, capsys, n):
    # d+(v) in {0, 2} around C_n, with a loop at 1 when n is odd: sources
    # and sinks alternate, the loop's vertex keeping one cycle edge
    edges = [(v, v % n + 1) for v in range(1, n + 1)] + [(1, 1)] * (n % 2)
    lines = [f"p multigraph {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    lines += [f"f {v} 0 2" for v in range(1, n + 1)]
    path = tmp_path / "c.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "orient", "--graph", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "orientation"
    assert set(payload["outdegrees"].values()) == {0, 2}


def _factor_with_runner(tmp_path, capsys, monkeypatch, host, runner):
    # `factor --theorem bi-large` on host, its pipeline replaced by runner
    trial, _ = harness.THEOREMS["bi-large"]
    monkeypatch.setitem(harness.THEOREMS, "bi-large", (trial, runner))
    path = tmp_path / "g.txt"
    path.write_text(host)
    code, out, err = run(
        capsys, "factor", "--theorem", "bi-large", "--graph", str(path), "--format", "json",
    )
    assert err == ""
    return code, json.loads(out)


# one edge, all gaps even and f summing to 1: only a parity refutation fits
_ODD_TOTAL = "p multigraph 2 1\ne 1 2\nf 1 1 1\nf 2 0 0\n"


def test_factor_checks_a_nonexistence_certificate(tmp_path, capsys, monkeypatch):
    def oracle(*_):
        raise AssertionError("the CLI must not run the brute-force oracle")

    monkeypatch.setattr(harness, "factor_exists", oracle)
    reason = "all gaps f-g are even and sum f is odd"
    honest = _factor_with_runner(
        tmp_path, capsys, monkeypatch, _ODD_TOTAL, lambda *_: NoFactorCertificate(reason, 1)
    )
    assert honest == (0, {"outcome": "none", "detail": reason})
    forged = _factor_with_runner(
        tmp_path, capsys, monkeypatch, _ODD_TOTAL, lambda *_: NoFactorCertificate(reason, 3)
    )
    assert forged == (1, {"outcome": "hard-error",
                          "detail": "nonexistence certificate failed re-verification"})


def test_factor_checks_degrees_against_the_file_windows(tmp_path, capsys, monkeypatch):
    def runner(G, g, f, *_):
        # self-consistent: the empty factor, with a report that allows 0
        return FactorCertificate(Factor(G, frozenset()), {v: (0, (0,)) for v in G.vertices})

    host = "p multigraph 2 2\ne 1 2\ne 1 2\nf 1 1 1\nf 2 1 1\n"
    code, payload = _factor_with_runner(tmp_path, capsys, monkeypatch, host, runner)
    assert (code, payload) == (1, {"outcome": "hard-error",
                                   "detail": "factor degree outside {g, f}"})


def test_factor_internal_invariant_is_a_hard_error(tmp_path, capsys, monkeypatch):
    def runner(*_):
        raise AssertionError("forged invariant")

    code, payload = _factor_with_runner(tmp_path, capsys, monkeypatch, _ODD_TOTAL, runner)
    assert (code, payload) == (1, {"outcome": "hard-error",
                                   "detail": "internal invariant failed: forged invariant"})
