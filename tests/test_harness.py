"""Verification campaigns: outcomes, determinism, report shape."""
from __future__ import annotations

import json

import pytest

from factorkit.errors import InputError
from factorkit.harness import THEOREM_IDS, verify_theorem
from factorkit.pipeline import TheoremParams


def test_unknown_theorem_id_is_an_input_error():
    with pytest.raises(InputError):
        verify_theorem("no-such-theorem", 1)
    with pytest.raises(InputError):
        verify_theorem("tutte-equiv", 0)


def test_oracle_campaigns_have_zero_hard_errors():
    for tid in ("tutte-equiv", "lovasz-equiv", "bijection"):
        report = verify_theorem(tid, 40, master_seed=5)
        assert report.passed, report.render()
        assert report.successes == 40


def test_pipeline_campaigns_have_zero_hard_errors():
    # (successes, nones, unknowns, refusals) per campaign, pinned so that a
    # refactor cannot shift outcomes unnoticed
    for tid, trials, outcomes in (
        ("eulerian-half", 15, (15, 0, 0, {})),
        ("bipartite-gf", 15, (15, 0, 0, {})),
        ("bi-large", 15, (15, 0, 0, {})),
        ("tree-gf-bipartite", 8, (8, 0, 0, {})),
        ("tree-gf", 8, (8, 0, 0, {})),
    ):
        report = verify_theorem(tid, trials, master_seed=9)
        assert report.hard_errors == 0, report.render()
        assert report.successes + report.nones + report.unknowns + sum(
            report.refusals.values()
        ) == trials
        assert (
            report.successes, report.nones, report.unknowns, report.refusals
        ) == outcomes, report.render()


def test_campaign_bytes_are_deterministic():
    for tid in ("tutte-equiv", "bipartite-gf", "tough-check"):
        a = verify_theorem(tid, 10, master_seed=77)
        b = verify_theorem(tid, 10, master_seed=77)
        assert a.to_json() == b.to_json()
        assert a.to_json().encode() == b.to_json().encode()


def test_different_seeds_differ():
    a = verify_theorem("tutte-equiv", 10, master_seed=1)
    b = verify_theorem("tutte-equiv", 10, master_seed=2)
    assert [r.seed for r in a.rows] != [r.seed for r in b.rows]


def test_report_json_shape():
    report = verify_theorem("bijection", 5, master_seed=3)
    payload = json.loads(report.to_json())
    assert payload["theorem"] == "bijection"
    assert payload["trials"] == 5
    assert len(payload["rows"]) == 5
    assert {row["index"] for row in payload["rows"]} == set(range(5))
    assert "wall_time" not in payload  # canonical bytes exclude timing
    assert "%.3f" % report.wall_time in report.render()


def test_tough_check_params_flow_through():
    report = verify_theorem(
        "tough-check", 5, params=TheoremParams(k=2, m=0, m0=0, b=3), master_seed=4
    )
    assert report.trials == 5
    assert report.hard_errors == 0


def test_all_listed_ids_run():
    for tid in THEOREM_IDS:
        trials = 2 if tid == "almost-bipartite" else 3
        report = verify_theorem(tid, trials, master_seed=11)
        assert report.trials == trials
        assert report.hard_errors == 0, report.render()
