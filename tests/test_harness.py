"""Verification campaigns: outcomes, determinism, report shape."""
from __future__ import annotations

import hashlib
import json

import pytest

from factorkit import harness
from factorkit.errors import UNKNOWN, InputError
from factorkit.graph import Factor, MultiGraph
from factorkit.harness import (
    FACTOR_THEOREMS,
    THEOREM_IDS,
    UNKNOWN_DETAIL,
    read_answer,
    verify_theorem,
)
from factorkit.pipeline import FactorCertificate, NoFactorCertificate, TheoremParams


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


# sha256 of verify_theorem(id, 30, master_seed=0).to_json(); a change that
# keeps every answer keeps these bytes, and one that changes answers
# re-records them and says in CHANGES.md which answers moved
CAMPAIGN_DIGESTS = {
    "tutte-equiv": "883be52bd70a5fcfc5f5d0aa92640d09a73826497e22142e2b714649dc0b76c2",
    "lovasz-equiv": "31ca2f0c5fc560b4eed150e9c432d88130511d862ed390587118f021bc17a0df",
    "bijection": "f846a2d034eb1bd27298cb4975ddb8cf5541e12cb4f71041e6b0f763ba0467a9",
    "eulerian-half": "3d0bbe14ca8bca1ca8ba045e9ad30cb3d357f1a20584965349b509bf034e7e22",
    "bipartite-gf": "a2a0aef4281601db9f43ada78f5001a4f91dcfa430ca9c687a8c8adbaaa98005",
    "almost-bipartite": "16121b418333ab2038ec9497a90c02062e03fcb06df08fc839ed723b13d2f783",
    "bi-large": "06cbf18baea0bea4272fabbb9d4af484e510b23aafd83f54f83303289faa95af",
    "tree-gf-bipartite": "0e7a9cd73a2e1019ba3f5259df9feae6be76d7e2c13420bd279c2c46c4e4518e",
    "tree-gf": "3e586a8fca0d319dbc2a742693a783b01fd6f688b5a9868c29041587bac0eddf",
    "tough-check": "3dc4d6fe9e8d51d09f31b38dd36bd170757594ab5313b19169cbd781b7a612c1",
}


def test_campaign_reports_are_pinned():
    assert set(CAMPAIGN_DIGESTS) == set(THEOREM_IDS)
    for tid in THEOREM_IDS:
        report = verify_theorem(tid, 30, master_seed=0)
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == CAMPAIGN_DIGESTS[tid], tid


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


def test_read_answer_checks_what_it_reads():
    G = MultiGraph([1, 2], [(1, 2)])
    g, f = {1: 1, 2: 0}, {1: 1, 2: 0}  # all gaps even, f sums to 1
    reason = "all gaps f-g are even and sum f is odd"
    assert read_answer(UNKNOWN, G, g, f) == ("unknown", "", UNKNOWN_DETAIL)
    assert read_answer(NoFactorCertificate(reason, 1), G, g, f) == ("none", "", reason)
    forged_total = NoFactorCertificate(reason, 3)
    # verify() passes, but the report allows degrees outside the windows
    empty = FactorCertificate(Factor(G, frozenset()), {1: (0, (0,)), 2: (0, (0,))})
    assert empty.verify()
    for forged in (forged_total, empty, None):
        assert read_answer(forged, G, g, f)[0] == "hard-error", forged
    # the same factor under windows that admit it is a success
    assert read_answer(empty, G, {1: 0, 2: 0}, {1: 1, 2: 0}) == ("success", "", "")


def test_factor_trials_run_the_cli_runners(monkeypatch):
    # a factor theorem has one call path: each campaign trial calls the
    # runner that `factorkit factor` calls, gated, in the trials' regime
    for tid in FACTOR_THEOREMS:
        trial, run = harness.THEOREMS[tid]
        calls = []

        def recorder(*args, run=run, calls=calls):
            calls.append(args[3:5])
            return run(*args)

        monkeypatch.setitem(harness.THEOREMS, tid, (trial, recorder))
        report = verify_theorem(tid, 3, master_seed=11)
        assert report.hard_errors == 0, report.render()
        assert calls == [(TheoremParams(k=1, m=1, m0=0), False)] * 3, tid
