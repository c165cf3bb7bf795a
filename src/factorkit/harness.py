"""Verification campaigns: generate random instances, run the pipeline,
re-verify every certificate, and cross-check against the exhaustive
oracle whenever the instance is small enough.

Each factor theorem has one call path, its runner in THEOREMS: a
campaign trial draws a host and calls the runner that `factorkit factor`
calls, gated, and reads the answer as the CLI does (`_read_run`).  The
campaign adds only its own checks: the oracle cross-check of every
`none`, and bipartite-gf's pinned degree and a None returned while a
balanced selector exists.

A campaign's report is deterministic in (theorem, trials, params,
master_seed): per-trial randomness comes from counter-split child seeds,
and the canonical JSON excludes wall-clock time (the human rendering
reports it).
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from .connectivity import _structure_witnesses
from .errors import (
    HypothesisError,
    InputError,
    TheoremViolationError,
    is_unknown,
)
from .factors import (
    check_lovasz_condition,
    check_tutte_strict_form,
    factor_exists,
    find_f_factor,
    find_interval_factor,
)
from .generators import GenSpec, balanced_bipartition_of, gen_functions, gen_tree_connected
from .graph import Bipartition, Factor, MultiGraph, partition_stats
from .orientations import (
    Orientation,
    factor_from_orientation,
    orientation_from_factor,
)
from .pipeline import (
    FactorCertificate,
    NoFactorCertificate,
    TheoremParams,
    _selector_within,
    balanced_selector,
    eulerian_half_factor,
    gf_factor_almost_bipartite,
    gf_factor_bi_large,
    gf_factor_bipartite,
    tough_hypothesis_check,
    tree_connected_gf,
    tree_connected_gf_bipartite,
)
from .rng import child_seed

ORACLE_EDGE_CAP = 20


@dataclass(frozen=True)
class TrialRow:
    index: int
    seed: int
    outcome: str  # success | none | refusal | unknown | hard-error
    hypothesis: str = ""
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "outcome": self.outcome,
            "hypothesis": self.hypothesis,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Report:
    theorem: str
    trials: int
    successes: int
    nones: int
    unknowns: int
    refusals: dict[str, int]
    hard_errors: int
    rows: tuple[TrialRow, ...]
    wall_time: float = field(compare=False)

    @property
    def passed(self) -> bool:
        return self.hard_errors == 0

    def to_dict(self) -> dict:
        # wall time excluded on purpose: canonical bytes must be
        # reproducible across runs
        return {
            "theorem": self.theorem,
            "trials": self.trials,
            "successes": self.successes,
            "nones": self.nones,
            "unknowns": self.unknowns,
            "refusals": dict(sorted(self.refusals.items())),
            "hard_errors": self.hard_errors,
            "rows": [r.to_dict() for r in self.rows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def render(self) -> str:
        lines = [
            "theorem      %s" % self.theorem,
            "trials       %d" % self.trials,
            "successes    %d" % self.successes,
            "none         %d" % self.nones,
            "unknown      %d" % self.unknowns,
            "hard errors  %d" % self.hard_errors,
            "wall time    %.3f s" % self.wall_time,
        ]
        for hyp, count in sorted(self.refusals.items()):
            lines.append("refusal      %-4d %s" % (count, hyp))
        bad = [r for r in self.rows if r.outcome == "hard-error"]
        for r in bad[:10]:
            lines.append("  trial %d (seed %d): %s" % (r.index, r.seed, r.detail))
        lines.append("verdict      %s" % ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


# -- instance builders ---------------------------------------------------


def _random_multigraph(rng: random.Random, max_edges: int = 8) -> MultiGraph:
    n = rng.randint(2, 6)
    vertices = list(range(1, n + 1))
    m = rng.randint(1, max_edges)
    edges = []
    for _ in range(m):
        if rng.random() < 0.08:
            v = rng.choice(vertices)
            edges.append((v, v))
        else:
            u, v = rng.sample(vertices, 2)
            edges.append((u, v))
    return MultiGraph(vertices, edges)


def _random_f(G: MultiGraph, rng: random.Random) -> dict[int, int]:
    return {v: rng.randint(0, G.degree(v)) for v in G.vertices}


def _random_gf(G: MultiGraph, rng: random.Random) -> tuple[dict[int, int], dict[int, int]]:
    g, f = {}, {}
    for v in G.vertices:
        a = rng.randint(0, G.degree(v))
        b = rng.randint(0, G.degree(v))
        g[v], f[v] = min(a, b), max(a, b)
    return g, f


def _doubled(G: MultiGraph) -> MultiGraph:
    pairs = [(u, v) for _, u, v in G.edges]
    return MultiGraph(list(G.vertices), pairs + pairs)


def _with_intra_edge(G: MultiGraph, P: Bipartition, rng: random.Random) -> MultiGraph:
    side = P.X if rng.random() < 0.5 else P.Y
    if len(side) < 2:
        side = P.X if len(P.X) >= 2 else P.Y
    u, v = rng.sample(sorted(side), 2)
    return G.with_added_edges([(u, v)])


# -- per-theorem trials --------------------------------------------------
# each driver takes (trial index, trial seed, params) and returns
# (outcome, hypothesis, detail)

Outcome = tuple[str, str, str]

# the factor-theorem trials' regime; only tough-check reads params
_TRIAL_PARAMS = TheoremParams(k=1, m=1, m0=0)


def _trial_tutte(index: int, seed: int, params: TheoremParams) -> Outcome:
    rng = random.Random(seed)
    G = _random_multigraph(rng)
    f = _random_f(G, rng)
    via_finder = find_f_factor(G, f) is not None
    via_criterion, witness = check_lovasz_condition(G, f, f)
    via_oracle = factor_exists(
        G, lambda degs: all(degs[v] == f[v] for v in G.vertices)
    )
    if not (via_finder == via_criterion == via_oracle):
        return (
            "hard-error",
            "",
            "disagreement: finder=%s criterion=%s oracle=%s witness=%s"
            % (via_finder, via_criterion, via_oracle, witness),
        )
    if G.is_connected() and sum(f.values()) % 2 == 0:
        strict, sw = check_tutte_strict_form(G, f)
        if strict != via_finder:
            return (
                "hard-error",
                "",
                "strict form disagrees: strict=%s finder=%s witness=%s"
                % (strict, via_finder, sw),
            )
    return "success", "", ""


def _trial_lovasz(index: int, seed: int, params: TheoremParams) -> Outcome:
    rng = random.Random(seed)
    G = _random_multigraph(rng)
    g, f = _random_gf(G, rng)
    via_finder = find_interval_factor(G, g, f) is not None
    via_criterion, witness = check_lovasz_condition(G, g, f)
    via_oracle = factor_exists(
        G, lambda degs: all(g[v] <= degs[v] <= f[v] for v in G.vertices)
    )
    if not (via_finder == via_criterion == via_oracle):
        return (
            "hard-error",
            "",
            "disagreement: finder=%s criterion=%s oracle=%s witness=%s"
            % (via_finder, via_criterion, via_oracle, witness),
        )
    return "success", "", ""


def _trial_bijection(index: int, seed: int, params: TheoremParams) -> Outcome:
    rng = random.Random(seed)
    G = gen_tree_connected(
        GenSpec(n=rng.randint(4, 7), trees=1, extra_edges=rng.randint(0, 4),
                bipartite=True, seed=seed)
    )
    P = balanced_bipartition_of(G)
    ids = sorted(G.edge_ids)
    F = Factor(G, frozenset(eid for eid in ids if rng.random() < 0.5))
    D = orientation_from_factor(G, P, F)
    back = factor_from_orientation(G, P, D)
    if back.edge_ids != F.edge_ids:
        return "hard-error", "", "factor -> orientation -> factor is not the identity"
    out = D.outdegrees()
    for v in G.vertices:
        want = out[v] if v in P.X else G.degree(v) - out[v]
        if F.degree(v) != want:
            return "hard-error", "", "degree law fails at vertex %d" % v
    # opposite direction: any orientation survives the round trip too
    directions = {}
    for eid, u, v in G.edges:
        directions[eid] = (u, v) if rng.random() < 0.5 else (v, u)
    D0 = Orientation(G, directions)
    F0 = factor_from_orientation(G, P, D0)
    D1 = orientation_from_factor(G, P, F0)
    if D1.directions != D0.directions:
        return "hard-error", "", "orientation -> factor -> orientation is not the identity"
    return "success", "", ""


def _trial_eulerian_half(index: int, seed: int, params: TheoremParams) -> Outcome:
    rng = random.Random(seed)
    t = index % 3
    base = gen_tree_connected(
        GenSpec(n=rng.randint(4, 7), trees=2, extra_edges=rng.randint(0, 3), seed=seed)
    )
    G = _doubled(base)
    i = {v: 0 for v in G.vertices}
    if t >= 1:
        # loops make |E| odd / keep it even and push bi(G) up to t - 1
        loops = [(rng.choice(list(G.vertices)), ) * 2 for _ in range(t)]
        G = G.with_added_edges(loops)
        carriers = rng.sample(list(G.vertices), t)
        for v in carriers:
            i[v] = rng.choice((-1, 1))
    cert = eulerian_half_factor(G, i)
    if cert is None:
        return "hard-error", "", "construction returned none under verified hypotheses"
    half = {v: G.degree(v) // 2 + i[v] for v in G.vertices}
    return _oracle_checked(read_answer(cert, G, half, half), G, half, half)


def _trial_bipartite_gf(index: int, seed: int, params: TheoremParams) -> Outcome:
    rng = random.Random(seed)
    G = gen_tree_connected(
        GenSpec(n=rng.randint(4, 8), trees=4, extra_edges=rng.randint(0, 3),
                bipartite=True, seed=seed)
    )
    g, f = gen_functions(G, k=1, seed=seed)
    res, outcome = _run_trial("bipartite-gf", seed, G, g, f)
    # the runner selects on the balanced bipartition and pins d_F(min X)
    P = balanced_bipartition_of(G)
    h = balanced_selector(G, P, g, f)
    if res is None and h is not None:
        return "hard-error", "", "selector succeeded but no factor was produced"
    if outcome[0] == "success" and res.factor.degree(min(P.X)) != h[min(P.X)]:
        return "hard-error", "", "pinned degree law fails at z"
    return outcome


def _trial_almost_bipartite(index: int, seed: int, params: TheoremParams) -> Outcome:
    rng = random.Random(seed)
    c = rng.randint(14, 16)  # cross multiplicity; 6c >= 80 keeps 20 trees
    edges = [(1, 2)]
    for u in (1, 2):
        for v in (3, 4, 5):
            edges += [(u, v)] * c
    G = MultiGraph([1, 2, 3, 4, 5], edges)
    g, f = gen_functions(G, k=2, seed=seed)
    v0 = 3  # force a gap-2 vertex so the derived k really is 2
    d0 = G.degree(v0)
    g[v0], f[v0] = d0 // 2 - 1, d0 // 2 + 1
    return _run_trial("almost-bipartite", seed, G, g, f)[1]


def _trial_bi_large(index: int, seed: int, params: TheoremParams) -> Outcome:
    rng = random.Random(seed)
    G = gen_tree_connected(
        GenSpec(n=rng.randint(4, 7), trees=3, extra_edges=rng.randint(0, 2),
                bipartite=True, seed=seed)
    )
    P = balanced_bipartition_of(G)
    if rng.random() < 0.5 and min(len(P.X), len(P.Y)) >= 2:
        G = _with_intra_edge(G, P, rng)
    g, f = gen_functions(G, k=1, seed=seed)
    return _run_trial("bi-large", seed, G, g, f)[1]


def _trial_tree_gf_bipartite(index: int, seed: int, params: TheoremParams) -> Outcome:
    rng = random.Random(seed)
    base = gen_tree_connected(
        GenSpec(n=rng.randint(4, 7), trees=3, extra_edges=rng.randint(0, 2),
                bipartite=True, seed=seed)
    )
    G = _doubled(base)  # 6-tree-connected, all degrees even
    g, f = gen_functions(G, k=1, m=1, m0=0, seed=seed)
    return _run_trial("tree-gf-bipartite", seed, G, g, f)[1]


def _trial_tree_gf(index: int, seed: int, params: TheoremParams) -> Outcome:
    rng = random.Random(seed)
    base = gen_tree_connected(
        GenSpec(n=rng.randint(4, 7), trees=4, extra_edges=rng.randint(0, 2), seed=seed)
    )
    G = _doubled(base)  # 8-tree-connected, all degrees even
    g, f = gen_functions(G, k=1, m=1, m0=0, seed=seed)
    return _run_trial("tree-gf", seed, G, g, f)[1]


def _trial_tough_check(index: int, seed: int, params: TheoremParams) -> Outcome:
    rng = random.Random(seed)
    base = gen_tree_connected(
        GenSpec(n=rng.randint(4, 8), trees=rng.randint(1, 2),
                extra_edges=rng.randint(0, 3), seed=seed)
    )
    G = _doubled(base)  # even degrees keep the sampled windows nonempty
    g, f = gen_functions(G, k=params.k, m=params.m, m0=params.m0, seed=seed)
    report = tough_hypothesis_check(G, g, f, params)
    failing = [name for name, holds, _ in report.rows if not holds]
    detail = "all hypotheses hold" if not failing else "fails: " + ", ".join(failing)
    return "success", "", detail


# -- reading a pipeline's answer ----------------------------------------

UNKNOWN_DETAIL = "search budget exhausted"


def read_answer(res, G: MultiGraph, g: dict[int, int], f: dict[int, int]) -> Outcome:
    """Judge a pipeline's answer against the caller's own windows.

    A certificate must re-verify; a factor's degrees must also lie in
    {g(v), f(v)}, which its own degree report cannot show.  None means
    something different to each caller, so each reads it first; here it
    is a hard error, as is any answer that is not a certificate.
    """
    if is_unknown(res):
        return "unknown", "", UNKNOWN_DETAIL
    if isinstance(res, NoFactorCertificate):
        if not res.verify(G, g, f):
            return "hard-error", "", "nonexistence certificate failed re-verification"
        return "none", "", res.reason
    if not isinstance(res, FactorCertificate):
        return "hard-error", "", "unexpected result %r" % (res,)
    if not res.verify():
        return "hard-error", "", "certificate failed re-verification"
    if any(res.factor.degree(v) not in (g[v], f[v]) for v in G.vertices):
        return "hard-error", "", "factor degree outside {g, f}"
    return "success", "", ""


def _read_run(
    res, G: MultiGraph, g: dict[int, int], f: dict[int, int], assume: bool
) -> Outcome:
    """read_answer after a runner's own nones: NO_SELECTOR, and None (gated,
    only a bipartite pipeline answers it: no balanced h)."""
    if res is NO_SELECTOR:
        return "none", "", "no admissible selector"
    if res is None:
        detail = ("a stage found nothing under the assumed hypotheses"
                  if assume else "no balanced selector")
        return "none", "", detail
    return read_answer(res, G, g, f)


def _oracle_finds_factor(G: MultiGraph, g: dict[int, int], f: dict[int, int]) -> bool:
    """A {g, f}-factor by brute force, on hosts within ORACLE_EDGE_CAP."""
    return G.num_edges <= ORACLE_EDGE_CAP and factor_exists(
        G, lambda degs: all(degs[v] in (g[v], f[v]) for v in G.vertices)
    )


def _oracle_checked(
    outcome: Outcome, G: MultiGraph, g: dict[int, int], f: dict[int, int]
) -> Outcome:
    """outcome, with a `none` cross-checked by the oracle."""
    if outcome[0] == "none" and _oracle_finds_factor(G, g, f):
        return "hard-error", "", outcome[2] + ", yet an oracle factor exists"
    return outcome


def _run_trial(tid: str, seed: int, G: MultiGraph, g: dict[int, int], f: dict[int, int]):
    """(answer, outcome) of tid's runner, gated, on a trial host, read as
    `factorkit factor` reads it and with a `none` checked by the oracle."""
    res = THEOREMS[tid][1](G, g, f, _TRIAL_PARAMS, False, seed)
    return res, _oracle_checked(_read_run(res, G, g, f, False), G, g, f)


# -- pipeline runners, for `factorkit factor` and the campaign -------------
# each runner takes (G, g, f, params, assume_hypotheses, seed) and answers
# what its pipeline answers, or NO_SELECTOR

# the almost-bipartite runner's none: no h in {g, f}^V is admissible, so
# no pipeline stage ran
NO_SELECTOR = object()


def _run_bipartite_gf(G, g, f, params, assume, seed):
    P = balanced_bipartition_of(G)
    return gf_factor_bipartite(G, P, g, f, assume_hypotheses=assume, seed=seed)


def _run_almost_bipartite(G, g, f, params, assume, seed):
    # the entry's structure search runs on these witnesses in this order,
    # each as given or swapped: h is admissible for the first orientation
    # that has one
    for P in _structure_witnesses(G):
        for Q in (P, P.swapped()):
            h = _selector_within(G, Q, g, f, 2 * partition_stats(G, Q.X)[1] + 1)
            if h is not None:
                return gf_factor_almost_bipartite(G, g, f, h, assume_hypotheses=assume, seed=seed)
    return NO_SELECTOR


def _run_bi_large(G, g, f, params, assume, seed):
    return gf_factor_bi_large(G, g, f, assume_hypotheses=assume, seed=seed)


def _run_tree_gf_bipartite(G, g, f, params, assume, seed):
    P = balanced_bipartition_of(G)
    return tree_connected_gf_bipartite(
        G, P, g, f, params=params, assume_hypotheses=assume, seed=seed
    )


def _run_tree_gf(G, g, f, params, assume, seed):
    return tree_connected_gf(G, g, f, params=params, assume_hypotheses=assume, seed=seed)


# theorem id -> (campaign trial, runner or None)
THEOREMS = {
    "tutte-equiv": (_trial_tutte, None),
    "lovasz-equiv": (_trial_lovasz, None),
    "bijection": (_trial_bijection, None),
    "eulerian-half": (_trial_eulerian_half, None),
    "bipartite-gf": (_trial_bipartite_gf, _run_bipartite_gf),
    "almost-bipartite": (_trial_almost_bipartite, _run_almost_bipartite),
    "bi-large": (_trial_bi_large, _run_bi_large),
    "tree-gf-bipartite": (_trial_tree_gf_bipartite, _run_tree_gf_bipartite),
    "tree-gf": (_trial_tree_gf, _run_tree_gf),
    "tough-check": (_trial_tough_check, None),
}
THEOREM_IDS = tuple(THEOREMS)
FACTOR_THEOREMS = tuple(tid for tid, (_, run) in THEOREMS.items() if run is not None)


# -- campaign loop -------------------------------------------------------


def verify_theorem(
    theorem: str,
    trials: int,
    params: TheoremParams | None = None,
    master_seed: int = 0,
) -> Report:
    """Run `trials` independent instances of the named check and report.

    Hard errors mean a guaranteed construction failed under verified
    hypotheses (or two independent routes disagreed); a passing campaign
    has none.
    """
    if theorem not in THEOREM_IDS:
        raise InputError(
            "unknown theorem id %r; know %s" % (theorem, ", ".join(THEOREM_IDS))
        )
    if trials < 1:
        raise InputError("need at least one trial")
    if params is None:
        params = TheoremParams(k=1, m=1, m0=0, b=1)

    trial, _ = THEOREMS[theorem]
    started = time.monotonic()
    rows: list[TrialRow] = []
    for index in range(trials):
        seed = child_seed(master_seed, index)
        try:
            outcome = trial(index, seed, params)
        except TheoremViolationError as exc:
            outcome = ("hard-error", "", "theorem violation: %s" % exc)
        except HypothesisError as exc:
            outcome = ("refusal", exc.hypothesis, str(exc))
        except AssertionError as exc:
            outcome = ("hard-error", "", "internal invariant failed: %s" % exc)
        rows.append(TrialRow(index, seed, *outcome))

    refusals: dict[str, int] = {}
    for row in rows:
        if row.outcome == "refusal":
            refusals[row.hypothesis] = refusals.get(row.hypothesis, 0) + 1
    return Report(
        theorem=theorem,
        trials=trials,
        successes=sum(r.outcome == "success" for r in rows),
        nones=sum(r.outcome == "none" for r in rows),
        unknowns=sum(r.outcome == "unknown" for r in rows),
        refusals=refusals,
        hard_errors=sum(r.outcome == "hard-error" for r in rows),
        rows=tuple(rows),
        wall_time=time.monotonic() - started,
    )
