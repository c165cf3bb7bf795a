"""How the theorem pipelines end: answers, refusals, UNKNOWN and failed
stages, with the hypothesis gates on and off."""
from __future__ import annotations

import hashlib
import json

import pytest

from factorkit import decompositions, pipeline
from factorkit.cli import main
from factorkit.errors import HypothesisError, TheoremViolationError, UNKNOWN
from factorkit.generators import GenSpec, gen_functions, gen_tree_connected
from factorkit.connectivity import PackingRefusal, spanning_tree_packing
from factorkit.graph import Bipartition, MultiGraph, induced_bipartite_factor
from factorkit.harness import FACTOR_THEOREMS, NO_SELECTOR, THEOREMS
from factorkit.rng import child_seed
from factorkit.pipeline import (
    FactorCertificate,
    NoFactorCertificate,
    TheoremParams,
    eulerian_half_factor,
    gf_factor_almost_bipartite,
    gf_factor_bi_large,
    gf_factor_bipartite,
    tree_connected_gf,
    tree_connected_gf_bipartite,
)


def _doubled(G: MultiGraph) -> MultiGraph:
    pairs = [(u, v) for _, u, v in G.edges]
    return MultiGraph(list(G.vertices), pairs + pairs)


def _outcome(call) -> str:
    """An answer as text: the factor's edge ids, or the kind of exit."""
    try:
        res = call()
    except HypothesisError as exc:
        return f"refusal {exc.hypothesis}"
    except TheoremViolationError:
        return "violation"
    if res is UNKNOWN:
        return "unknown"
    if res is None or res is NO_SELECTOR:
        return "none"
    if isinstance(res, NoFactorCertificate):
        return "no-factor"
    assert isinstance(res, FactorCertificate) and res.verify()
    return "factor " + " ".join(map(str, sorted(res.factor.edge_ids)))


# a generator host for each factor theorem id, by seed
_HOSTS = {
    "bipartite-gf": lambda s: gen_tree_connected(
        GenSpec(n=6, trees=2 + 2 * (s % 2), extra_edges=s, bipartite=True, seed=s)),
    "almost-bipartite": lambda s: gen_tree_connected(
        GenSpec(n=6, trees=4 + 2 * (s % 3), bipartite=s < 3, seed=s)),
    "bi-large": lambda s: gen_tree_connected(
        GenSpec(n=6, trees=2 + s % 3, extra_edges=s, seed=s)),
    "tree-gf-bipartite": lambda s: _doubled(gen_tree_connected(
        GenSpec(n=6, trees=2 + s % 3, bipartite=True, seed=s))),
    "tree-gf": lambda s: _doubled(gen_tree_connected(
        GenSpec(n=5, trees=3 + s % 3, seed=s))),
}


def _cases():
    """(label, call taking assume_hypotheses) on fixed generator hosts."""
    cycle = MultiGraph(range(1, 7), [(v, v % 6 + 1) for v in range(1, 7)])
    for seed in range(5):
        G = _doubled(gen_tree_connected(GenSpec(n=5, trees=2 + seed % 2, seed=seed)))
        G = cycle if seed == 4 else G
        v1, v2 = G.vertices[:2]
        for t, loops in ((0, 0), (1, 1), (2, 0), (1, 0), (2, 1), (3, 1)):
            i = {v: 0 for v in G.vertices}
            i[v1] = t - t // 2
            i[v2] = -(t // 2)
            H = G.with_added_edges([(v2, v2)] * loops)
            yield f"eulerian-half {seed} {t} {loops}", (
                lambda a, H=H, i=i: eulerian_half_factor(H, i, assume_hypotheses=a)
            )
            at = {v: 0 for v in H.vertices}
            at[H.vertices[-1]] = t
            yield f"eulerian-half-at {seed} {t} {loops}", (
                lambda a, H=H, at=at: eulerian_half_factor(H, at, assume_hypotheses=a)
            )
    for tid in FACTOR_THEOREMS:
        run = THEOREMS[tid][1]
        for seed in range(6):
            G = _HOSTS[tid](seed)
            m = seed % 2 if tid.startswith("tree") else 0
            try:
                g, f = gen_functions(G, k=1, m=m, seed=seed)
            except HypothesisError:
                continue
            params = TheoremParams(k=1, m=m)
            yield f"{tid} {seed}", (
                lambda a, run=run, G=G, g=g, f=f, params=params, seed=seed:
                run(G, g, f, params, a, seed)
            )
    # the k = 2 almost-bipartite construction: one intra edge, gap 2 at 3
    run = THEOREMS["almost-bipartite"][1]
    for seed, c in enumerate((2, 3, 14, 15)):
        G = MultiGraph(range(1, 6), [(1, 2)] + [(u, v) for u in (1, 2) for v in (3, 4, 5)] * c)
        g, f = gen_functions(G, k=2, seed=seed)
        g[3], f[3] = G.degree(3) // 2 - 1, G.degree(3) // 2 + 1
        yield f"almost-bipartite k=2 {c}", (
            lambda a, G=G, g=g, f=f, seed=seed:
            run(G, g, f, TheoremParams(k=2), a, seed)
        )


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_pipeline_answers_are_pinned():
    lines, kinds = [], []
    for label, call in _cases():
        for assume in (False, True):
            outcome = _outcome(lambda: call(assume))
            lines.append(f"{label} {assume}: {outcome}")
            kind = "factor" if outcome.startswith("factor") else outcome
            kinds.append(f"{label} {assume}: {kind}")
    # how each case exits, without the factor's edges; re-recorded when the
    # eulerian-half-at cases moved to eulerian_half_factor at i = {z: t}:
    # 14 of their refusals now name its gates, and one (the 6-cycle with a
    # loop, t = 1) passes them
    assert _digest(kinds) == "534a66d846da0998b77a1dcf2cc426661f7dd9d60119b4b53a9d58d04fe65918"
    # the edges too: they follow the window engine's choice among valid
    # factors, for one the balance factor that _split_complement asks
    # find_interval_factor for, and the two-point factor that the
    # bipartite and defective stages ask find_two_point_factor for (the
    # feasible flow on a bipartite host with no parity window, the
    # matcher otherwise, whose greedy seed picks among the perfect
    # matchings); and the Euler circuits that a half factor at t <= 1 is
    # coloured along.  Re-pinned when tree_connected_gf at m = m0 = 0 came
    # to run keep-bi like every other m: the six tree-gf lines at seeds 0,
    # 2 and 4 moved to other factors, the other 182 and the kinds did not
    assert _digest(lines) == "e0cda5d1e8df11234507f9f15acd620d7a510fe4a086553e9842cc061cda55f3"


def _stage_cases():
    """(label, call taking assume_hypotheses) for the stages _cases does not
    reach: tree-gf with m0 = 1 and at k = 2, bi-large at k = 2, and
    almost-bipartite at k = 2 with |t| up to 2."""
    for seed in range(4):
        # at k = 2 every gap is 2, so an even vertex count keeps sum f even;
        # 24 trees are 4 too few, which only assume_hypotheses lets through
        for n, trees, params in (
            (5, 4, TheoremParams(k=1, m0=1)),
            (4, 14, TheoremParams(k=2, m=1, m0=1)),
            (4, 12, TheoremParams(k=2, m=1, m0=1)),
        ):
            G = _doubled(gen_tree_connected(
                GenSpec(n=n, trees=trees, extra_edges=seed, seed=seed)))
            g, f = gen_functions(G, k=params.k, m=params.m, m0=params.m0, seed=seed)
            yield f"tree-gf m0=1 k={params.k} trees={trees} {seed}", (
                lambda a, G=G, g=g, f=f, params=params, seed=seed:
                tree_connected_gf(G, g, f, params, assume_hypotheses=a, seed=seed)
            )
    for seed in range(4):
        G = _doubled(gen_tree_connected(GenSpec(n=5, trees=13, extra_edges=seed, seed=seed)))
        for m in (0, 1):
            g, f = gen_functions(G, k=2, m=m, seed=seed)
            yield f"tree-gf k=2 m={m} {seed}", (
                lambda a, G=G, g=g, f=f, m=m, seed=seed:
                tree_connected_gf(G, g, f, TheoremParams(k=2, m=m), assume_hypotheses=a, seed=seed)
            )
    for seed in range(6):
        G = _k23(10 + seed % 3, intra=[(1, 2)] * (1 + seed % 2))
        g, f = gen_functions(G, k=2, seed=seed)
        # "True": the bipartition is searched, as the label read when the
        # digest below was recorded
        yield f"bi-large k=2 {seed} True", (
            lambda a, G=G, g=g, f=f, seed=seed:
            gf_factor_bi_large(G, g, f, assume_hypotheses=a, seed=seed)
        )
    for seed in range(8):
        G = _k23(14 + seed % 3, intra=[(1, 2)])
        g, f = gen_functions(G, k=2, seed=seed)
        h = {v: g[v] if (v + seed) % 2 else f[v] for v in G.vertices}
        if sum(h.values()) % 2 and seed >= 4:
            h[5] = f[5] + g[5] - h[5]
        yield f"almost-bipartite k=2 {seed}", (
            lambda a, G=G, g=g, f=f, h=h, seed=seed:
            gf_factor_almost_bipartite(G, g, f, h, assume_hypotheses=a, seed=seed)
        )


def test_stage_answers_are_pinned():
    # factor edges, or the kind of exit, of the nested stages under both
    # settings; recorded before the stages took the trees and bipartition
    # their callers had proved, which changed none of these answers, and
    # re-recorded when half factors at t <= 1 came to be coloured along
    # Euler circuits, again when bipartite hosts with no parity window
    # went to the feasible flow, and again when the matcher's greedy seed
    # came to run from the highest gadget node down; each moved factor
    # edges but no kind of exit.  Re-pinned when gf_factor_bi_large stopped
    # taking a bipartition, by dropping the 12 lines of the given-P cases
    # and keeping the other 68 as they were; and again when tree_connected_gf
    # at m = m0 = 0 came to run keep-bi, which moved the 8 "tree-gf k=2 m=0"
    # lines to other factors and no other line
    lines = [
        f"{label} {assume}: {_outcome(lambda: call(assume))}"
        for label, call in _stage_cases() for assume in (False, True)
    ]
    assert _digest(lines) == "13d59428c2ba183d45c26a66a121a2779d22f8d6f0e51cdea78d2a1f76e255a7"


def _k23(mult, intra=()):
    edges = list(intra)
    for u in (1, 2):
        for v in (3, 4, 5):
            edges += [(u, v)] * mult
    return MultiGraph([1, 2, 3, 4, 5], edges)


P23 = Bipartition(frozenset({1, 2}), frozenset({3, 4, 5}))


def _near_half(G):
    d = G.degrees()
    return {v: d[v] // 2 for v in G.vertices}, {v: d[v] // 2 + 1 for v in G.vertices}


def _entries():
    """Each entry on a host where it certifies, as a call taking the
    assume_hypotheses flag; every stage of the entry runs there."""
    triangle = [(1, 2), (2, 3), (3, 1)]
    almost = _k23(14, intra=[(1, 2)])
    g_a = {1: 20, 2: 20, 3: 12, 4: 13, 5: 13}
    f_a = {1: 22, 2: 22, 3: 14, 4: 15, 5: 15}
    h_a = {1: 20, 2: 20, 3: 12, 4: 13, 5: 15}
    bil = _k23(3)
    g_b = {v: bil.degree(v) // 2 for v in bil.vertices}
    f_b = {v: (bil.degree(v) + 1) // 2 for v in bil.vertices}
    bip = _k23(8)
    k5 = MultiGraph(range(1, 6), [
        (u, v) for u in range(1, 6) for v in range(u + 1, 6)] * 4)
    one = TheoremParams(k=1, m=1)
    return {
        "eulerian-half": lambda a: eulerian_half_factor(
            MultiGraph([1, 2, 3], triangle * 2), {1: 0, 2: 0, 3: 0},
            assume_hypotheses=a),
        "eulerian-half t=2": lambda a: eulerian_half_factor(
            MultiGraph([1, 2, 3], triangle * 4), {1: 2, 2: 0, 3: 0},
            assume_hypotheses=a),
        "bipartite-gf": lambda a: gf_factor_bipartite(
            _k23(4), P23, *_near_half(_k23(4)), assume_hypotheses=a, seed=2),
        "almost-bipartite": lambda a: gf_factor_almost_bipartite(
            almost, g_a, f_a, h_a, assume_hypotheses=a, seed=7),
        "bi-large": lambda a: gf_factor_bi_large(
            bil, g_b, f_b, assume_hypotheses=a, seed=11),
        "tree-gf-bipartite": lambda a: tree_connected_gf_bipartite(
            bip, P23, *_near_half(bip), params=one, assume_hypotheses=a, seed=5),
        "tree-gf": lambda a: tree_connected_gf(
            k5, *_near_half(k5), params=one, assume_hypotheses=a, seed=3),
    }


def _give_up(*args, **kwargs):
    return UNKNOWN


def _find_nothing(*args, **kwargs):
    return None


def _refuse(*args, **kwargs):
    raise HypothesisError("forced stage refusal")


# (pipeline name a stage calls, its forced result, the entries it reaches)
FORCED_STAGES = [
    ("_split_complement", _give_up, ("tree-gf-bipartite", "tree-gf")),
    ("_keep_bi", _give_up, ("tree-gf",)),
    ("find_two_point_factor", _give_up,
     ("bipartite-gf", "almost-bipartite", "bi-large", "tree-gf-bipartite", "tree-gf")),
    ("_defective_factor", _give_up, ("bi-large", "tree-gf")),
    ("find_two_point_factor", _find_nothing,
     ("bipartite-gf", "almost-bipartite", "bi-large", "tree-gf-bipartite", "tree-gf")),
    ("_defective_factor", _find_nothing, ("bi-large", "tree-gf")),
    ("_euler_half_factor", _find_nothing,
     ("eulerian-half", "almost-bipartite", "bi-large", "tree-gf")),
    # only a shift of 2 goes past the circuit
    ("find_f_factor", _find_nothing, ("eulerian-half t=2",)),
    ("_eulerian_split", _refuse, ("almost-bipartite", "bi-large", "tree-gf")),
    ("_keep_bi", _refuse, ("tree-gf",)),
]


@pytest.mark.parametrize(
    "name, forced, entry",
    [(name, forced, e) for name, forced, entries in FORCED_STAGES for e in entries],
)
def test_a_forced_stage_exit_reaches_the_entry_once(monkeypatch, name, forced, entry):
    # a give-up is UNKNOWN under both settings; a stage that finds nothing
    # or refuses is a theorem violation, or None under assume_hypotheses
    monkeypatch.setattr(pipeline, name, forced)
    call = _entries()[entry]
    if forced is _give_up:
        expected = ("unknown", "unknown")
    else:
        expected = ("violation", "none")
    assert (_outcome(lambda: call(False)), _outcome(lambda: call(True))) == expected


def test_a_certificate_failing_its_own_check_raises_under_assume(monkeypatch):
    monkeypatch.setattr(FactorCertificate, "verify", lambda self: False)
    for call in _entries().values():
        with pytest.raises(TheoremViolationError):
            call(True)


@pytest.mark.parametrize("theorem, host", [
    ("tree-gf-bipartite", ["--trees", "6", "--bipartite"]),
    ("tree-gf", ["--trees", "8"]),
])
def test_assume_hypotheses_past_a_failed_window_answers_none(
    tmp_path, capsys, theorem, host
):
    # windows drawn for m = 0 miss g+m0 <= d/2 <= f-m at m = 1, and so
    # does the shifted window after the split
    for seed in (1, 2):
        assert main(["gen", "--n", "6", *host, "--k", "1", "--seed", str(seed)]) == 0
        path = tmp_path / "h.txt"
        path.write_text(capsys.readouterr().out)
        argv = ["factor", "--theorem", theorem, "--m", "1", "--graph", str(path),
                "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == "refusal"
        assert main(argv + ["--assume-hypotheses"]) == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == "none"


def test_a_refusal_inside_a_stage_is_a_theorem_violation(monkeypatch):
    G = _doubled(gen_tree_connected(GenSpec(n=5, trees=4, seed=7)))
    g, f = gen_functions(G, k=1, m=1, seed=7)
    keep_bi = pipeline._keep_bi

    def lopsided(H, m1, m2, *args):
        g1f, g2f, _, _ = keep_bi(H, m1, m2, *args)
        low = min(H.vertices)
        P = Bipartition(frozenset({low}), H.vertex_set - {low})
        cross = induced_bipartite_factor(g2f.as_graph(), P).as_graph()
        packing = spanning_tree_packing(cross, m2)
        assert isinstance(packing, PackingRefusal)
        return g1f, g2f, P, packing

    monkeypatch.setattr(pipeline, "_keep_bi", lopsided)
    # the bi-large stage gets the refusal of a lopsided P's cross factor,
    # which is no hypothesis of tree_connected_gf
    with pytest.raises(TheoremViolationError):
        tree_connected_gf(G, g, f, params=TheoremParams(k=1, m=1), seed=7)


def test_assume_hypotheses_on_a_non_bipartite_host_answers_none():
    # the ungated bipartite hypothesis fails inside the construction
    G = _k23(4, intra=[(1, 2)])
    g, f = _near_half(G)
    assert gf_factor_bipartite(G, P23, g, f, assume_hypotheses=True, seed=1) is None
    with pytest.raises(HypothesisError):
        gf_factor_bipartite(G, P23, g, f, seed=1)
    G = _k23(8, intra=[(1, 2)])
    g, f = _near_half(G)
    assert tree_connected_gf_bipartite(
        G, P23, g, f, params=TheoremParams(k=1, m=1), assume_hypotheses=True, seed=1
    ) is None


def test_no_entry_enters_another(monkeypatch):
    # every public entry name in the pipeline module records its calls; the
    # harness runners and this module hold their own references, so a
    # recorded call is an entry called from inside another entry
    entries = [name for name, obj in vars(pipeline).items() if hasattr(obj, "__wrapped__")]
    assert len(entries) == 6
    nested = []
    for name in entries:
        def recorder(*args, name=name, entry=getattr(pipeline, name), **kwargs):
            nested.append(name)
            return entry(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, recorder)
    kinds = {}
    for tid in FACTOR_THEOREMS:
        run = THEOREMS[tid][1]
        for m in (0, 1):
            for seed in range(6):
                G = _HOSTS[tid](seed)
                try:
                    g, f = gen_functions(G, k=1, m=m, seed=seed)
                except HypothesisError:
                    continue
                for assume in (False, True):
                    outcome = _outcome(lambda: run(G, g, f, TheoremParams(k=1, m=m), assume, seed))
                    kinds.setdefault(tid, set()).add(outcome.split()[0])
    triangles = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)] * 4)
    for assume in (False, True):
        for t in (0, 1, 2):
            i = {1: t - t // 2, 2: -(t // 2), 3: 0}
            H = triangles.with_added_edges([(3, 3)] * (t % 2))
            _outcome(lambda: eulerian_half_factor(H, i, assume_hypotheses=assume))
    assert all("factor" in kinds[tid] for tid in FACTOR_THEOREMS), kinds
    assert nested == []


def test_tree_gf_at_m_zero_answers_as_bi_large(monkeypatch):
    # at m = m0 = 0 keep-bi leaves G2 = G and searches it as the bi-large
    # structure gate does, so tree_connected_gf is gf_factor_bi_large at
    # child_seed(seed, 4), with k the largest gap: params.k = 1 below,
    # where k = 2 hosts pass only under assume_hypotheses
    cases = []
    for seed in range(6):
        G = _HOSTS["tree-gf"](seed)
        cases.append((G, *gen_functions(G, k=1, seed=seed), seed))
    for seed in range(4):
        G = _doubled(gen_tree_connected(GenSpec(n=5, trees=13, extra_edges=seed, seed=seed)))
        cases.append((G, *gen_functions(G, k=2, seed=seed), seed))

    def both(G, g, f, seed, assume):
        tree = _outcome(lambda: tree_connected_gf(
            G, g, f, TheoremParams(k=1), assume_hypotheses=assume, seed=seed))
        bi = _outcome(lambda: gf_factor_bi_large(
            G, g, f, assume_hypotheses=assume, seed=child_seed(seed, 4)))
        return tree, bi

    factors = 0
    for G, g, f, seed in cases:
        for assume in (False, True):
            tree, bi = both(G, g, f, seed, assume)
            if not tree.startswith("refusal"):
                assert tree == bi
                factors += tree.startswith("factor")
    assert factors == 16
    # a structure search that finds nothing: keep-bi's gives up past the
    # gates, where the bi-large entry's own gate refuses
    for module in (pipeline, decompositions):
        monkeypatch.setattr(module, "_find_structure", lambda *args, **kwargs: None)
    G, g, f, seed = cases[0]
    assert both(G, g, f, seed, False) == ("unknown", "refusal bi-large structure")
    assert both(G, g, f, seed, True) == ("unknown", "none")
