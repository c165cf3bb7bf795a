"""Acceptance sweep.  One printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -q`; the verdict lines bypass
capture so they show up either way.  Every criterion re-derives its
expected answers from local oracles or reference values, never from the
code under test.
"""
from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from factorkit.connectivity import TreePacking, bipartite_index, spanning_tree_packing, toughness
from factorkit.decompositions import decompose_eulerian, parity_forest
from factorkit.factors import (
    check_lovasz_condition,
    check_tutte_strict_form,
    factor_exists,
    find_f_factor,
    find_interval_factor,
)
from factorkit.generators import GenSpec, balanced_bipartition_of, gen_tree_connected
from factorkit.graph import Factor, MultiGraph, induced_bipartite_factor
from factorkit.harness import verify_theorem
from factorkit.orientations import interval_orientation
from factorkit.pipeline import NoFactorCertificate, gf_factor_bi_large


def _tree_connected(G, m):
    return isinstance(spanning_tree_packing(G, m), TreePacking)


def _verdict(capsys, label, ok, detail=""):
    tail = "" if ok else " -- %s" % detail
    with capsys.disabled():
        print("[%s] %s%s" % ("PASS" if ok else "FAIL", label, tail))
    assert ok, "%s%s" % (label, tail)


def _random_multigraph(rng, max_edges=8, max_n=6):
    n = rng.randint(2, max_n)
    verts = list(range(1, n + 1))
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        if rng.random() < 0.08:
            v = rng.choice(verts)
            edges.append((v, v))
        else:
            edges.append(tuple(rng.sample(verts, 2)))
    return MultiGraph(verts, edges)


def _random_tree(rng, n):
    verts = list(range(1, n + 1))
    edges = [(v, rng.choice(verts[: v - 1])) for v in verts[1:]]
    return MultiGraph(verts, edges)


def _connected_multigraphs(max_n, max_edges):
    """All connected multigraphs on 1..max_n labeled vertices, loops and
    parallel edges included, up to max_edges edges."""
    for n in range(1, max_n + 1):
        verts = list(range(1, n + 1))
        pair_types = [(v, v) for v in verts] + list(
            itertools.combinations(verts, 2)
        )
        for m in range(0, max_edges + 1):
            for combo in itertools.combinations_with_replacement(
                range(len(pair_types)), m
            ):
                G = MultiGraph(verts, [pair_types[i] for i in combo])
                if G.is_connected():
                    yield G


def test_01_exact_degree_three_way_agreement(capsys):
    t0 = time.monotonic()
    rng = random.Random(0xA1)
    bad = None
    graphs = 0
    for G in _connected_multigraphs(max_n=4, max_edges=6):
        graphs += 1
        d = G.degrees()
        draws = [
            {v: d[v] // 2 for v in G.vertices},
            {v: rng.randint(0, d[v]) for v in G.vertices},
            {v: rng.randint(0, d[v]) for v in G.vertices},
        ]
        for f in draws:
            found = find_f_factor(G, f)
            crit = check_lovasz_condition(G, f, f)[0]
            oracle = factor_exists(
                G, lambda degs: all(degs[v] == f[v] for v in G.vertices)
            )
            if not ((found is not None) == crit == oracle):
                bad = bad or (sorted(G.edges), f)
            if found is not None and found.degrees() != f:
                bad = bad or ("degree mismatch", sorted(G.edges), f)
    for i in range(500):
        G = _random_multigraph(rng, max_edges=8)
        d = G.degrees()
        f = {v: rng.randint(0, d[v]) for v in G.vertices}
        found = find_f_factor(G, f)
        crit = check_lovasz_condition(G, f, f)[0]
        oracle = factor_exists(
            G, lambda degs: all(degs[v] == f[v] for v in G.vertices)
        )
        if not ((found is not None) == crit == oracle):
            bad = bad or (sorted(G.edges), f)
    elapsed = time.monotonic() - t0
    ok = bad is None and elapsed < 60.0
    _verdict(
        capsys,
        "01 exact-degree finder == criterion == oracle "
        "(%d exhaustive + 500 random, %.1fs)" % (graphs, elapsed),
        ok,
        repr(bad) if bad else "%.1fs over budget" % elapsed,
    )


def test_02_interval_three_way_agreement(capsys):
    rng = random.Random(0xA2)
    bad = None
    for i in range(500):
        G = _random_multigraph(rng, max_edges=8)
        d = G.degrees()
        g = {v: rng.randint(0, d[v]) for v in G.vertices}
        f = {v: rng.randint(g[v], d[v]) for v in G.vertices}
        found = find_interval_factor(G, g, f)
        crit = check_lovasz_condition(G, g, f)[0]
        oracle = factor_exists(
            G, lambda degs: all(g[v] <= degs[v] <= f[v] for v in G.vertices)
        )
        if not ((found is not None) == crit == oracle):
            bad = bad or (sorted(G.edges), g, f)
        if found is not None and not all(
            g[v] <= found.degree(v) <= f[v] for v in G.vertices
        ):
            bad = bad or ("bounds violated", sorted(G.edges), g, f)
    _verdict(
        capsys,
        "02 interval finder == criterion == oracle (500 random)",
        bad is None,
        repr(bad),
    )


def test_03_strict_form_agreement(capsys):
    rng = random.Random(0xA3)
    bad = None
    done = 0
    while done < 500:
        G = _random_multigraph(rng, max_edges=8)
        if not G.is_connected():
            continue
        d = G.degrees()
        f = {v: rng.randint(0, d[v]) for v in G.vertices}
        if sum(f.values()) % 2 == 1:
            # flip one vertex to land on an even sum, staying in [0, d]
            v0 = next(iter(G.vertices))
            f[v0] += 1 if f[v0] < d[v0] else -1
        if sum(f.values()) % 2 == 1:
            continue
        done += 1
        strict = check_tutte_strict_form(G, f)[0]
        if strict != (find_f_factor(G, f) is not None):
            bad = bad or (sorted(G.edges), f)
    _verdict(
        capsys,
        "03 strict criterion matches finder on connected even-sum f (500)",
        bad is None,
        repr(bad),
    )


def test_04_eulerian_half_campaign(capsys):
    rep = verify_theorem("eulerian-half", 200, master_seed=4)
    ok = rep.hard_errors == 0 and rep.successes == 200
    _verdict(
        capsys,
        "04 eulerian half-degree campaign, defects 0/1/2 (200 trials)",
        ok,
        rep.to_json(),
    )


def test_05_bipartite_window_campaign(capsys):
    rep = verify_theorem("bipartite-gf", 200, master_seed=5)
    ok = (
        rep.hard_errors == 0
        and rep.unknowns == 0
        and rep.successes + rep.nones == 200
        and rep.successes > 0
    )
    _verdict(
        capsys,
        "05 bipartite window-factor campaign (200 trials)",
        ok,
        rep.to_json(),
    )


def test_06_bi_large_and_tree_connected_campaigns(capsys):
    ra = verify_theorem("bi-large", 100, master_seed=6)
    rb = verify_theorem("tree-gf", 100, master_seed=6)
    # deterministic no-factor arm: all window gaps even, odd total, so the
    # parity screen must emit a certificate the oracle agrees with
    G = MultiGraph(
        [1, 2, 3, 4, 5],
        [(1, 2)] + [(u, v) for u in (1, 2) for v in (3, 4, 5)] * 3,
    )
    d = G.degrees()
    g = {v: d[v] // 2 for v in G.vertices}
    res = gf_factor_bi_large(G, g, dict(g), seed=6)
    none_ok = (
        isinstance(res, NoFactorCertificate)
        and res.verify(G, g, g)
        and not factor_exists(
            G, lambda degs: all(degs[v] == g[v] for v in G.vertices), cap=23
        )
    )
    ok = (
        ra.hard_errors == 0
        and rb.hard_errors == 0
        and ra.successes > 0
        and rb.successes > 0
        and ra.unknowns == 0
        and rb.unknowns == 0
        and none_ok
    )
    _verdict(
        capsys,
        "06 large-bi and tree-connected campaigns (100 trials each)",
        ok,
        "bi-large=%s tree-gf=%s none_ok=%s" % (ra.to_json(), rb.to_json(), none_ok),
    )


def test_07_eulerian_split_and_parity_uniqueness(capsys):
    rng = random.Random(0xA7)
    bad = None
    for i in range(200):
        spec = GenSpec(
            n=rng.randint(4, 8), trees=3, extra_edges=rng.randint(0, 2),
            bipartite=True, seed=i,
        )
        G = gen_tree_connected(spec)
        P = balanced_bipartition_of(G)
        if rng.random() < 0.5:
            # one intra-part edge to exercise the intra-routing rule
            side = P.X if rng.random() < 0.5 else P.Y
            if len(side) >= 2:
                u, v = rng.sample(sorted(side), 2)
                pairs = [(a, b) for _, a, b in G.edges]
                G = MultiGraph(G.vertices, pairs + [(u, v)])
        g1, g2 = decompose_eulerian(G, P, 1, 1, seed=i)
        H1, H2 = g1.as_graph(), g2.as_graph()
        parts_ok = (
            g1.edge_ids | g2.edge_ids == frozenset(G.edge_ids)
            and not g1.edge_ids & g2.edge_ids
        )
        cross = induced_bipartite_factor(H2, P)
        intra_ok = all(
            eid in g2.edge_ids
            for eid, u, v in G.edges
            if (u in P.X) == (v in P.X)
        )
        if not (
            parts_ok
            and H1.is_bipartite_with(P)
            and _tree_connected(H1, 1)
            and H2.is_eulerian()
            and _tree_connected(cross.as_graph(), 1)
            and intra_ok
        ):
            bad = bad or ("split", i)
    unique_checked = 0
    for i in range(500):
        T = _random_tree(rng, rng.randint(2, 13))
        targets = {v: rng.randint(0, 1) for v in T.vertices}
        if sum(targets.values()) % 2 == 1:
            targets[1] ^= 1
        F = parity_forest(Factor(T, frozenset(T.edge_ids)), targets)
        ids = sorted(T.edge_ids)
        matches = [
            frozenset(combo)
            for r in range(len(ids) + 1)
            for combo in itertools.combinations(ids, r)
            if all(
                Factor(T, frozenset(combo)).degree(v) % 2 == targets[v]
                for v in T.vertices
            )
        ]
        unique_checked += 1
        if matches != [F.edge_ids]:
            bad = bad or ("parity", i, matches)
    ok = bad is None and unique_checked == 500
    _verdict(
        capsys,
        "07 eulerian split postconditions (200) + parity forest uniqueness (500)",
        ok,
        repr(bad),
    )


def test_08_orientations_and_bijection(capsys):
    rng = random.Random(0xA8)
    bad = None
    for i in range(300):
        G = _random_multigraph(rng, max_edges=12, max_n=6)
        d = G.degrees()
        p = {v: rng.randint(-1, d[v]) for v in G.vertices}
        q = {v: rng.randint(p[v], d[v] + 1) for v in G.vertices}
        nonloop = [(u, v) for _, u, v in G.edges if u != v]
        base = {v: G.loops_at(v) for v in G.vertices}
        feasible = False
        for mask in range(1 << len(nonloop)):
            out = dict(base)
            for j, (u, v) in enumerate(nonloop):
                out[u if mask >> j & 1 else v] += 1
            if all(p[v] <= out[v] <= q[v] for v in G.vertices):
                feasible = True
                break
        got = interval_orientation(G, p, q)
        if (got is not None) != feasible:
            bad = bad or (sorted(G.edges), p, q)
        if got is not None and not all(
            p[v] <= d <= q[v] for v, d in got.outdegrees().items()
        ):
            bad = bad or ("bounds", sorted(G.edges), p, q)
    rep = verify_theorem("bijection", 100, master_seed=8)
    ok = bad is None and rep.hard_errors == 0 and rep.successes == 100
    _verdict(
        capsys,
        "08 interval orientations vs enumeration (300) + factor bijection (100)",
        ok,
        repr(bad) if bad else rep.to_json(),
    )


def test_09_bipartite_index_and_toughness(capsys):
    rng = random.Random(0xA9)
    bad = None
    for i in range(200):
        G = _random_multigraph(rng, max_edges=10, max_n=8)
        verts = list(G.vertices)
        brute = G.num_edges
        for r in range(len(verts) + 1):
            for combo in itertools.combinations(verts, r):
                side = set(combo)
                intra = sum(
                    1
                    for _, u, v in G.edges
                    if u == v or (u in side) == (v in side)
                )
                brute = min(brute, intra)
        value, P = bipartite_index(G)
        witness_intra = sum(
            1
            for _, u, v in G.edges
            if u == v or (u in P.X) == (v in P.X)
        )
        if value != brute or witness_intra != value:
            bad = bad or (sorted(G.edges), value, brute, witness_intra)
    c5 = MultiGraph([1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    star = MultiGraph([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)])
    k4 = MultiGraph([1, 2, 3, 4], list(itertools.combinations([1, 2, 3, 4], 2)))
    tough_ok = (
        toughness(c5).value == Fraction(1)
        and toughness(star).value == Fraction(1, 3)
        and toughness(k4).value is None
    )
    ok = bad is None and tough_ok
    _verdict(
        capsys,
        "09 bipartite index vs brute cut (200) + toughness reference values",
        ok,
        repr(bad) if bad else "toughness mismatch",
    )


def test_10_campaign_reports_reproducible(capsys):
    ids = (
        "tutte-equiv",
        "eulerian-half",
        "bipartite-gf",
        "bi-large",
        "tree-gf",
    )
    mismatched = [
        t
        for t in ids
        if verify_theorem(t, 10, master_seed=10).to_json()
        != verify_theorem(t, 10, master_seed=10).to_json()
    ]
    _verdict(
        capsys,
        "10 campaign reports byte-identical across reruns (5 ids x 10 trials)",
        not mismatched,
        repr(mismatched),
    )
