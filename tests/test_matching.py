"""Blossom matching engine against exhaustive matching enumeration."""
from __future__ import annotations

import itertools
import random

import pytest

from factorkit import factors
from factorkit.graph import MultiGraph
from factorkit.matching import maximum_matching, perfect_matching


def brute_max_matching_size(n, edges):
    best = 0
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(edges, r):
            used = set()
            ok = True
            for u, v in combo:
                if u == v or u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                best = max(best, r)
                break
    return best


def matching_size(mate):
    return sum(1 for v, w in enumerate(mate) if w != -1 and v < w)


def test_matching_size_matches_brute_force():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(2, 8)
        m = rng.randint(0, min(12, n * (n - 1) // 2 + 2))
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(m)]
        mate = maximum_matching(n, edges)
        for v, w in enumerate(mate):
            if w != -1:
                assert mate[w] == v
                assert (v, w) in [(a, b) for a, b in edges] or (w, v) in [
                    (a, b) for a, b in edges
                ]
        assert matching_size(mate) == brute_max_matching_size(n, edges)


def test_odd_cycles_force_blossoms():
    # C9 plus chords: maximum matching 4, needs contraction to find
    edges = [(i, (i + 1) % 9) for i in range(9)]
    mate = maximum_matching(9, edges)
    assert matching_size(mate) == 4
    # two triangles joined by a bridge: perfect matching exists
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
    mate = maximum_matching(6, edges)
    assert matching_size(mate) == 3


def test_perfect_matching_none_on_odd_order():
    assert perfect_matching(3, [(0, 1), (1, 2)]) is None
    got = perfect_matching(4, [(0, 1), (2, 3)])
    assert got is not None
    assert matching_size(got) == 2


def test_petersen_graph_has_perfect_matching():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    got = perfect_matching(10, outer + inner + spokes)
    assert got is not None
    assert matching_size(got) == 5


def _check_against_networkx(nx, n, edges):
    mate = maximum_matching(n, edges)
    host = {frozenset(e) for e in edges}
    for v, w in enumerate(mate):
        if w != -1:
            assert mate[w] == v
            assert frozenset((v, w)) in host
    H = nx.Graph()
    H.add_nodes_from(range(n))
    H.add_edges_from((u, v) for u, v in edges if u != v)
    expect = len(nx.max_weight_matching(H, maxcardinality=True))
    assert matching_size(mate) == expect, (n, edges)


def test_matching_size_matches_networkx_past_the_brute_force_cap():
    nx = pytest.importorskip("networkx")
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randint(2, 60)
        p = rng.choice((0.03, 0.06, 0.1, 0.2))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 4))]
        rng.shuffle(edges)
        _check_against_networkx(nx, n, edges)


def _multigraph_with_loops(rng):
    verts = list(range(1, rng.randint(2, 7) + 1))
    edges = []
    for _ in range(rng.randint(1, 16)):
        if rng.random() < 0.15:
            v = rng.choice(verts)
            edges.append((v, v))
        else:
            edges.append(tuple(rng.sample(verts, 2)))
    return MultiGraph(verts, edges)


def test_factor_gadget_matchings_match_networkx(monkeypatch):
    # the graphs the matcher really sees: window gadgets of multigraphs
    # with loops and parallel edges, without ports for f-factors and with
    # ports on a parity chain for interval factors
    nx = pytest.importorskip("networkx")
    gadgets = []
    real = factors.perfect_matching

    def spy(n, edges):
        gadgets.append((n, list(edges)))
        return real(n, edges)

    monkeypatch.setattr(factors, "perfect_matching", spy)
    rng = random.Random(43)
    while len(gadgets) < 150:
        G = _multigraph_with_loops(rng)
        f = {v: rng.randint(0, G.degree(v)) for v in G.vertices}
        if sum(f.values()) % 2 == 0:
            factors.find_f_factor(G, f)
    rng = random.Random(47)
    while len(gadgets) < 300:
        G = _multigraph_with_loops(rng)
        g, f = {}, {}
        for v in G.vertices:
            a, b = rng.randint(0, G.degree(v)), rng.randint(0, G.degree(v))
            g[v], f[v] = min(a, b), max(a, b)
        factors.find_interval_factor(G, g, f)
    for n, edges in gadgets:
        _check_against_networkx(nx, n, edges)
