"""Blossom matching engine against exhaustive matching enumeration."""
from __future__ import annotations

import itertools
import random
from collections import deque

import pytest

from factorkit import factors, matching
from factorkit.graph import Factor, MultiGraph
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


def _capture_gadgets(monkeypatch) -> list[tuple[int, list[tuple[int, int]]]]:
    """The list that every window gadget handed to the matcher from now on
    is appended to."""
    gadgets = []
    real = factors.perfect_matching

    def spy(n, edges):
        gadgets.append((n, list(edges)))
        return real(n, edges)

    monkeypatch.setattr(factors, "perfect_matching", spy)
    return gadgets


def _count_searches(monkeypatch) -> list[int]:
    """The list that gets one entry per augmenting search from now on: each
    search builds one BFS queue."""
    searches = []

    def counting(*args):
        searches.append(1)
        return deque(*args)

    monkeypatch.setattr(matching, "deque", counting)
    return searches


def _queries_host(n, seed):
    """Random recursive tree on 1..n plus 2n random non-loop edges, with the
    degrees of a random half of its edges as f, so an f-factor exists."""
    rng = random.Random(seed)
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    while len(edges) < 3 * n - 1:
        edges.append(tuple(rng.sample(range(1, n + 1), 2)))
    G = MultiGraph(range(1, n + 1), edges)
    coin = random.Random(seed + 1)
    picked = frozenset(eid for eid in G.edge_ids if coin.random() < 0.5)
    return G, Factor(G, picked).degrees()


def test_factor_gadget_matchings_match_networkx(monkeypatch):
    # the graphs the matcher really sees: window gadgets of multigraphs
    # with loops and parallel edges, without ports for f-factors, with
    # ports on a parity chain for interval factors, with parity windows
    # {g, g + 2} for two-point factors, and a few on hosts of 40 to 80
    # vertices, past the brute-force cap
    nx = pytest.importorskip("networkx")
    gadgets = _capture_gadgets(monkeypatch)
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
    rng = random.Random(53)
    while len(gadgets) < 400:
        G = _multigraph_with_loops(rng)
        g, f = {}, {}
        for v in G.vertices:
            g[v] = rng.randint(0, G.degree(v))
            f[v] = g[v] + 2 if g[v] + 2 <= G.degree(v) and rng.random() < 0.7 else g[v]
        if any(f[v] - g[v] == 2 for v in G.vertices):
            factors.find_two_point_factor(G, g, f)
    big = len(gadgets)
    for n, seed in ((40, 1), (40, 2), (60, 3), (80, 4)):
        G, f = _queries_host(n, seed)
        assert factors.find_f_factor(G, f) is not None
        g = {v: max(0, f[v] - 1) for v in G.vertices}
        assert factors.find_interval_factor(G, g, {v: f[v] + 1 for v in G.vertices}) is not None
        # two more units of degree where there is room: often no factor
        up = [v for v in G.vertices if f[v] < G.degree(v)][:2]
        factors.find_f_factor(G, {**f, **{v: f[v] + 1 for v in up}})
    assert len(gadgets) - big == 12
    assert max(n for n, _ in gadgets) > 500
    for n, edges in gadgets:
        _check_against_networkx(nx, n, edges)


def test_perfect_matching_stops_at_the_first_failed_search(monkeypatch):
    searches = _count_searches(monkeypatch)
    # K_{1,9}: the seed matches the centre, and no search from a leaf
    # augments, so one failed search settles it
    star = [(0, leaf) for leaf in range(1, 10)]
    assert perfect_matching(10, star) is None
    assert len(searches) == 1
    searches.clear()
    assert matching_size(maximum_matching(10, star)) == 1
    assert len(searches) == 8
    # the f-factor gadget of four triangles with three leaves at one
    # corner each: a failed search ends the run before the searches a
    # maximum matching of the same gadget makes
    gadgets = _capture_gadgets(monkeypatch)
    edges = []
    for c in range(1, 25, 6):
        edges += [(c, c + 1), (c + 1, c + 2), (c + 2, c)]
        edges += [(c, c + 3), (c, c + 4), (c, c + 5)]
    G = MultiGraph(range(1, 25), edges)
    searches.clear()
    assert factors.find_f_factor(G, {v: 1 for v in G.vertices}) is None
    stopped = len(searches)
    ((n, gadget),) = gadgets
    searches.clear()
    assert matching_size(maximum_matching(n, gadget)) < n // 2
    assert 0 < stopped < len(searches)


def test_f_factor_gadget_seed_leaves_few_searches(monkeypatch):
    # the seed runs from the highest gadget node down, so the must and
    # slack nodes claim end nodes before any host edge is taken; a seed
    # from node 0 up left about 120 searches on this host
    G, f = _queries_host(80, 0)
    searches = _count_searches(monkeypatch)
    assert factors.find_f_factor(G, f) is not None
    assert 0 < len(searches) <= 60
