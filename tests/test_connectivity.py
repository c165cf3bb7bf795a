"""Connectivity layer against independent brute-force oracles.

The tree packer is checked against the Nash-Williams/Tutte partition
bound (exhaustive over set partitions), edge connectivity against all
2^(n-1) cuts and past them against networkx's Stoer-Wagner, and the
bipartite index against an exhaustive max-cut and, up to 20 vertices,
against a Gray-code sweep over all 2^(n-1) bipartitions.  Toughness is
checked against brute force and, up to 14 vertices, against the sweep
over all 2^n cut sets, and against closed forms up to its cap.
"""
from __future__ import annotations

import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction

import pytest

import factorkit
from factorkit import connectivity
from factorkit.connectivity import (
    PackingRefusal,
    TreePacking,
    _ForestState,
    _find_structure,
    _flip_witness,
    bipartite_index,
    bipartite_index_bounds,
    bipartite_index_upper,
    edge_connectivity,
    odd_cycle_packing_bound,
    spanning_tree_packing,
    toughness,
)
from factorkit.errors import SizeRefusal
from factorkit.generators import GenSpec, gen_tree_connected
from factorkit.graph import Bipartition, Factor, MultiGraph


def random_multigraph(rng, n_lo=2, n_hi=6, max_edges=12, loops=False):
    n = rng.randint(n_lo, n_hi)
    verts = list(range(1, n + 1))
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        if loops and rng.random() < 0.1:
            v = rng.choice(verts)
            edges.append((v, v))
        else:
            u, v = rng.sample(verts, 2)
            edges.append((u, v))
    return MultiGraph(verts, edges)


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i, part in enumerate(smaller):
            yield smaller[:i] + [part + [first]] + smaller[i + 1:]
        yield [[first]] + smaller


def packing_bound_holds(G, m):
    # Tutte/Nash-Williams: m spanning trees pack iff every partition P
    # has at least m(|P| - 1) cross edges
    verts = list(G.vertices)
    for partition in set_partitions(verts):
        if len(partition) < 2:
            continue
        block = {}
        for i, part in enumerate(partition):
            for v in part:
                block[v] = i
        cross = sum(1 for _, u, v in G.edges if u != v and block[u] != block[v])
        if cross < m * (len(partition) - 1):
            return False
    return True


def brute_edge_connectivity(G):
    if not G.is_connected():
        return 0
    verts = list(G.vertices)
    if len(verts) == 1:
        return float("inf")
    best = None
    anchor = verts[0]
    rest = verts[1:]
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            side = {anchor, *combo}
            if len(side) == len(verts):
                continue
            cut = sum(
                1 for _, u, v in G.edges if u != v and (u in side) != (v in side)
            )
            best = cut if best is None else min(best, cut)
    return best


def brute_bipartite_index(G):
    verts = list(G.vertices)
    best = G.num_edges
    for r in range(len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            side = set(combo)
            intra = sum(
                1
                for _, u, v in G.edges
                if u == v or (u in side) == (v in side)
            )
            best = min(best, intra)
    return best


def test_packer_agrees_with_partition_bound():
    rng = random.Random(11)
    for _ in range(250):
        G = random_multigraph(rng, n_hi=5, max_edges=14)
        for m in (1, 2, 3):
            result = spanning_tree_packing(G, m, seed=rng.randrange(2**32))
            expected = packing_bound_holds(G, m)
            if expected:
                assert not isinstance(result, PackingRefusal), (G.edges, m)
                assert result.verify()
                assert len(result.trees) == m
            else:
                assert isinstance(result, PackingRefusal), (G.edges, m)
                assert result.verify()
                assert result.cross_edges < result.bound


def test_every_packer_answer_verifies():
    # loops and parallel edges on up to 7 vertices, disconnected hosts too
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def hosts(draw):
        n = draw(st.integers(1, 7))
        ends = st.integers(1, n)
        pairs = draw(st.lists(st.tuples(ends, ends), max_size=24))
        return MultiGraph(range(1, n + 1), pairs)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(hosts(), st.integers(0, 4), st.none() | st.integers(0, 2**32 - 1))
    def check(G, m, seed):
        result = spanning_tree_packing(G, m, seed=seed)
        assert isinstance(result, TreePacking) == packing_bound_holds(G, m)
        assert result.verify()
        assert result.m == m
        if isinstance(result, PackingRefusal):
            # every final forest spans every part: the packer's skip rule
            for part in result.parts:
                inside = G.without_vertices(G.vertex_set - part)
                assert isinstance(spanning_tree_packing(inside, m), TreePacking)

    check()


def test_packing_trees_are_disjoint_spanning_trees():
    rng = random.Random(3)
    for _ in range(60):
        G = random_multigraph(rng, n_lo=3, n_hi=6, max_edges=18)
        result = spanning_tree_packing(G, 2, seed=7)
        if isinstance(result, PackingRefusal):
            continue
        seen = set()
        for tree in result.trees:
            assert len(tree.edge_ids & seen) == 0
            seen |= tree.edge_ids
            T = tree.as_graph()
            assert T.is_connected() and tree.num_edges == G.num_vertices - 1


def _bfs_path(forest, a, b):
    """Edge ids of the a-b path in the forest {eid: (u, v)}, from b towards
    a, by a plain BFS from a; None when b is out of reach."""
    adj = {}
    for eid, (u, v) in forest.items():
        adj.setdefault(u, []).append((eid, v))
        adj.setdefault(v, []).append((eid, u))
    prev = {a: None}
    q = deque([a])
    while q:
        x = q.popleft()
        for eid, w in adj.get(x, ()):
            if w not in prev:
                prev[w] = (eid, x)
                q.append(w)
    if b not in prev:
        return None
    path = []
    while b != a:
        eid, b = prev[b]
        path.append(eid)
    return path


def test_tree_packing_verify_rejects_non_trees():
    # K4 plus a loop at 1; every candidate tree has n - 1 = 3 edges
    G = MultiGraph(
        [1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4), (1, 1)]
    )
    ids = {frozenset(G.endpoints(eid)): eid for eid in G.edge_ids}

    def packing(*trees):
        return TreePacking(
            G, tuple(Factor(G, frozenset(ids[frozenset(e)] for e in t)) for t in trees)
        )

    assert packing([(1, 2), (2, 3), (3, 4)], [(1, 3), (2, 4), (1, 4)]).verify()
    assert not packing([(1, 2), (2, 3), (1, 3)]).verify()  # cycle, 4 left out
    assert not packing([(1, 2), (2, 3), (1, 1)]).verify()  # a loop
    assert not packing([(1, 2), (2, 3), (3, 4)], [(1, 2), (2, 4), (1, 4)]).verify()
    assert not packing([(1, 2), (2, 3)]).verify()
    # a spanning tree of a copy of G: same vertices, edges and ids, but
    # its Factor lives on the copy, not on the packing's host
    twin = MultiGraph(G.vertices, G.edges)
    stray = Factor(twin, frozenset(ids[frozenset(e)] for e in [(1, 3), (2, 4), (1, 4)]))
    assert TreePacking(twin, (stray,)).verify()
    assert not TreePacking(G, (packing([(1, 2), (2, 3), (3, 4)]).trees[0], stray)).verify()
    one = MultiGraph([5], [(5, 5)])
    assert TreePacking(one, (Factor(one, frozenset()),) * 2).verify()
    assert not TreePacking(one, (Factor(one, one.edge_ids),)).verify()


def test_forest_state_paths_match_bfs():
    # random adds and removes; after each step the rooted forests answer
    # every path query from sampled sources as a BFS over the edge list does
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(2, 60)
        m = rng.randint(1, 4)
        state = _ForestState(n, m)
        forests = [{} for _ in range(m)]
        for eid in range(3 * n):
            fi = rng.randrange(m)
            forest = forests[fi]
            if forest and rng.random() < 0.35:
                old = rng.choice(sorted(forest))
                state.remove(fi, old, *forest.pop(old))
            else:
                u, v = rng.sample(range(n), 2)
                if _bfs_path(forest, u, v) is None:
                    state.add(fi, eid, u, v)
                    forest[eid] = (u, v)
                else:
                    with pytest.raises(AssertionError):
                        state.add(fi, eid, u, v)
            assert state.members[fi] == set(forest)
            for a in rng.sample(range(n), min(n, 4)):
                for b in range(n):
                    assert state.path(fi, a, b) == _bfs_path(forest, a, b)


def _digest(packing):
    trees = [sorted(t.edge_ids) for t in packing.trees]
    return hashlib.sha256(repr(trees).encode()).hexdigest()[:16]


def _bipartite_host(n):
    return gen_tree_connected(
        GenSpec(n=n, trees=4, extra_edges=n // 4, bipartite=True, seed=7)
    )


def _pinned_packings():
    """(host, m, seed, digest of the trees) for the pinned packings."""
    for n, trees, digest in (
        (40, 4, "e8e112e56b62e2df"),
        (40, 8, "ee24c7ec17487749"),
        (80, 4, "9c07d2c2012f1c00"),
    ):
        G = gen_tree_connected(GenSpec(n=n, trees=trees, extra_edges=n, seed=3))
        yield G, trees, 7, digest
    # the bench's bipartite host shape at scale, shuffled and in edge order
    for n, seed, digest in (
        (128, 3, "6c07560727d8f5b3"),
        (256, 3, "32beb4d24c730ac9"),
        (128, None, "7cb04e4f18d4cc5d"),
    ):
        yield _bipartite_host(n), 4, seed, digest


def _two_halves_host():
    """Two 4-tree-connected halves joined by 3 edges; enough edges overall
    that the packer runs its full augmentation before it refuses."""
    halves = [
        gen_tree_connected(GenSpec(n=10, trees=4, extra_edges=3, seed=s))
        for s in (1, 2)
    ]
    edges = [
        (u + 10 * j, v + 10 * j) for j, H in enumerate(halves) for _, u, v in H.edges
    ]
    return MultiGraph(range(1, 21), edges + [(1, 11), (2, 12), (3, 13)])


def test_packer_returns_the_pinned_trees_and_refusal():
    # tree edge-id sets, in order, as the packer chose them when it found
    # paths by BFS; a faster path structure must not change the trees
    for G, m, seed, digest in _pinned_packings():
        packing = spanning_tree_packing(G, m, seed=seed)
        assert isinstance(packing, TreePacking) and packing.verify()
        assert _digest(packing) == digest
    G = _two_halves_host()
    assert G.num_edges >= 4 * 19
    refusal = spanning_tree_packing(G, 4, seed=7)
    assert isinstance(refusal, PackingRefusal) and refusal.verify()
    assert refusal.parts == (frozenset(range(1, 11)), frozenset(range(11, 21)))
    assert refusal.cross_edges == 3


def test_packer_searches_no_edge_inside_a_saturated_part(monkeypatch):
    # each search builds one deque; once a search fails inside a half, no
    # later edge inside that half is searched, and the refusal searches
    # nothing again (searching every failed edge makes 12 searches here)
    searches = []

    def counted(*args):
        searches.append(args)
        return deque(*args)

    monkeypatch.setattr(connectivity, "deque", counted)
    refusal = spanning_tree_packing(_two_halves_host(), 4, seed=7)
    assert len(searches) == 8
    assert refusal.parts == (frozenset(range(1, 11)), frozenset(range(11, 21)))
    assert refusal.cross_edges == 3


def _block_hosts(count, seed):
    """Dense random blocks of 1-7 vertices joined by a few random edges."""
    rng = random.Random(seed)
    for _ in range(count):
        verts, edges = [], []
        for _ in range(rng.randint(2, 6)):
            block = list(range(len(verts) + 1, len(verts) + rng.randint(1, 7) + 1))
            verts += block
            if len(block) > 1:
                size = rng.randint(1, 9) * len(block)
                edges += [tuple(rng.sample(block, 2)) for _ in range(size)]
        edges += [(rng.choice(verts), rng.choice(verts)) for _ in range(rng.randint(0, 6))]
        yield MultiGraph(verts, edges), rng.randint(0, 2**32 - 1)


def test_packer_refusals_keep_their_pinned_parts_and_counts():
    # the parts and crossing counts of many-part refusals, pinned: how the
    # packer finds its parts may change, the parts it reports may not
    answers, parts = [], 0
    for G, seed in _block_hosts(150, seed=2024):
        for m in range(1, 9):
            refusal = spanning_tree_packing(G, m, seed=seed)
            if isinstance(refusal, PackingRefusal):
                parts += len(refusal.parts)
                answers.append(([sorted(p) for p in refusal.parts], refusal.cross_edges))
    assert (len(answers), parts) == (1134, 11797)
    assert hashlib.sha256(repr(answers).encode()).hexdigest()[:16] == "c3cf819fd0e2f2eb"


def test_packing_refusal_verify_rejects_tampered_parts():
    # a doubled triangle is 2-tree-connected; an empty part would raise the
    # bound to m with no crossing edge
    triangle = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)] * 2)
    assert not PackingRefusal(triangle, (frozenset({1, 2, 3}), frozenset()), 0, 2).verify()
    G = _two_halves_host()
    halves = (frozenset(range(1, 11)), frozenset(range(11, 21)))
    assert PackingRefusal(G, halves, 3, 4).verify()
    assert not PackingRefusal(G, halves + (frozenset(),), 3, 4).verify()
    # the two parts merged into one, with the old count and with the recount
    assert not PackingRefusal(G, (halves[0] | halves[1],), 3, 4).verify()
    assert not PackingRefusal(G, (halves[0] | halves[1],), 0, 4).verify()
    # a cross count off by one either way
    assert not PackingRefusal(G, halves, 2, 4).verify()
    assert not PackingRefusal(G, halves, 4, 4).verify()


def test_packer_certifies_each_answer_once(monkeypatch):
    # the forest check is the answer's own check: one verify() per call
    calls = []
    for cls in (TreePacking, PackingRefusal):
        def verify(self, real=cls.verify):
            calls.append(type(self))
            return real(self)

        monkeypatch.setattr(cls, "verify", verify)
    cases = [(G, m, seed) for G, m, seed, _ in _pinned_packings()]
    for G, m, seed in cases + [(_two_halves_host(), 4, 7)]:
        calls.clear()
        result = spanning_tree_packing(G, m, seed=seed)
        assert calls == [type(result)]


def test_packer_rejects_a_forest_that_recorded_a_wrong_edge(monkeypatch):
    # one add records a member of its forest in place of the new edge; the
    # links and root labels stay right, so only the check of the trees sees it
    real_add = _ForestState.add
    spoiled = []

    def add(self, fi, eid, u, v):
        real_add(self, fi, eid, u, v)
        others = self.members[fi] - {eid}
        if others and not spoiled:
            self.members[fi].discard(eid)
            spoiled.append(min(others))

    monkeypatch.setattr(_ForestState, "add", add)
    G = gen_tree_connected(GenSpec(n=40, trees=4, extra_edges=40, seed=3))
    with pytest.raises(AssertionError, match="invalid packing"):
        spanning_tree_packing(G, 4, seed=7)
    assert spoiled


def test_packer_stops_searching_once_its_trees_span(monkeypatch):
    # m(n - 1) placed edges are m spanning trees: no search can add one more
    real_path = _ForestState.path

    def path(self, fi, a, b):
        n = len(self.root[0])
        assert sum(map(len, self.members)) < self.m * (n - 1)
        return real_path(self, fi, a, b)

    monkeypatch.setattr(_ForestState, "path", path)
    hosts = [(_bipartite_host(256), 4, 3)] + [
        (gen_tree_connected(GenSpec(n=n, trees=m, extra_edges=n, seed=3)), m, 7)
        for n, m in ((40, 4), (40, 8), (80, 4))
    ]
    for G, m, seed in hosts:
        assert isinstance(spanning_tree_packing(G, m, seed=seed), TreePacking)


def test_packer_tests_each_edge_for_a_free_forest_when_it_labels_it(monkeypatch):
    # a search ends at the first labeled edge whose ends some forest's
    # trees separate, without probing the rest of its BFS level
    real_path = _ForestState.path
    probes = []

    def path(self, fi, a, b):
        probes.append(fi)
        return real_path(self, fi, a, b)

    monkeypatch.setattr(_ForestState, "path", path)
    assert isinstance(spanning_tree_packing(_bipartite_host(128), 4, seed=3), TreePacking)
    assert len(probes) <= 325


def test_single_vertex_packs_any_m():
    G = MultiGraph([1], [(1, 1)])
    result = spanning_tree_packing(G, 5)
    assert not isinstance(result, PackingRefusal)
    assert len(result.trees) == 5
    assert all(t.num_edges == 0 for t in result.trees)


def test_tree_connectivity_value():
    # the packer's answers are monotone in m, so they name one tree
    # connectivity tc: it packs every m <= tc and refuses every m > tc
    rng = random.Random(19)
    for _ in range(40):
        G = random_multigraph(rng, n_hi=5, max_edges=12)
        packs = [
            isinstance(spanning_tree_packing(G, m), TreePacking)
            for m in range(1, 6)
        ]
        tc = packs.count(True)
        assert packs == [m <= tc for m in range(1, 6)], G.edges
        assert all(packing_bound_holds(G, m) == (m <= tc) for m in range(1, 6))


def test_edge_connectivity_matches_brute_cuts():
    rng = random.Random(23)
    for _ in range(150):
        G = random_multigraph(rng, n_hi=6, max_edges=14, loops=True)
        assert edge_connectivity(G) == brute_edge_connectivity(G)


def _networkx_edge_connectivity(nx, G):
    """Stoer-Wagner on the parallel edges of G as weights of one simple
    edge; 0 for a disconnected host and infinity for a single vertex."""
    if G.num_vertices <= 1:
        return float("inf")
    H = nx.Graph()
    H.add_nodes_from(G.vertices)
    for _, u, v in G.edges:
        if u != v:
            w = H[u][v]["weight"] + 1 if H.has_edge(u, v) else 1
            H.add_edge(u, v, weight=w)
    return nx.stoer_wagner(H)[0] if nx.is_connected(H) else 0


def _cycle_power(n, k):
    """C_n^k: each vertex of an n-cycle joined to the k next ones."""
    return MultiGraph(
        range(1, n + 1), [(v, (v + d - 1) % n + 1) for v in range(1, n + 1) for d in range(1, k + 1)]
    )


def _complete(n, times=1, offset=0):
    return [(u + offset, v + offset) for u in range(1, n + 1) for v in range(u + 1, n + 1)] * times


def test_edge_connectivity_matches_networkx_stoer_wagner():
    # past the brute-force cut oracle: multigraphs with loops up to 40
    # vertices, the parallel edges as weights of one simple edge
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(2, 40)
        verts = list(range(1, n + 1))
        # most hosts get a random spanning tree, so that most are connected
        edges = [(v, rng.randint(1, v - 1)) for v in verts[1:] if rng.random() < 0.9]
        for _ in range(rng.randint(0, 5 * n)):
            if rng.random() < 0.1:
                v = rng.choice(verts)
                edges.append((v, v))
            else:
                edges.append(tuple(rng.sample(verts, 2)))
        G = MultiGraph(verts, edges)
        assert edge_connectivity(G) == _networkx_edge_connectivity(nx, G), G.edges
    # hosts whose cuts are found by contracting many pairs at once
    shapes = {
        f"{n} vertices, 8 trees": gen_tree_connected(GenSpec(n=n, trees=8, extra_edges=16, seed=1))
        for n in (64, 128)
    }
    shapes["two 3xK8 joined by 2 edges"] = MultiGraph(
        range(1, 17), _complete(8, 3) + _complete(8, 3, offset=8) + [(1, 9), (2, 10)]
    )
    # minimum degree 2, and each edge has an end of degree 2, but the path
    # between the two 5-cycles is a chain of bridges
    shapes["C_5 - P_3 - C_5"] = MultiGraph(
        range(1, 13),
        [(v, v % 5 + 1) for v in range(1, 6)]
        + [(v, (v - 5) % 5 + 6) for v in range(6, 11)]
        + [(1, 11), (11, 12), (12, 6)],
    )
    for n in (3, 4, 5, 17, 64, 200):
        shapes[f"C_{n}"] = _cycle_power(n, 1)
        shapes[f"C_{n}^2"] = _cycle_power(n, 2)
    for n in (2, 3, 17, 64, 200):
        shapes[f"P_{n}"] = MultiGraph(range(1, n + 1), [(v, v + 1) for v in range(1, n)])
    shapes["two K4s"] = MultiGraph(range(1, 9), _complete(4, 2) + _complete(4, offset=4))
    shapes["K6 and a lone vertex"] = MultiGraph(range(1, 8), _complete(6, 3))
    shapes["C_64 and P_64"] = MultiGraph(
        range(1, 129),
        [(v, v % 64 + 1) for v in range(1, 65)] + [(v, v + 1) for v in range(65, 128)],
    )
    for n in (1, 2, 6):
        shapes[f"{n} vertices with loops only"] = MultiGraph(
            range(1, n + 1), [(v, v) for v in range(1, n + 1)] * 2
        )
    for name, G in shapes.items():
        assert edge_connectivity(G) == _networkx_edge_connectivity(nx, G), name


def test_edge_connectivity_needs_few_phases(monkeypatch):
    # each maximum-adjacency phase heapifies once; Stoer-Wagner would run
    # n - 1 phases: 63 on the tree host and 199 on the cycle
    phases = 0
    real = connectivity.heapq.heapify

    def counted(heap):
        nonlocal phases
        phases += 1
        real(heap)

    host = gen_tree_connected(GenSpec(n=64, trees=8, extra_edges=16, seed=1))
    cycle = _cycle_power(200, 1)
    monkeypatch.setattr(connectivity.heapq, "heapify", counted)
    assert edge_connectivity(host) == 11
    assert phases < 10
    phases = 0
    assert edge_connectivity(cycle) == 2
    assert phases <= 2


def test_bipartite_index_matches_brute_max_cut():
    rng = random.Random(29)
    for _ in range(150):
        G = random_multigraph(rng, n_hi=7, max_edges=12, loops=True)
        value, P = bipartite_index(G)
        assert value == brute_bipartite_index(G)
        intra = sum(
            1
            for _, u, v in G.edges
            if u == v or (u in P.X) == (v in P.X)
        )
        assert intra == value


def first_minimiser_by_mask(G):
    """(intra, Y) of the first side mask, in increasing order, with the
    fewest intra edges: the first vertex stays in X and bit i - 1 puts
    vertex i in Y.  Loops are intra under every mask."""
    verts = list(G.vertices)
    best = None
    for mask in range(1 << (len(verts) - 1)):
        Y = frozenset(v for i, v in enumerate(verts[1:]) if mask >> i & 1)
        intra = sum(1 for _, u, v in G.edges if (u in Y) == (v in Y))
        if best is None or intra < best[0]:
            best = (intra, Y)
    return best


def test_bipartite_index_is_the_first_minimiser_in_mask_order():
    rng = random.Random(37)
    for _ in range(150):
        n = rng.randint(1, 10)
        verts = list(range(1, n + 1))
        # few distinct pairs, so parallel edges and tied minimisers are common
        pairs = [tuple(rng.sample(verts, 2)) for _ in range(n)] if n > 1 else [(1, 1)]
        edges = [rng.choice(pairs) for _ in range(rng.randint(0, 3 * n))]
        edges += [(v, v) for v in rng.sample(verts, rng.randint(0, min(2, n)))]
        G = MultiGraph(verts, edges)
        value, P = bipartite_index(G)
        assert (value, P.Y) == first_minimiser_by_mask(G), edges
        assert P.X | P.Y == set(verts) and not P.X & P.Y
        assert bipartite_index_upper(G, seed=3) == (value, P)
        assert bipartite_index_bounds(G, seed=3) == (value, value, P)


def gray_code_bipartite_index(G):
    """bi(G) and the first minimising side mask's bipartition, by the
    Gray-code sweep over all 2^(n-1) side masks that factorkit ran before
    its branch and bound.

    The first vertex stays in X, and bit i - 1 of a side mask puts vertex i
    in Y.  Each step flips one vertex and moves the intra count by the
    flipped vertex's neighbours on its new side minus those on its old
    side; its neighbour count on side Y is read from two per-vertex lookup
    tables, one for each half of the mask, which count parallel edges with
    their multiplicity.  Loops are never cut, so they are added once at
    the end.
    """
    n = G.num_vertices
    verts = list(G.vertices)
    loops = sum(1 for _, u, v in G.edges if u == v)
    if n <= 1:
        return G.num_edges, Bipartition(frozenset(verts), frozenset())
    idx = {v: i for i, v in enumerate(verts)}
    bits = n - 1
    # weight[i][b]: edges between vertex i and the vertex of bit b
    weight = [[0] * bits for _ in range(n)]
    degree = [0] * n
    for _, u, v in G.edges:
        if u != v:
            i, j = idx[u], idx[v]
            if j:
                weight[i][j - 1] += 1
            if i:
                weight[j][i - 1] += 1
            degree[i] += 1
            degree[j] += 1
    half = bits // 2
    low = (1 << half) - 1
    lo = [_subset_sums(weight[b + 1][:half]) for b in range(bits)]
    hi = [_subset_sums(weight[b + 1][half:]) for b in range(bits)]
    deg = degree[1:]
    # mask 0 puts every vertex in X, so every non-loop edge is intra
    intra = best = sum(degree) // 2
    mask = best_mask = 0
    for k in range(1, 1 << bits):
        b = (k & -k).bit_length() - 1
        in_y = lo[b][mask & low] + hi[b][mask >> half]
        bit = 1 << b
        if mask & bit:
            intra += deg[b] - 2 * in_y
        else:
            intra += 2 * in_y - deg[b]
        mask ^= bit
        if intra <= best and (intra < best or mask < best_mask):
            best, best_mask = intra, mask
    Y = frozenset(verts[b + 1] for b in range(bits) if best_mask >> b & 1)
    return best + loops, Bipartition(frozenset(verts) - Y, Y)


def _subset_sums(weights):
    """sums[m]: the total of weights[i] over the bits i set in m."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def _random_cubic(n, rng):
    """The edges of a uniformly drawn simple 3-regular graph on 1..n: random
    pairings of three stubs per vertex, redrawn until one is simple."""
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if all(u != v for u, v in pairs) and len({frozenset(p) for p in pairs}) == len(pairs):
            return pairs


def test_bipartite_index_matches_the_gray_code_sweep():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(12, 18)
        verts = list(range(1, n + 1))
        # few distinct pairs, so parallel edges and tied minimisers are common
        pairs = [tuple(rng.sample(verts, 2)) for _ in range(rng.randint(n // 2, 3 * n))]
        edges = [rng.choice(pairs) for _ in range(rng.randint(n, 4 * n))]
        edges += [(v, v) for v in rng.sample(verts, rng.randint(0, 3))]
        G = MultiGraph(verts, edges)
        value, P = bipartite_index(G)
        expect, Q = gray_code_bipartite_index(G)
        assert (value, P.Y) == (expect, Q.Y), edges
    # shapes at the exact cap of 20 vertices, from sparse to complete
    verts = list(range(1, 21))
    shapes = {
        "K20": (20, _complete(20)),
        "doubled K16": (16, _complete(16, 2)),
        "G(20, 1/2)": (20, [(u, v) for u, v in _complete(20) if rng.random() < 0.5]),
        "random cubic": (20, _random_cubic(20, rng)),
        "2n random multi-edges": (20, [tuple(rng.sample(verts, 2)) for _ in range(40)]),
        "4n random multi-edges": (20, [tuple(rng.sample(verts, 2)) for _ in range(80)]),
    }
    for name, (n, edges) in shapes.items():
        G = MultiGraph(range(1, n + 1), edges)
        value, P = bipartite_index(G)
        expect, Q = gray_code_bipartite_index(G)
        assert (value, P.Y) == (expect, Q.Y), name


def test_engines_leave_no_reference_cycles():
    # the engines hold no self-referencing closures or frames, so one call
    # leaves nothing for the cycle collector
    rng = random.Random(53)
    G = MultiGraph(range(1, 21), [tuple(rng.sample(range(1, 21), 2)) for _ in range(60)])
    gc.disable()
    try:
        gc.collect()
        edge_connectivity(G)
        assert gc.collect() == 0
        bipartite_index(G)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bipartite_index_runs_without_numpy():
    src = os.path.dirname(os.path.dirname(factorkit.__file__))
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from factorkit import MultiGraph, bipartite_index, verify_theorem\n"
        "ring = [(v, v % 16 + 1) for v in range(1, 17)] + [(1, 3)]\n"
        "value, _ = bipartite_index(MultiGraph(range(1, 17), ring))\n"
        "assert value == 1, value\n"
        "report = verify_theorem('bi-large', 3)\n"
        "assert report.passed, report.render()\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_bipartite_index_refuses_large_and_bounds_bracket():
    verts = list(range(1, 25))
    rng = random.Random(31)
    edges = [tuple(rng.sample(verts, 2)) for _ in range(40)]
    G = MultiGraph(verts, edges)
    with pytest.raises(SizeRefusal):
        bipartite_index(G)
    low, high, P = bipartite_index_bounds(G, seed=1)
    assert 0 <= low <= high <= G.num_edges
    intra = sum(1 for _, u, v in G.edges if u == v or (u in P.X) == (v in P.X))
    assert intra == high


def _witness_hosts(st, max_n, bipartite):
    """Multigraphs on 1..n, n <= max_n, loops and all, or with bipartite
    set only edges across a drawn side of each vertex."""

    @st.composite
    def hosts(draw):
        n = draw(st.integers(1, max_n))
        ends = st.integers(1, n)
        pairs = draw(st.lists(st.tuples(ends, ends), max_size=4 * n))
        if bipartite:
            side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            pairs = [(u, v) for u, v in pairs if side[u - 1] != side[v - 1]]
        return MultiGraph(range(1, n + 1), pairs)

    return hosts()


def test_flip_witness_properly_colours_bipartite_hosts():
    # disconnected and past the exact cap too: intra 0 is exact there
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(_witness_hosts(hypothesis.strategies, 30, bipartite=True))
    def check(G):
        P = _flip_witness(G)
        P.validate_for(G)
        assert all((u in P.X) != (v in P.X) for _, u, v in G.edges)

    check()


def test_no_vertex_of_the_flip_witness_has_more_same_side_neighbours():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(_witness_hosts(hypothesis.strategies, 30, bipartite=False))
    def check(G):
        P = _flip_witness(G)
        P.validate_for(G)
        for v in G.vertices:
            ends = [w for _, w in G.incident(v) if w != v]
            same = sum(1 for w in ends if (w in P.X) == (v in P.X))
            assert 2 * same <= len(ends)

    check()


def test_structure_search_answers_wherever_the_exact_witness_passes():
    # up to the exact cap, the search tries the index witness when the
    # flip witness fails, so it answers on every host where the index
    # witness passes the check the search makes; what it returns passes it
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    windows = [None, lambda Q: 1 in Q.X, lambda Q: len(Q.X) >= len(Q.Y)]
    passed = []

    def passes(G, P, need, intra_ok, window_ok):
        cross = G.subgraph_of_edges(frozenset(
            eid for eid, u, v in G.edges if (u in P.X) != (v in P.X)))
        return (
            P.X and P.Y
            and (window_ok is None or window_ok(P) or window_ok(P.swapped()))
            and intra_ok(G.num_edges - cross.num_edges)
            and isinstance(spanning_tree_packing(cross, need), TreePacking)
        )

    @st.composite
    def near_bipartite(draw):
        # cross edges of a drawn side split, each taken c times, plus a few
        # edges anywhere, so that cross factors often pack
        n = draw(st.integers(2, connectivity._EXACT_CAP))
        ends = st.integers(1, n)
        side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        c = draw(st.integers(1, 3))
        pairs = draw(st.lists(st.tuples(ends, ends), min_size=3 * n, max_size=6 * n))
        pairs = [(u, v) for u, v in pairs if side[u - 1] != side[v - 1]] * c
        pairs += draw(st.lists(st.tuples(ends, ends), max_size=n))
        return MultiGraph(range(1, n + 1), pairs)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        near_bipartite(),
        st.integers(1, 3), st.integers(0, 4), st.booleans(), st.sampled_from(windows),
    )
    def check(G, need, bound, at_most, window_ok):
        intra_ok = (lambda i: i <= bound) if at_most else (lambda i: i >= bound)
        found = _find_structure(G, need, intra_ok, 0, window_ok)
        if passes(G, bipartite_index_upper(G)[1], need, intra_ok, window_ok):
            passed.append(G)
            assert found is not None
        if found is not None:
            Q, packing = found
            assert passes(G, Q, need, intra_ok, window_ok)
            assert window_ok is None or window_ok(Q)
            assert packing.m == need and packing.verify()

    check()
    assert passed


def test_odd_cycle_packing_bound_on_doubled_triangle():
    edges = [(1, 2), (2, 3), (3, 1)] * 2
    G = MultiGraph(range(1, 4), edges)
    value, P = bipartite_index(G)
    assert value == 2
    ok, cycles = odd_cycle_packing_bound(G, P, 2)
    assert ok
    assert len(cycles) == 2
    used = [eid for cyc in cycles for eid in cyc]
    assert len(used) == len(set(used))
    for cyc in cycles:
        assert len(cyc) % 2 == 1


def test_odd_cycle_packing_bound_refuses_disconnected_cross():
    edges = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]
    G = MultiGraph(range(1, 7), edges)
    value, P = bipartite_index(G)
    assert value == 2
    ok, cycles = odd_cycle_packing_bound(G, P, 2)
    assert not ok and cycles is None


def test_toughness_hand_values():
    c5 = MultiGraph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert toughness(c5).value == Fraction(1)
    star = MultiGraph(range(1, 5), [(1, 2), (1, 3), (1, 4)])
    assert toughness(star).value == Fraction(1, 3)
    k4 = MultiGraph(range(1, 5), [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    # complete graphs never disconnect: sentinel value
    assert toughness(k4).value is None


def test_toughness_witness_is_a_worst_cutset():
    c5 = MultiGraph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    result = toughness(c5)
    S = set(result.witness)
    rest = c5.without_vertices(S)
    comps = len(rest.components())
    assert comps >= 2
    assert Fraction(len(S), comps) == result.value


def first_toughness_minimiser(G):
    """(|S| / comps, S) of the first vertex set S, by increasing mask over
    G.vertices, that minimises |S| / comps over the S leaving comps >= 2
    components; (None, None) when no S does."""
    verts = list(G.vertices)
    best = (None, None)
    for mask in range(1 << len(verts)):
        S = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
        if len(S) == len(verts):
            continue
        comps = len(G.without_vertices(S).components())
        if comps >= 2 and (best[0] is None or Fraction(len(S), comps) < best[0]):
            best = (Fraction(len(S), comps), S)
    return best


def test_toughness_is_the_first_minimiser_in_mask_order():
    rng = random.Random(47)
    kinds = {"complete": 0, "disconnected": 0, "other": 0}
    for trial in range(150):
        n = rng.randint(1, 10)
        verts = list(range(1, n + 1))
        if trial % 10 == 0:
            edges = [(u, v) for u in verts for v in verts if u < v]
        else:
            # few distinct pairs, so parallel edges and ties are common
            pairs = [tuple(rng.sample(verts, 2)) for _ in range(n)] if n > 1 else []
            edges = [rng.choice(pairs) for _ in range(rng.randint(0, 2 * n))] if pairs else []
        edges += [(v, v) for v in rng.sample(verts, rng.randint(0, min(2, n)))]
        G = MultiGraph(verts, edges)
        result = toughness(G)
        assert (result.value, result.witness) == first_toughness_minimiser(G), edges
        if result.value is None:
            kinds["complete"] += 1
        elif result.value == 0:
            kinds["disconnected"] += 1
        else:
            kinds["other"] += 1
    assert min(kinds.values()) >= 15, kinds


def test_toughness_skips_cut_sets_that_cannot_win(monkeypatch):
    # G - S has at most n - |S| components; once 1/2 is found on the path,
    # every S with |S| / (14 - |S|) >= 1/2 is hopeless: 1,471 of the
    # 16,383 proper subsets still need their components counted
    calls = 0
    real = connectivity._mask_components

    def counted(rest, adj):
        nonlocal calls
        calls += 1
        return real(rest, adj)

    monkeypatch.setattr(connectivity, "_mask_components", counted)
    path = MultiGraph(range(1, 15), [(v, v + 1) for v in range(1, 14)])
    result = toughness(path)
    assert result.value == Fraction(1, 2)
    assert result.witness == frozenset({2})
    assert calls < 2000


def _components(rest, adj):
    """Number of components of the vertex set `rest`, with adj[i] the
    neighbour mask of vertex i."""
    count = 0
    left = rest
    while left:
        comp, frontier = 0, left & -left
        while frontier:
            comp |= frontier
            nxt = 0
            bits = frontier
            while bits:
                b = bits & -bits
                bits ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & rest & ~comp
        count += 1
        left &= ~comp
    return count


def full_mask_toughness(G):
    """(value, witness) of the sweep over all 2^n cut sets S by increasing
    mask over G.vertices that `toughness` ran before it skipped by cut-set
    size: an S with |S| / (n - |S|) at or above the best is skipped, and
    only a strictly smaller ratio replaces the best.  (None, None) when no
    S separates."""
    n = G.num_vertices
    verts = list(G.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    for _, u, v in G.edges:
        if u != v:
            adj[idx[u]] |= 1 << idx[v]
            adj[idx[v]] |= 1 << idx[u]
    full = (1 << n) - 1
    best_s = best_c = 0
    best_set = None
    for S in range(1 << n):
        rest = full & ~S
        if rest == 0:
            continue
        s = S.bit_count()
        if best_set is not None and s * best_c >= best_s * (n - s):
            continue
        comps = _components(rest, adj)
        if comps >= 2 and (best_set is None or s * best_c < best_s * comps):
            best_s, best_c, best_set = s, comps, S
    if best_set is None:
        return None, None
    return Fraction(best_s, best_c), frozenset(verts[i] for i in range(n) if best_set >> i & 1)


def queries_host(n, extra, rng):
    """A random recursive tree on 1..n plus `extra` random new vertex pairs
    as edges, the host shape of the benchmark's toughness queries."""
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    seen = {frozenset(e) for e in edges}
    while len(edges) < n - 1 + extra:
        u, v = rng.sample(range(1, n + 1), 2)
        if frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            edges.append((u, v))
    return MultiGraph(range(1, n + 1), edges)


def _multipartite(*sizes):
    """Complete multipartite graph with parts of the given sizes, numbered
    part by part from 1."""
    part = [i for i, a in enumerate(sizes) for _ in range(a)]
    n = len(part)
    return MultiGraph(
        range(1, n + 1),
        [(u + 1, v + 1) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]],
    )


def test_toughness_matches_the_full_mask_sweep():
    rng = random.Random(59)
    hosts = {}
    for trial in range(15):
        n = rng.randint(10, 14)
        hosts[f"queries-shaped {trial}, n={n}"] = queries_host(n, n // 2, rng)
    for n in range(10, 15):
        hosts[f"C_{n}"] = _cycle_power(n, 1)
        hosts[f"C_{n}^2"] = _cycle_power(n, 2)
    for sizes in ((2, 3, 5), (1, 1, 4, 4), (3, 3, 3, 3), (2, 2, 2, 2, 2, 2), (1, 6, 6), (1,) * 11):
        hosts[f"K_{sizes}"] = _multipartite(*sizes)
    for trial in range(6):
        # two or three pieces, each one queries-shaped or a lone vertex
        n = rng.randint(10, 14)
        cuts = sorted(rng.sample(range(2, n + 1), rng.randint(1, 2)))
        edges = []
        for a, b in zip([1] + cuts, cuts + [n + 1]):
            k = b - a  # a piece of two vertices has no room for an extra edge
            piece = queries_host(k, k // 2 if k > 2 else 0, rng)
            edges += [(u + a - 1, v + a - 1) for _, u, v in piece.edges]
        hosts[f"disconnected {trial}, n={n}"] = MultiGraph(range(1, n + 1), edges)
    for trial in range(10):
        # few distinct pairs, so parallel edges and tied minimisers are common
        n = rng.randint(10, 14)
        verts = list(range(1, n + 1))
        pairs = [tuple(rng.sample(verts, 2)) for _ in range(rng.randint(n, 2 * n))]
        edges = [rng.choice(pairs) for _ in range(rng.randint(n, 3 * n))]
        edges += [(v, v) for v in rng.sample(verts, rng.randint(1, 3))]
        hosts[f"multigraph {trial}, n={n}"] = MultiGraph(verts, edges)
    values = set()
    for name, G in hosts.items():
        result = toughness(G)
        assert (result.value, result.witness) == full_mask_toughness(G), name
        values.add(result.value)
    assert {None, Fraction(0)} < values and len(values) >= 6, values


def test_toughness_scans_few_cut_sets(monkeypatch):
    # the full-mask sweep counts components 1,471 times on this host of
    # toughness 1/2; by cut-set size, with the isolated-vertex bound and
    # without the vertices of fewer than two neighbours, ~80 times
    calls = 0
    real = connectivity._mask_components

    def counted(rest, nbr):
        nonlocal calls
        calls += 1
        return real(rest, nbr)

    monkeypatch.setattr(connectivity, "_mask_components", counted)
    G = queries_host(14, 7, random.Random(0))
    result = toughness(G)
    assert (result.value, result.witness) == (Fraction(1, 2), frozenset({4}))
    assert calls <= 300


def _cube(d):
    n = 1 << d
    return MultiGraph(
        range(1, n + 1), [(v + 1, (v ^ 1 << i) + 1) for v in range(n) for i in range(d) if v >> i & 1 == 0]
    )


@pytest.mark.parametrize("n", [12, 13, 14, 15, 16])
def test_toughness_closed_forms_up_to_the_cap(n):
    assert toughness(_cycle_power(n, 1)).value == 1
    star = toughness(MultiGraph(range(1, n + 1), [(1, v) for v in range(2, n + 1)]))
    assert (star.value, star.witness) == (Fraction(1, n - 1), frozenset({1}))
    assert toughness(MultiGraph(range(1, n + 1), _complete(n))).value is None
    for a in range(2, n // 2 + 1):
        if n % a:
            continue
        # r parts of a: the first r - 1 whole parts are the first minimiser
        result = toughness(_multipartite(*[a] * (n // a)))
        assert (result.value, result.witness) == (Fraction(n - a, a), frozenset(range(1, n - a + 1)))
    if n == 16:
        assert toughness(_cube(4)).value == 1
