"""Decomposition lemmas: postconditions re-verified independently."""
from __future__ import annotations

import itertools
import random

import pytest

from factorkit.connectivity import (
    bipartite_index,
    edge_connectivity,
    spanning_tree_packing,
    PackingRefusal,
    TreePacking,
)
from factorkit.decompositions import (
    _carried_packing,
    _eulerian_split,
    _even_closure,
    _keep_bi,
    _split_complement,
    decompose_eulerian,
    parity_forest,
)
from factorkit.errors import HypothesisError, is_unknown
from factorkit.generators import GenSpec, gen_tree_connected
from factorkit.graph import Bipartition, Factor, MultiGraph, induced_bipartite_factor


def _tree_connected(G, m):
    return isinstance(spanning_tree_packing(G, m), TreePacking)


def random_tree(rng, n):
    verts = list(range(1, n + 1))
    edges = []
    for v in verts[1:]:
        edges.append((v, rng.choice(verts[: v - 1])))
    return MultiGraph(verts, edges)


def _doubled(G: MultiGraph) -> MultiGraph:
    pairs = [(u, v) for _, u, v in G.edges]
    return MultiGraph(list(G.vertices), pairs + pairs)


def test_parity_forest_realizes_targets():
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randint(2, 10)
        T = random_tree(rng, n)
        targets = {v: rng.randint(0, 1) for v in T.vertices}
        if sum(targets.values()) % 2 == 1:
            targets[1] ^= 1
        F = parity_forest(Factor(T, frozenset(T.edge_ids)), targets)
        for v in T.vertices:
            assert F.degree(v) % 2 == targets[v] % 2


def test_parity_forest_is_unique():
    # exhaustive check: no other subforest of the tree hits the targets
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(2, 9)
        T = random_tree(rng, n)
        targets = {v: rng.randint(0, 1) for v in T.vertices}
        if sum(targets.values()) % 2 == 1:
            targets[1] ^= 1
        F = parity_forest(Factor(T, frozenset(T.edge_ids)), targets)
        ids = sorted(T.edge_ids)
        matches = []
        for r in range(len(ids) + 1):
            for combo in itertools.combinations(ids, r):
                sub = Factor(T, frozenset(combo))
                if all(sub.degree(v) % 2 == targets[v] % 2 for v in T.vertices):
                    matches.append(frozenset(combo))
        assert matches == [F.edge_ids]


def test_parity_forest_refuses_odd_sum():
    T = MultiGraph([1, 2], [(1, 2)])
    with pytest.raises(HypothesisError) as exc:
        parity_forest(Factor(T, frozenset(T.edge_ids)), {1: 1, 2: 0})
    assert exc.value.hypothesis == "even parity sum"


def test_spanning_eulerian_subgraph():
    # one packed tree closed by the parity forest of a second one
    rng = random.Random(61)
    built = 0
    while built < 40:
        n = rng.randint(3, 6)
        verts = list(range(1, n + 1))
        edges = [tuple(rng.sample(verts, 2)) for _ in range(rng.randint(n, 14))]
        G = MultiGraph(verts, edges)
        packing = spanning_tree_packing(G, 2, seed=built)
        if isinstance(packing, PackingRefusal):
            continue
        built += 1
        F = _even_closure(*packing.trees)
        H = F.as_graph()
        assert H.is_connected()
        assert all(F.degree(v) % 2 == 0 for v in G.vertices)


def test_carried_packing_needs_every_tree_edge_in_its_host():
    G = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (3, 1), (1, 2)])
    packing = spanning_tree_packing(G, 1, seed=0)
    ids = packing.trees[0].edge_ids
    carried = _carried_packing(G.subgraph_of_edges(ids), packing.trees)
    assert carried.m == 1 and carried.verify()
    short = G.subgraph_of_edges(set(G.edge_ids) - {min(ids)})
    with pytest.raises(AssertionError):
        _carried_packing(short, packing.trees)


def test_decompose_eulerian_postconditions():
    rng = random.Random(67)
    done = 0
    while done < 60:
        c = rng.randint(3, 4)
        xs, ys = [1, 2], [3, 4, 5]
        edges = []
        for u in xs:
            for v in ys:
                edges += [(u, v)] * c
        if rng.random() < 0.5:
            edges.append((3, 4))
        G = MultiGraph(xs + ys, edges)
        P = Bipartition(frozenset(xs), frozenset(ys))
        m1, m2 = 1, 1
        try:
            g1, g2 = decompose_eulerian(G, P, m1, m2, seed=done)
        except HypothesisError:
            continue
        done += 1
        # (1) complementary factors
        assert g1.edge_ids | g2.edge_ids == frozenset(G.edge_ids)
        assert g1.edge_ids & g2.edge_ids == frozenset()
        # (2) G1 bipartite with (X, Y) and m1-tree-connected
        H1 = g1.as_graph()
        assert H1.is_bipartite_with(P)
        assert _tree_connected(H1, m1)
        # (3) G2 Eulerian with m2-tree-connected cross factor
        H2 = g2.as_graph()
        assert H2.is_eulerian()
        cross = induced_bipartite_factor(H2, P)
        assert _tree_connected(cross.as_graph(), m2)
        # (4) all intra-part edges land in G2
        for eid, u, v in G.edges:
            same = (u in P.X) == (v in P.X)
            if same:
                assert eid in g2.edge_ids


def test_eulerian_split_refuses_a_packing_short_of_its_trees():
    # a packing one tree short of m1 + m2 + 1 fails the hypothesis that a
    # refusal fails; taken as it came, G2 would carry no tree at all
    xs, ys = [1, 2], [3, 4, 5]
    G = MultiGraph(xs + ys, [(u, v) for u in xs for v in ys] * 4)
    P = Bipartition(frozenset(xs), frozenset(ys))
    cross = induced_bipartite_factor(G, P).as_graph()
    packing = spanning_tree_packing(cross, 2, seed=0)
    assert packing.m == 2
    with pytest.raises(HypothesisError) as exc:
        _eulerian_split(G, P, packing, 1, 1)
    assert exc.value.hypothesis == "(m1+m2+1)-tree-connected cross factor"


def test_keep_bi_keeps_intra_edges():
    # the shape tree_connected_gf passes at k = 2, m = 1: m1 = m + m0,
    # m2 = 3k^2, k0 = k - 1, on the 26 trees of G its gate packed
    m1, m2, k0 = 1, 12, 1
    for seed in range(20):
        n = 5 + seed % 4
        G = _doubled(gen_tree_connected(GenSpec(n=n, trees=13, extra_edges=seed, seed=seed)))
        packing = spanning_tree_packing(G, 2 * m1 + 2 * m2, seed=seed)
        res = _keep_bi(G, m1, m2, k0, packing, seed + 1)
        assert not is_unknown(res), seed
        g1, g2, P, cross_packing = res
        assert g1.edge_ids | g2.edge_ids == frozenset(G.edge_ids)
        assert g1.edge_ids & g2.edge_ids == frozenset()
        H1, H2 = g1.as_graph(), g2.as_graph()
        assert H1.is_eulerian()
        assert edge_connectivity(H1) >= 2 * m1
        cross = induced_bipartite_factor(H2, P).as_graph()
        assert cross_packing.m == m2 and cross_packing.verify()
        assert set(cross_packing.host.edges) == set(cross.edges)
        intra = sum(
            1 for _, u, v in H2.edges if u == v or (u in P.X) == (v in P.X)
        )
        assert intra >= min(k0, bipartite_index(G)[0])


def test_keep_bi_refuses_a_handed_in_refusal():
    # K_{2,3} has 6 edges, too few for the 2m1+2m2 = 8 spanning trees of
    # the k = 1, m = 1 shape; keep-bi raises the refusal its gate let pass
    G = MultiGraph([1, 2, 3, 4, 5], [(u, v) for u in (1, 2) for v in (3, 4, 5)])
    refusal = spanning_tree_packing(G, 8, seed=3)
    assert isinstance(refusal, PackingRefusal)
    with pytest.raises(HypothesisError) as exc:
        _keep_bi(G, 1, 3, 0, refusal, 3)
    assert exc.value.hypothesis == "(2m1+2m2)-tree-connected"
    assert exc.value.certificate is refusal
    assert exc.value.certificate.verify()


def test_split_complement_window():
    rng = random.Random(73)
    done = 0
    while done < 25:
        n = rng.randint(4, 6)
        verts = list(range(1, n + 1))
        base_edges = []
        for v in verts[1:]:
            base_edges.append((v, rng.choice(verts[: v - 1])))
        base_edges += [tuple(rng.sample(verts, 2)) for _ in range(rng.randint(0, 4))]
        pairs = base_edges + base_edges
        G = MultiGraph(verts, pairs)
        m, m0 = 1, 0
        # the split's hypothesis, which its callers prove
        if edge_connectivity(G) < 2 * (m + m0):
            continue
        res = _split_complement(G, m, m0, seed=done)
        assert not is_unknown(res), done
        h, rest, pack_h, pack_c = res
        done += 1
        assert h.edge_ids | rest.edge_ids == frozenset(G.edge_ids)
        assert h.edge_ids & rest.edge_ids == frozenset()
        assert _tree_connected(h.as_graph(), m)
        for v in G.vertices:
            d = G.degree(v)
            assert d // 2 - m0 <= h.degree(v) <= (d + 1) // 2 + m
        # the returned trees prove both halves, each on its own edges
        for part, packing, count in ((h, pack_h, m), (rest, pack_c, m0)):
            assert packing.m == count and packing.verify()
            assert set(packing.host.edges) == set(part.edges())


def test_split_complement_refused_trees_are_a_broken_invariant():
    # the callers prove G 2(m+m0)-edge-connected, which gives the m + m0
    # trees; a path has no two, so the packer's refusal is no budget miss
    path = MultiGraph([1, 2, 3], [(1, 2), (2, 3)])
    with pytest.raises(AssertionError):
        _split_complement(path, 1, 1, seed=0)
