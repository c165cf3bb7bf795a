"""Decompositions: parity forests, Eulerian splits of tree-connected
graphs, and the splitting lemmas of the tree-connected pipelines.

An Eulerian split is cut from spanning trees of the cross factor G[X, Y]:
the pipelines pass the packing their structure gate or keep-bi split
made, and decompose_eulerian packs its own.

The two private splitting lemmas (_keep_bi, _split_complement) have
proofs that live outside the source material, so they build from
proof-shaped candidates and re-check every postcondition against the
carried trees the result was built from; a lemma that finds nothing
returns UNKNOWN instead of a guess.  Keep-bi is one construction on the
packing of G that its caller's gate proved, and returns its packing of
G2[X, Y] with P, so no part is packed twice.  The complement split is a
randomized search of _BUDGET trials.
"""
from __future__ import annotations

import random
from typing import Mapping

from .connectivity import (
    PackingRefusal,
    TreePacking,
    _find_structure,
    spanning_tree_packing,
)
from .errors import HypothesisError, InputError, UNKNOWN, Unknown
from .factors import find_interval_factor
from .graph import (
    Bipartition,
    Factor,
    MultiGraph,
    induced_bipartite_factor,
    partition_stats,
    validate_vertex_map,
)

VertexMap = Mapping[int, int]

# trials of the split search before it answers UNKNOWN
_BUDGET = 40


def parity_forest(T: Factor, targets: VertexMap) -> Factor:
    """The unique subforest F of the spanning tree T with
    d_F(v) == targets(v) (mod 2) everywhere.

    Exists iff the target parities have even sum; decided leaf-up.
    """
    host = T.host
    validate_vertex_map(host, targets, "targets")
    tree = T.as_graph()
    n = host.num_vertices
    if T.num_edges != n - 1 or not tree.is_connected():
        raise InputError("parity forest needs a spanning tree")
    if any(tree.is_loop(eid) for eid in T.edge_ids):
        raise InputError("a tree cannot carry loops")
    if sum(targets[v] for v in host.vertices) % 2 == 1:
        raise HypothesisError(
            "even parity sum", "no subforest can realize an odd total parity"
        )

    root = host.vertices[0]
    order: list[int] = []
    parent_edge: dict[int, tuple[int, int]] = {}
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        order.append(v)
        for eid, w in tree.incident(v):
            if w not in seen:
                seen.add(w)
                parent_edge[w] = (eid, v)
                stack.append(w)

    chosen: set[int] = set()
    deg = {v: 0 for v in host.vertices}
    for v in reversed(order):
        if v == root:
            continue
        if deg[v] % 2 != targets[v] % 2:
            eid, p = parent_edge[v]
            chosen.add(eid)
            deg[v] += 1
            deg[p] += 1
    for v in host.vertices:
        if deg[v] % 2 != targets[v] % 2:
            raise AssertionError("parity forest missed a target parity")
    return Factor(host, frozenset(chosen))


def _even_closure(core: Factor, donor: Factor) -> Factor:
    """core plus the parity forest of the spanning tree donor that makes
    every degree even.

    donor must be edge-disjoint from core; it may live on a spanning
    subgraph of core's host, since only its edge ids are kept.
    """
    targets = {v: core.degree(v) % 2 for v in core.host.vertices}
    return Factor(core.host, core.edge_ids | parity_forest(donor, targets).edge_ids)


def _carried_packing(host: MultiGraph, trees: tuple[Factor, ...]) -> TreePacking:
    """trees packed on a graph with host's edge ids, re-hosted on host; an
    O(|E|) AssertionError check in place of packing host again."""
    ids = frozenset(host.edge_ids)
    # a tree edge missing from host leaves that tree short of n - 1 edges
    packing = TreePacking(host, tuple(Factor(host, t.edge_ids & ids) for t in trees))
    if not packing.verify():
        raise AssertionError("carried trees are not a packing of their host")
    return packing


def decompose_eulerian(
    G: MultiGraph,
    P: Bipartition,
    m1: int,
    m2: int,
    seed: int | None = None,
) -> tuple[Factor, Factor]:
    """Split G into G1 (bipartite on P, m1-tree-connected) and G2 (Eulerian,
    m2-tree-connected), given an (m1+m2+1)-tree-connected cross factor.

    Packs m1+m2+1 trees of G[X, Y] with the packer seed `seed` and builds
    the split from them, as `_eulerian_split` does.
    """
    if m1 < 0 or m2 < 0:
        raise InputError("tree counts must be nonnegative")
    P.validate_for(G)
    cross = induced_bipartite_factor(G, P).as_graph()
    packing = spanning_tree_packing(cross, m1 + m2 + 1, seed=seed)
    return _eulerian_split(G, P, packing, m1, m2)


def _eulerian_split(
    G: MultiGraph, P: Bipartition, packing: TreePacking | PackingRefusal, m1: int, m2: int
) -> tuple[Factor, Factor]:
    """decompose_eulerian from a packing of G[X, Y], of which it uses the
    first m1+m2+1 trees; a refusal, or a packing of fewer trees, is the
    failed hypothesis.

    All intra-part edges go to G2, with the last m2 of those trees; the
    first tree donates the parity forest that makes G2 even, and G1 keeps
    the rest.  Every postcondition is re-verified before returning, the
    tree counts against the trees each part keeps.
    """
    need = m1 + m2 + 1
    if isinstance(packing, PackingRefusal):
        raise HypothesisError(
            "(m1+m2+1)-tree-connected cross factor",
            f"cross factor is not {need}-tree-connected",
            certificate=packing,
        )
    if packing.m < need:
        raise HypothesisError(
            "(m1+m2+1)-tree-connected cross factor",
            f"cross packing holds {packing.m} of the {need} trees",
        )
    trees = packing.trees[:need]
    h2_ids = frozenset().union(*(t.edge_ids for t in trees[1 + m1 :]))
    intra_ids = frozenset(G.edge_ids) - induced_bipartite_factor(G, P).edge_ids
    g2 = _even_closure(Factor(G, h2_ids | intra_ids), trees[0])
    g1 = g2.complement()

    g1_graph = g1.as_graph()
    if not g1_graph.is_bipartite_with(P):
        raise AssertionError("G1 kept an intra-part edge")
    _carried_packing(g1_graph, trees[1 : 1 + m1])
    g2_graph = g2.as_graph()
    if not g2_graph.is_eulerian():
        raise AssertionError("G2 is not even")
    _carried_packing(g2_graph, trees[1 + m1 :])
    _assert_part_sum_identity(g2_graph, P)
    return g1, g2


def _assert_part_sum_identity(G2: MultiGraph, P: Bipartition) -> None:
    # both sides equal half the cross count of the even graph G2
    _, intra_x = partition_stats(G2, P.X)
    _, intra_y = partition_stats(G2, P.Y)
    left = sum(G2.degree(v) for v in P.X) // 2 - intra_x
    right = sum(G2.degree(v) for v in P.Y) // 2 - intra_y
    if left != right:
        raise AssertionError("part-sum identity failed on a decomposition")


def _keep_bi(
    G: MultiGraph, m1: int, m2: int, k0: int,
    packing: TreePacking | PackingRefusal, seed: int,
) -> tuple[Factor, Factor, Bipartition, TreePacking] | Unknown:
    """Split G into G1 (2m1-edge-connected Eulerian) and G2 with a
    bipartition P making G2[X, Y] m2-tree-connected while G2 keeps at
    least k0 intra-part edges; returns (G1, G2, P, the packing of m2 trees
    of G2[X, Y]).  The caller's gate has proved bi(G) >= k0.

    packing holds the 2m1+2m2 trees of G its caller proved, m1 >= 0 and
    m2 >= 1: G1 is the first 2m1 closed by the parity forest of the next,
    so at m1 = 0 it is empty and G2 is G.  P is the first witness of G2
    that the structure search passes, packing its cross factor at `seed`;
    if every witness fails, the answer is UNKNOWN.
    """
    if isinstance(packing, PackingRefusal):
        raise HypothesisError(
            "(2m1+2m2)-tree-connected",
            f"graph is not {2 * m1 + 2 * m2}-tree-connected",
            certificate=packing,
        )
    trees = packing.trees
    core = frozenset().union(*(t.edge_ids for t in trees[: 2 * m1]))
    g1 = _even_closure(Factor(G, core), trees[2 * m1])
    g2 = g1.complement()
    found = _find_structure(g2.as_graph(), m2, lambda i: i >= k0, seed)
    if found is None:
        return UNKNOWN
    g1_graph = g1.as_graph()
    if not g1_graph.is_eulerian():
        raise AssertionError("G1 is not even")
    # 2m1 edge-disjoint spanning trees make G1 2m1-edge-connected
    _carried_packing(g1_graph, trees[: 2 * m1])
    return g1, g2, *found


def _split_complement(
    G: MultiGraph, m: int, m0: int, seed: int
) -> tuple[Factor, Factor, TreePacking, TreePacking] | Unknown:
    """Factor H with floor(d/2) - m0 <= d_H(v) <= ceil(d/2) + m everywhere,
    returned as (H, G - E(H), m trees of H, m0 trees of G - E(H)), for a G
    whose 2(m+m0)-edge-connectivity the caller has proved.

    Verified randomized search (external proof): m packed trees seed H,
    an interval factor over the leftover edges balances the degrees, so
    the other m0 trees stay in the complement; postconditions re-checked
    exactly, UNKNOWN after _BUDGET trials.  The proved connectivity gives
    the m + m0 trees (Nash-Williams-Tutte), so a packer refusal is a
    broken invariant and raises AssertionError.
    """
    lo = {v: G.degree(v) // 2 - m0 for v in G.vertices}
    hi = {v: (G.degree(v) + 1) // 2 + m for v in G.vertices}

    rng = random.Random(seed)
    for trial in range(_BUDGET):
        packing = spanning_tree_packing(G, m + m0, seed=rng.randrange(1 << 30))
        if isinstance(packing, PackingRefusal):
            raise AssertionError(
                f"a 2(m+m0)-edge-connected G refused m + m0 = {m + m0} spanning trees"
            )
        h_core = frozenset().union(*(t.edge_ids for t in packing.trees[:m]))
        used = h_core.union(*(t.edge_ids for t in packing.trees[m:]))
        have = Factor(G, h_core).degrees()
        if any(have[v] > hi[v] for v in G.vertices):
            continue
        gl = {v: max(0, lo[v] - have[v]) for v in G.vertices}
        fl = {v: hi[v] - have[v] for v in G.vertices}
        balance = find_interval_factor(G.subgraph_of_edges(frozenset(G.edge_ids) - used), gl, fl)
        if balance is None:
            continue
        h = Factor(G, h_core | balance.edge_ids)
        rest = h.complement()
        if any(not lo[v] <= h.degree(v) <= hi[v] for v in G.vertices):
            raise AssertionError("the interval factor left h outside [lo, hi]")
        pack_h = _carried_packing(h.as_graph(), packing.trees[:m])
        pack_c = _carried_packing(rest.as_graph(), packing.trees[m:])
        return h, rest, pack_h, pack_c
    return UNKNOWN
