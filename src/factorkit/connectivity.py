"""Connectivity measures: edge connectivity, spanning tree packings with
partition refusal certificates, the bipartite index, and toughness.

The tree packer is the load-bearing routine.  It runs matroid-union
augmentation over m copies of the graphic matroid: each candidate edge is
inserted through a BFS over exchange moves (an edge enters a forest by
evicting an edge of the cycle it would close, which then re-enters some
other forest, and so on).  When the graph is not m-tree-connected the
labeled edges of the failed searches yield a partition P of the vertices
with fewer than m(|P| - 1) crossing edges, which is the exact obstruction.

Each forest is kept rooted, with a parent link, a depth and a root label
per vertex.  "No path" is one comparison of root labels, and a cycle is
read off by walking the two root paths up to where they meet.  An
augmenting chain applies its removals before its adds, so every forest
only grows towards its final edge set and no add meets a cycle.  A search
also skips the forests in which an edge's ends are already joined by
labeled edges, since such a path has nothing left to label.
"""
from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InputError, SizeRefusal
from .graph import (
    Bipartition,
    Factor,
    MultiGraph,
    induced_bipartite_factor,
    partition_stats,
)

# random halves that the structure searches try after the index witness
_CANDIDATE_TRIES = 6


def edge_connectivity(G: MultiGraph) -> int | float:
    """Global min cut size; loops never count.  One vertex: infinity sentinel."""
    n = G.num_vertices
    if n <= 1:
        return math.inf
    w: dict[int, dict[int, int]] = {v: {} for v in G.vertices}
    for _, u, v in G.edges:
        if u == v:
            continue
        w[u][v] = w[u].get(v, 0) + 1
        w[v][u] = w[v].get(u, 0) + 1
    active = list(G.vertices)
    best = None
    while len(active) > 1:
        # maximum-adjacency order from a heap with lazy deletion: keys only
        # grow, so a vertex's newest entry pops first and the rest are stale
        start = active[0]
        in_a = {start}
        attach = {v: w[start].get(v, 0) for v in active if v != start}
        heap = [(-c, v) for v, c in attach.items()]
        heapq.heapify(heap)
        s = t = start
        while heap:
            _, sel = heapq.heappop(heap)
            if sel in in_a:
                continue
            in_a.add(sel)
            s, t = t, sel
            for u2, c in w[sel].items():
                if u2 not in in_a:
                    attach[u2] += c
                    heapq.heappush(heap, (-attach[u2], u2))
        cut = attach[t]
        if best is None or cut < best:
            best = cut
        # merge t into s
        for u2, c in w[t].items():
            if u2 == s:
                continue
            w[s][u2] = w[s].get(u2, 0) + c
            w[u2][s] = w[u2].get(s, 0) + c
            del w[u2][t]
        w[s].pop(t, None)
        del w[t]
        active.remove(t)
    return best if best is not None else 0


# -- spanning tree packings ---------------------------------------------


@dataclass(frozen=True)
class TreePacking:
    """m pairwise edge-disjoint spanning trees of the host."""

    host: MultiGraph
    trees: tuple[Factor, ...]

    @property
    def m(self) -> int:
        return len(self.trees)

    def verify(self) -> bool:
        seen: set[int] = set()
        n = self.host.num_vertices
        for tree in self.trees:
            if tree.host is not self.host:
                return False
            if seen & tree.edge_ids:
                return False
            seen |= tree.edge_ids
            if tree.num_edges != max(n - 1, 0):
                return False
            # n - 1 edges span a tree iff none closes a cycle (loops included)
            parent = {v: v for v in self.host.vertices}
            for eid in tree.edge_ids:
                u, v = self.host.endpoints(eid)
                ru, rv = _find(parent, u), _find(parent, v)
                if ru == rv:
                    return False
                parent[ru] = rv
        return True


@dataclass(frozen=True)
class PackingRefusal:
    """Partition certificate: fewer than m(|P| - 1) edges cross the parts."""

    host: MultiGraph
    parts: tuple[frozenset[int], ...]
    cross_edges: int
    m: int

    @property
    def bound(self) -> int:
        return self.m * (len(self.parts) - 1)

    def verify(self) -> bool:
        lookup = {}
        for i, part in enumerate(self.parts):
            for v in part:
                if v in lookup:
                    return False
                lookup[v] = i
        if set(lookup) != set(self.host.vertex_set):
            return False
        cross = sum(
            1 for _, u, v in self.host.edges if u != v and lookup[u] != lookup[v]
        )
        return cross == self.cross_edges and cross < self.bound


class _ForestState:
    """m edge-disjoint forests over the vertices 0..n-1, each kept rooted.

    In forest fi every vertex v has a parent link up[fi][v] = (eid, parent),
    None at a root, a depth and a root label, and each root has the size of
    its tree.  Two vertices are connected iff their root labels agree, and
    the path between them is the two root paths walked up to where they
    meet.  add() re-roots the smaller of the two trees it joins and hangs it
    below the other endpoint; remove() relabels the subtree it cuts off.
    add() refuses an edge whose ends share a root, so a caller that
    exchanges edges applies its removals before its adds.
    """

    def __init__(self, n: int, m: int):
        self.m = m
        self.adj: list[list[dict[int, int]]] = [
            [{} for _ in range(n)] for _ in range(m)
        ]  # adj[fi][v]: eid -> other endpoint
        self.up: list[list[tuple[int, int] | None]] = [[None] * n for _ in range(m)]
        self.depth = [[0] * n for _ in range(m)]
        self.root = [list(range(n)) for _ in range(m)]
        self.size = [[1] * n for _ in range(m)]  # read at roots only
        self.members: list[set[int]] = [set() for _ in range(m)]
        self.where: dict[int, int] = {}  # eid -> forest index

    def _hang(self, fi: int, top: int, link: tuple[int, int] | None, label: int) -> int:
        """Give top the parent link `link` and relabel the tree below it,
        which top's adjacency defines; return that tree's vertex count."""
        adj, up, depth, root = self.adj[fi], self.up[fi], self.depth[fi], self.root[fi]
        up[top] = link
        depth[top] = depth[link[1]] + 1 if link else 0
        root[top] = label
        stack = [top]
        count = 0
        while stack:
            x = stack.pop()
            count += 1
            skip = up[x][0] if up[x] else None
            below = depth[x] + 1
            for eid, w in adj[x].items():
                if eid != skip:
                    up[w] = (eid, x)
                    depth[w] = below
                    root[w] = label
                    stack.append(w)
        return count

    def add(self, fi: int, eid: int, u: int, v: int) -> None:
        root, size = self.root[fi], self.size[fi]
        ru, rv = root[u], root[v]
        if ru == rv:
            raise AssertionError("edge closes a cycle in its forest")
        if size[ru] > size[rv]:
            u, v, ru, rv = v, u, rv, ru
        size[rv] += self._hang(fi, u, (eid, v), rv)
        self.adj[fi][u][eid] = v
        self.adj[fi][v][eid] = u
        self.members[fi].add(eid)
        self.where[eid] = fi

    def remove(self, fi: int, eid: int, u: int, v: int) -> None:
        del self.adj[fi][u][eid]
        del self.adj[fi][v][eid]
        self.members[fi].discard(eid)
        del self.where[eid]
        link = self.up[fi][u]
        child = u if link and link[0] == eid else v
        size = self.size[fi]
        old_root = self.root[fi][child]
        size[child] = self._hang(fi, child, None, child)
        size[old_root] -= size[child]

    def path(self, fi: int, a: int, b: int) -> list[int] | None:
        """Edge ids of the unique a-b path in forest fi, from b towards a,
        or None when a and b lie in different trees."""
        if a == b:
            return []
        if self.root[fi][a] != self.root[fi][b]:
            return None
        up, depth = self.up[fi], self.depth[fi]
        from_a: list[int] = []
        from_b: list[int] = []
        da, db = depth[a], depth[b]
        while db > da:
            eid, b = up[b]
            from_b.append(eid)
            db -= 1
        while da > db:
            eid, a = up[a]
            from_a.append(eid)
            da -= 1
        while a != b:
            eid, b = up[b]
            from_b.append(eid)
            eid, a = up[a]
            from_a.append(eid)
        from_a.reverse()
        return from_b + from_a

    def acyclic_and_sized(self, forests: Iterable[int]) -> bool:
        """Each of the given forests is acyclic with its member count of
        edges, and its parent links, depths and root labels describe exactly
        those edges.  An augmentation passes the forests its chain changed.

        Depths rise by one along each link, so no vertex has two links on
        one cycle; once the links account for every adjacency entry, the
        forest is the link forest and has no cycle.
        """
        for fi in forests:
            adj, up = self.adj[fi], self.up[fi]
            depth, root = self.depth[fi], self.root[fi]
            linked = 0
            for v, link in enumerate(up):
                if link is None:
                    if root[v] != v or depth[v] != 0:
                        return False
                    continue
                eid, p = link
                if (
                    adj[v].get(eid) != p
                    or adj[p].get(eid) != v
                    or depth[v] != depth[p] + 1
                    or root[v] != root[p]
                ):
                    return False
                linked += 1
            if not sum(map(len, adj)) == 2 * linked == 2 * len(self.members[fi]):
                return False
        return True


def spanning_tree_packing(
    G: MultiGraph, m: int, seed: int | None = None
) -> TreePacking | PackingRefusal:
    """m edge-disjoint spanning trees, or the violated partition.

    A single-vertex graph is m-tree-connected for every m (empty trees).
    """
    if m < 0:
        raise InputError("m must be nonnegative")
    n = G.num_vertices
    if m == 0:
        return TreePacking(G, ())
    if n <= 1:
        return TreePacking(G, tuple(Factor(G, frozenset()) for _ in range(m)))

    verts = list(G.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    nonloop = [(eid, idx[u], idx[v]) for eid, u, v in G.edges if u != v]
    if len(nonloop) < m * (n - 1):
        # too few edges overall: singletons already violate the count
        parts = tuple(frozenset([v]) for v in verts)
        return PackingRefusal(G, parts, len(nonloop), m)

    if seed is not None:
        rng = random.Random(seed)
        rng.shuffle(nonloop)

    state = _ForestState(n, m)
    by_id = {eid: (u, v) for eid, u, v in nonloop}

    def try_augment(e0: int, mutate: bool = True) -> tuple[bool, set[int]]:
        labels: dict[int, tuple[int, int] | None] = {e0: None}
        # cluster[fi][v]: v's component in the labeled edges of forest fi,
        # as a vertex label, with grouped[fi][label] listing the clusters of
        # two or more; a path within one cluster is labeled already
        cluster = [list(range(n)) for _ in range(m)]
        grouped: list[dict[int, list[int]]] = [{} for _ in range(m)]
        q = deque([e0])
        while q:
            x = q.popleft()
            xu, xv = by_id[x]
            for fi in range(m):
                cl = cluster[fi]
                if cl[xu] == cl[xv]:
                    continue
                path = state.path(fi, xu, xv)
                if path is None:
                    if not mutate:
                        raise AssertionError("probe found an augmentation")
                    # each chain edge leaves the forest where it blocked its
                    # predecessor and enters the one it was probed against
                    chain = [(x, fi)]
                    while labels[chain[-1][0]] is not None:
                        chain.append(labels[chain[-1][0]])
                    # removals first: every forest then only grows towards
                    # its final edge set, so no add can close a cycle
                    for (cur, _), (_, source) in zip(chain, chain[1:]):
                        state.remove(source, cur, *by_id[cur])
                    for cur, target in chain:
                        state.add(target, cur, *by_id[cur])
                    if not state.acyclic_and_sized({f for _, f in chain}):
                        raise AssertionError("augmentation chain left a non-forest")
                    return True, set()
                groups = grouped[fi]
                for y in path:
                    if y not in labels:
                        labels[y] = (x, fi)
                        q.append(y)
                        # merge the smaller cluster of y's ends into the other
                        yu, yv = by_id[y]
                        cu, cv = cl[yu], cl[yv]
                        gu, gv = groups.pop(cu, [cu]), groups.pop(cv, [cv])
                        if len(gu) > len(gv):
                            cu, cv, gu, gv = cv, cu, gv, gu
                        for w in gu:
                            cl[w] = cv
                        gv += gu
                        groups[cv] = gv
        return False, set(labels)

    unused: list[int] = []
    for eid, _, _ in nonloop:
        if eid in state.where:
            continue
        ok, _ = try_augment(eid)
        if not ok:
            unused.append(eid)
    progress = True
    while progress and unused:
        progress = False
        still = []
        for eid in unused:
            ok, _ = try_augment(eid)
            if ok:
                progress = True
            else:
                still.append(eid)
        unused = still

    sizes = [len(state.members[fi]) for fi in range(m)]
    if sum(sizes) == m * (n - 1):
        trees = tuple(Factor(G, frozenset(state.members[fi])) for fi in range(m))
        packing = TreePacking(G, trees)
        if not packing.verify():
            raise AssertionError("packer produced an invalid packing")
        return packing

    # certificate: labeled edges of the final failed searches are intra-part
    labeled: set[int] = set()
    for eid in unused:
        _, labs = try_augment(eid, mutate=False)
        labeled |= labs
    parent = list(range(n))
    for eid in labeled:
        u, v = by_id[eid]
        ra, rb = _find(parent, u), _find(parent, v)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, set[int]] = {}
    for v in verts:
        groups.setdefault(_find(parent, idx[v]), set()).add(v)
    parts = tuple(frozenset(g) for g in sorted(groups.values(), key=min))
    lookup = {v: i for i, part in enumerate(parts) for v in part}
    cross = sum(1 for eid, u, v in nonloop if lookup[verts[u]] != lookup[verts[v]])
    refusal = PackingRefusal(G, parts, cross, m)
    if not refusal.verify():
        raise AssertionError("refusal certificate failed its own recount")
    return refusal


def _find(parent, x: int) -> int:
    """Union-find root of x, where parent maps each element to its parent
    (a list over 0..n-1 or a dict); halves the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def is_tree_connected(G: MultiGraph, m: int, seed: int | None = None) -> bool:
    return isinstance(spanning_tree_packing(G, m, seed=seed), TreePacking)


def tree_connectivity(G: MultiGraph, max_m: int | None = None) -> int:
    """Largest m with an m-tree packing (linear scan; desk scale)."""
    if G.num_vertices <= 1:
        return max_m if max_m is not None else 10**9
    nonloop = sum(1 for _, u, v in G.edges if u != v)
    ceiling = nonloop // max(1, G.num_vertices - 1)
    if max_m is not None:
        ceiling = min(ceiling, max_m)
    best = 0
    for m in range(1, ceiling + 1):
        if not is_tree_connected(G, m):
            break
        best = m
    return best


# -- bipartite index -----------------------------------------------------

# hosts up to this many vertices get the exact sweep; the bounded variants
# search locally above it
_EXACT_CAP = 20
# seeded random halves the local search starts from
_LOCAL_RESTARTS = 8


def bipartite_index(G: MultiGraph, cap: int = _EXACT_CAP) -> tuple[int, Bipartition]:
    """Exact bi(G): the minimum of e(X) + e(Y) over bipartitions, with witness.

    The first vertex stays in X, and bit i - 1 of a side mask puts vertex i
    in Y.  The sweep visits all 2^(n-1) masks in Gray-code order, one vertex
    flip per step, and moves the intra count by the flipped vertex's
    neighbours on its new side minus those on its old side.  Its neighbour
    count on side Y is read from two per-vertex lookup tables, one for each
    half of the mask, which count parallel edges with their multiplicity.
    Loops are never cut, so they are added once at the end.  Among the
    minimisers the smallest mask wins.  Refuses above the cap; callers
    that can use a bracket instead call bipartite_index_bounds.
    """
    n = G.num_vertices
    if n > cap:
        raise SizeRefusal("bipartite index exact cap", f"{n} vertices exceeds cap {cap}")
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


def _subset_sums(weights: list[int]) -> list[int]:
    """sums[m]: the total of weights[i] over the bits i set in m."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def bipartite_index_upper(G: MultiGraph, seed: int = 0) -> tuple[int, Bipartition]:
    """(upper, witness): an upper bound on bi(G) at any size, exact up to
    the cap of `bipartite_index`, whose value and witness it returns there.

    Above the cap, a local search restarts from seeded random halves and
    flips any vertex with more same-side than cross neighbours (the flip
    lowers the intra count by their difference) until no flip helps.
    """
    if G.num_vertices <= _EXACT_CAP:
        return bipartite_index(G)
    rng = random.Random(seed)
    verts = list(G.vertices)
    nbrs = {v: [w for _, w in G.incident(v) if w != v] for v in verts}
    best_val = None
    best_part = None
    for _ in range(_LOCAL_RESTARTS):
        X = {v for v in verts if rng.random() < 0.5}
        improved = True
        while improved:
            improved = False
            for v in verts:
                side = v in X
                same = sum(1 for w in nbrs[v] if (w in X) == side)
                if 2 * same > len(nbrs[v]):
                    X ^= {v}
                    improved = True
        # with Y = V - X every boundary edge is a cross edge
        val = G.num_edges - partition_stats(G, X)[0]
        if best_val is None or val < best_val:
            best_val = val
            best_part = Bipartition(frozenset(X), frozenset(verts) - frozenset(X))
    return best_val, best_part


def bipartite_index_bounds(G: MultiGraph, seed: int = 0) -> tuple[int, int, Bipartition]:
    """(lower, upper, witness) for bi(G), with lower == upper up to the cap
    of `bipartite_index`, where the witness is its exact one.

    Above the cap the upper bound and witness come from the local search of
    `bipartite_index_upper`, and the lower bound from the odd-cycle packing
    argument applied to that witness (0 when it does not apply).
    """
    upper, witness = bipartite_index_upper(G, seed=seed)
    if G.num_vertices <= _EXACT_CAP:
        return upper, upper, witness
    lower = 0
    for k in range(upper, 0, -1):
        ok, _ = odd_cycle_packing_bound(G, witness, k)
        if ok:
            lower = k
            break
    return lower, upper, witness


def _bipartition_candidates(G: MultiGraph, rng: random.Random):
    """Bipartitions for the structure searches: the witness of
    `bipartite_index_upper`, then seeded random halves.

    A swapped bipartition has the same cross factor, so each unordered pair
    is yielded once; both sides are nonempty.
    """
    _, P = bipartite_index_upper(G)
    verts = list(G.vertices)
    seen = set()
    for trial in range(_CANDIDATE_TRIES + 1):
        if trial:
            X = frozenset(v for v in verts if rng.random() < 0.5)
            P = Bipartition(X, frozenset(verts) - X)
        key = frozenset((P.X, P.Y))
        if P.X and P.Y and key not in seen:
            seen.add(key)
            yield P


def odd_cycle_packing_bound(
    G: MultiGraph, P: Bipartition, k: int
) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Certify bi(G) >= k from a k-tree-connected cross factor plus k intra edges.

    Returns (True, cycles) where cycles are k pairwise edge-disjoint odd
    cycles (edge id tuples), or (False, None) when the premises fail.
    """
    P.validate_for(G)
    if k <= 0:
        return True, ()
    cross = induced_bipartite_factor(G, P)
    intra = [
        (eid, u, v)
        for eid, u, v in G.edges
        if eid not in cross.edge_ids
    ]
    if len(intra) < k:
        return False, None
    packing = spanning_tree_packing(cross.as_graph(), k)
    if not isinstance(packing, TreePacking):
        return False, None
    idx = {v: i for i, v in enumerate(G.vertices)}
    cycles = []
    for i in range(k):
        eid, u, v = intra[i]
        if u == v:
            cycles.append((eid,))
            continue
        forest = _ForestState(len(idx), 1)
        for teid, a, b in packing.trees[i].edges():
            forest.add(0, teid, idx[a], idx[b])
        cycles.append(tuple(forest.path(0, idx[u], idx[v])) + (eid,))
    for cyc in cycles:
        if len(cyc) % 2 == 0:
            raise AssertionError("even cycle in an odd-cycle certificate")
    allids = [eid for cyc in cycles for eid in cyc]
    if len(allids) != len(set(allids)):
        raise AssertionError("odd-cycle certificate reuses an edge")
    return True, tuple(cycles)


# -- toughness -----------------------------------------------------------


@dataclass(frozen=True)
class Toughness:
    """min |S| / omega(G - S) over separating S, exact rational; None = infinite."""

    value: Fraction | None
    witness: frozenset[int] | None

    @property
    def is_infinite(self) -> bool:
        return self.value is None


def toughness(G: MultiGraph, cap: int = 16) -> Toughness:
    """Exact toughness: min |S| / comps over the vertex sets S whose removal
    leaves comps >= 2 components; value None (infinite) when no S does.

    The sweep walks all 2^n masks over G.vertices.  G - S has at most
    n - |S| components, so an S with |S| / (n - |S|) >= best cannot win
    and is skipped before its components are counted.  Only a strictly
    smaller ratio replaces the best, so the witness is the first minimiser
    in increasing mask order.
    """
    n = G.num_vertices
    if n > cap:
        raise SizeRefusal(
            "toughness exact cap", f"{n} vertices exceeds cap {cap}"
        )
    verts = list(G.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    for _, u, v in G.edges:
        if u != v:
            adj[idx[u]] |= 1 << idx[v]
            adj[idx[v]] |= 1 << idx[u]
    full = (1 << n) - 1
    # best ratio best_s / best_c, compared by cross-multiplication
    best_s = best_c = 0
    best_set: int | None = None
    for S in range(1 << n):
        rest = full & ~S
        if rest == 0:
            continue
        s = S.bit_count()
        if best_set is not None and s * best_c >= best_s * (n - s):
            continue
        comps = len(_mask_components(rest, adj))
        if comps >= 2 and (best_set is None or s * best_c < best_s * comps):
            best_s, best_c, best_set = s, comps, S
    if best_set is None:
        return Toughness(None, None)
    witness = frozenset(verts[i] for i in range(n) if (best_set >> i) & 1)
    return Toughness(Fraction(best_s, best_c), witness)


def _mask_components(rest: int, adj: list[int]) -> list[int]:
    """Vertex masks of the components of the vertex set `rest`, where
    adj[i] is the neighbour mask of vertex i."""
    comps = []
    left = rest
    while left:
        frontier = left & -left
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            bits = frontier
            while bits:
                b = bits & -bits
                bits ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & rest & ~comp
        comps.append(comp)
        left &= ~comp
    return comps
