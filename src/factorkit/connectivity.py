"""Connectivity measures: edge connectivity, spanning tree packings with
partition refusal certificates, the bipartite index, and toughness.

The tree packer is the load-bearing routine.  It runs matroid-union
augmentation over m copies of the graphic matroid (Roskind and Tarjan
1985): each candidate edge is inserted through a BFS over exchange moves
(an edge enters a forest by evicting an edge of the cycle it would close,
which then re-enters some other forest, and so on).  The search is exact,
and an augmentation moves edges between forests but never takes one out of
their union, so the union only grows: an edge that fails once lies in the
span of the union and fails for good.  One insertion pass over the edges
therefore suffices, and it stops as soon as the forests hold m(n - 1)
edges, m spanning trees, since no later search could succeed.  An edge
whose ends lie in different trees of some forest goes straight into the
first such forest, which is where the search's first step would put it,
with no labels built.  The search tests each edge for a free forest as it
labels it, so it stops at the first one.  A failed search leaves a
saturated part, which every forest spans from then on, and no later
search starts inside one.
When the pass ends short, its saturated parts are the refusal: a vertex
partition P with fewer than m(|P| - 1) crossing edges, the exact
obstruction.  Every forest spans every part, so the host's crossing
edges are the forests' ones, placed - m(n - |P|) of them.

Each forest is kept rooted, with a parent link, a depth and a root label
per vertex.  "No path" is one comparison of root labels, and a cycle is
read off by walking the two root paths up to where they meet.  An
augmenting chain applies its removals before its adds, so every forest
only grows towards its final edge set and no add meets a cycle.  A search
also skips the forests in which an edge's ends are already joined by
labeled edges, since such a path has nothing left to label.

No placement is checked on its own: the forest check runs once, on the
answer.  `TreePacking.verify()` rebuilds each tree with a union-find (n - 1
edges, no cycle, on the host, none shared), and `PackingRefusal.verify()`
recounts the crossing edges, a proof whatever the forests held.

The three exact measures prune instead of enumerating.  `edge_connectivity`
keeps lam, the smallest cut found, from the minimum degree down, and
contracts every pair that no cut below lam can separate (Nagamochi and
Ibaraki 1992, with the Padberg and Rinaldi 1990 tests), so it needs a few
maximum-adjacency phases where Stoer and Wagner need n - 1.
`bipartite_index` is a depth-first branch and bound whose leaves come in
side-mask order, so it keeps the witness of a full sweep: the smallest
mask among the minimisers.  `toughness` stays a sweep over cut sets, since
recognising tough graphs is NP-hard (Bauer, Hakimi and Schmeichel 1990),
but it takes them by size and skips every set that provably cannot beat
the best ratio, and it too keeps the smallest-mask witness of the full
sweep.  All three run iteratively and build no closures, so a call leaves
no reference cycles behind.

The pipelines' structure search needs a bipartition with few intra edges
and a richly tree-connected cross factor, not the index itself.  So it
tries the flip witness first: a BFS 2-colouring with single-vertex flips,
linear in the host apart from the flips, seedless, and exact on bipartite
hosts.  Only when that witness fails does it run `bipartite_index_upper`,
the exact sweep up to the cap, which stays for `factorkit bi`, the bounds
and the oracles.
"""
from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator

from .errors import InputError, SizeRefusal
from .graph import (
    Bipartition,
    Factor,
    MultiGraph,
    induced_bipartite_factor,
    partition_stats,
)
from .rng import child_seed


def edge_connectivity(G: MultiGraph) -> int | float:
    """Global min cut size; loops never count.  One vertex: infinity sentinel.

    lam is the smallest cut found so far; it starts at the minimum degree.
    Each round works on the current multigraph, whose parallel u-v edges
    are one weight c(u, v), unions pairs in a union-find, and then
    contracts every class at once.  A round unions
    - u and v in one Padberg-Rinaldi pass when c(u, v) >= lam, or when
      2c(u, v) >= d(u) and u is still alone in its class (or the same with
      u and v swapped);
    - x and y in one maximum-adjacency (MA) phase when scanning x leaves
      y's attachment r(y) to the scanned set A at lam or more, since then
      lambda(x, y) >= r(y) (Nagamochi and Ibaraki).
    The phase lowers lam with each prefix cut, d(A + x) = d(A) + d(x) -
    2r(x), and the minimum degree after the contraction lowers it again.

    No cut below lam separates a pair of the first test or of the phase.
    A vertex u of the second test has degree >= lam and at least half of
    it on v, so moving u to v's side of a minimum cut below lam does not
    raise the cut; u alone in its class keeps that true for each union in
    turn.  So every contraction keeps a cut below lam if there is one, and
    lam is the answer once one vertex is left.  The phase's last vertex
    ends at r = d >= lam, so each phase unions a pair.  Returns 0 as soon
    as lam is 0.
    """
    n = G.num_vertices
    if n <= 1:
        return math.inf
    idx = {v: i for i, v in enumerate(G.vertices)}
    w: list[dict[int, int]] = [{} for _ in range(n)]
    for _, u, v in G.edges:
        if u != v:
            i, j = idx[u], idx[v]
            w[i][j] = w[i].get(j, 0) + 1
            w[j][i] = w[j].get(i, 0) + 1
    deg = [sum(nbrs.values()) for nbrs in w]
    lam = min(deg)
    active = list(range(n))
    while lam and len(active) > 1:
        parent = list(range(n))
        alone = [True] * n  # not yet an end of a union in this pass
        classes = len(active)
        for u in active:
            du = deg[u]
            for v, c in w[u].items():
                if v > u and (
                    c >= lam or 2 * c >= du and alone[u] or 2 * c >= deg[v] and alone[v]
                ):
                    classes -= _union(parent, u, v)
                    alone[u] = alone[v] = False
        if classes > 1:
            lam = _ma_phase(w, deg, active, lam, parent)
            if not lam:
                return 0
        # merge each united vertex t into its class root s, as one vertex
        for t in active:
            s = _find(parent, t)
            if s == t:
                continue
            ws, wt = w[s], w[t]
            deg[s] += deg[t] - 2 * wt.pop(s, 0)
            ws.pop(t, None)
            for x, c in wt.items():
                wx = w[x]
                del wx[t]
                wx[s] = ws[x] = ws.get(x, 0) + c
            w[t] = {}
        active = [u for u in active if parent[u] == u]
        if len(active) > 1:
            lam = min(lam, min(deg[u] for u in active))
    return lam


def _ma_phase(w, deg, active, lam, parent) -> int:
    """One maximum-adjacency phase of `edge_connectivity` over the vertices
    `active`, from a heap with lazy deletion: keys only grow, so a vertex's
    newest entry pops first and the rest are stale.  Unions x and y when
    scanning x lifts y's attachment to lam or more, and returns lam lowered
    by the prefix cuts, or 0 at the first prefix cut of 0."""
    start = active[0]
    in_a = dict.fromkeys(active, False)
    in_a[start] = True
    attach = dict.fromkeys(active, 0)
    heap = []
    for y, c in w[start].items():
        attach[y] = c
        heap.append((-c, y))
        if c >= lam:
            _union(parent, start, y)
    heapq.heapify(heap)
    cut = deg[start]
    left = len(active) - 1
    while heap:
        neg_r, x = heapq.heappop(heap)
        if in_a[x]:
            continue
        in_a[x] = True
        left -= 1
        if not left:
            break  # A is every vertex: no cut
        cut += deg[x] + 2 * neg_r
        if cut < lam:
            lam = cut
            if not lam:
                return 0
        for y, c in w[x].items():
            if not in_a[y]:
                r = attach[y] + c
                attach[y] = r
                heapq.heappush(heap, (-r, y))
                if r >= lam:
                    _union(parent, x, y)
    return lam


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
        host = self.host
        n = host.num_vertices
        idx = {v: i for i, v in enumerate(host.vertices)}
        for tree in self.trees:
            if tree.host is not host:
                return False
            if seen & tree.edge_ids:
                return False
            seen |= tree.edge_ids
            if tree.num_edges != max(n - 1, 0):
                return False
            # n - 1 edges span a tree iff none closes a cycle (loops included)
            parent = list(range(n))
            for eid in tree.edge_ids:
                u, v = host.endpoints(eid)
                ru, rv = _find(parent, idx[u]), _find(parent, idx[v])
                if ru == rv:
                    return False
                parent[ru] = rv
        return True


@dataclass(frozen=True)
class PackingRefusal:
    """Partition certificate: fewer than m(|P| - 1) edges cross the parts.

    The parts are nonempty: an empty part would raise the bound by m
    without a vertex to back it."""

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
            if not part:
                return False
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
    exchanges edges applies its removals before its adds.  Nothing here
    re-walks a forest: the packer checks its answer once, with
    `TreePacking.verify()` or `PackingRefusal.verify()`.
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

    def remove(self, fi: int, eid: int, u: int, v: int) -> None:
        del self.adj[fi][u][eid]
        del self.adj[fi][v][eid]
        self.members[fi].discard(eid)
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


def spanning_tree_packing(
    G: MultiGraph, m: int, seed: int | None = None
) -> TreePacking | PackingRefusal:
    """m edge-disjoint spanning trees, or the violated partition.

    The non-loop edges, shuffled under a seed, get one insertion pass.
    An edge goes straight into the first forest whose trees its ends
    separate, the forest the search's first step would pick; otherwise
    `search` looks for an exchange chain.  The pass stops once the forests
    hold m(n - 1) edges.  A failed edge needs no second try, since the
    union of the forests only grows.

    The search is a BFS over labeled edges: the path of a dequeued edge x
    in each forest labels its unlabeled edges with (x, forest).  Each edge
    is tested for a free forest, one whose trees separate its ends, when it
    is labeled, and the search exchanges along the first such edge's chain
    into its first free forest.  This is the edge, chain and forest that a
    test at dequeue finds: the forests do not change during a search, the
    FIFO queue hands edges out in labeling order, and a label is set once,
    so the first labeled edge with a free forest is the first dequeued one,
    with the same labels behind it.  The test at labeling only skips the
    rest of the BFS level, which a test at dequeue would still probe and
    label.  Every queued edge is blocked in every forest, and a failed
    search labels what a test at dequeue labels.

    No search starts from an edge whose ends lie in one saturated part, a
    vertex set that every forest spans: such a search fails.  A failed
    search from e stops only when, in every forest, the ends of each
    labeled edge are joined by labeled edges, so every forest spans the
    component K of the labeled edges, and K is the smallest vertex set
    that holds e's ends and that every forest spans.  The forests then
    hold m(|K| - 1) edges inside K, the most they can, and since an
    augmentation never takes an edge out of their union, their edges
    inside K never change again and every later forest spans K too.  Parts
    that share a vertex merge, as every forest spans their union.  These
    are the saturated sets of the matroid-sum algorithms of Roskind and
    Tarjan (1985, Math. Oper. Res. 10) and Gabow and Westermann (1992,
    Algorithmica 7).  The pass joins the ends of every labeled edge of a
    failed search in a union-find, made at the first failure, and skips an
    edge inside one class unsearched.

    When the forests end short, the classes are the parts of the refusal.
    A search from a failed edge e in the final forests would label K again:
    every vertex set inside K that the final forests span around e has all
    its union edges inside K already at e's failure, so every forest
    spanned it then, and K is the smallest such set.  Every edge outside
    the forests failed or was skipped, so it lies inside a part, and each
    forest holds |K| - 1 edges inside each part K.  The crossing edges of
    the host are therefore the forests' crossing edges, placed - m(n - |P|)
    of them; `PackingRefusal.verify()` recounts them from the host, so the
    final check tests this arithmetic.

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
    roots = state.root
    by_id = {eid: (u, v) for eid, u, v in nonloop}

    def free(u: int, v: int) -> int | None:
        """The first forest whose trees separate u and v, or None."""
        for fi in range(m):
            if roots[fi][u] != roots[fi][v]:
                return fi
        return None

    # None once e0 is in a forest, else the labels of the failed search;
    # e0 itself is blocked in every forest
    def search(e0: int) -> dict[int, tuple[int, int] | None] | None:
        labels: dict[int, tuple[int, int] | None] = {e0: None}
        # cluster[fi][v]: v's component in the labeled edges of forest fi,
        # as a vertex label, with grouped[fi][label] listing the clusters of
        # two or more; a path within one cluster is labeled already.  A
        # forest's list is made when the search first probes it.
        cluster: list[list[int] | None] = [None] * m
        grouped: list[dict[int, list[int]]] = [{} for _ in range(m)]
        q = deque([e0])
        while q:
            x = q.popleft()
            xu, xv = by_id[x]
            for fi in range(m):
                cl = cluster[fi]
                if cl is None:
                    cl = cluster[fi] = list(range(n))
                elif cl[xu] == cl[xv]:
                    continue
                groups = grouped[fi]
                for y in state.path(fi, xu, xv):
                    if y in labels:
                        continue
                    labels[y] = (x, fi)
                    yu, yv = by_id[y]
                    target = free(yu, yv)
                    if target is not None:
                        # the chain runs back from y along the labels: y
                        # enters its free forest, and each edge after it
                        # enters the forest whose path labeled the edge
                        # before it, which that edge leaves.  Removals
                        # first, so every forest only grows towards its
                        # final edge set and no add can close a cycle
                        chain = [(y, target)]
                        while labels[chain[-1][0]] is not None:
                            chain.append(labels[chain[-1][0]])
                        for (cur, _), (_, source) in zip(chain, chain[1:]):
                            state.remove(source, cur, *by_id[cur])
                        for cur, into in chain:
                            state.add(into, cur, *by_id[cur])
                        return None
                    q.append(y)
                    # merge the smaller cluster of y's ends into the other
                    cu, cv = cl[yu], cl[yv]
                    gu, gv = groups.pop(cu, [cu]), groups.pop(cv, [cv])
                    if len(gu) > len(gv):
                        cu, cv, gu, gv = cv, cu, gv, gu
                    for w in gu:
                        cl[w] = cv
                    gv += gu
                    groups[cv] = gv
        return labels

    full = m * (n - 1)
    placed = 0
    # union-find of the saturated parts, made at the first failed search
    clump: list[int] | None = None
    for eid, u, v in nonloop:
        if placed == full:
            break
        if clump is not None and _find(clump, u) == _find(clump, v):
            continue
        fi = free(u, v)
        if fi is not None:
            state.add(fi, eid, u, v)
            placed += 1
            continue
        labels = search(eid)
        if labels is None:
            placed += 1
            continue
        if clump is None:
            clump = list(range(n))
        for x in labels:
            _union(clump, *by_id[x])

    if placed == full:
        trees = tuple(Factor(G, frozenset(state.members[fi])) for fi in range(m))
        packing = TreePacking(G, trees)
        if not packing.verify():
            raise AssertionError("packer produced an invalid packing")
        return packing

    # the forests end short only after a failed search, so clump exists,
    # and the host's crossing edges are the forests' ones (see above)
    groups: dict[int, set[int]] = {}
    for v in verts:
        groups.setdefault(_find(clump, idx[v]), set()).add(v)
    parts = tuple(frozenset(g) for g in sorted(groups.values(), key=min))
    refusal = PackingRefusal(G, parts, placed - m * (n - len(parts)), m)
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


def _union(parent: list[int], a: int, b: int) -> bool:
    """Join the union-find classes of a and b; False when they are one
    class already."""
    ra, rb = _find(parent, a), _find(parent, b)
    parent[ra] = rb
    return ra != rb


# -- bipartite index -----------------------------------------------------

# hosts up to this many vertices get the exact search; the bounded variants
# search locally above it
_EXACT_CAP = 20
# seeded random halves the local search starts from
_LOCAL_RESTARTS = 8


def bipartite_index(G: MultiGraph) -> tuple[int, Bipartition]:
    """Exact bi(G): the minimum of e(X) + e(Y) over bipartitions, with witness.

    The first vertex stays in X, and bit i - 1 of a side mask puts vertex i
    in Y.  Among the minimisers the smallest mask wins.  A depth-first
    branch and bound assigns the vertices from the last one (the top bit)
    down to the second, X before Y, so complete masks arrive in increasing
    order.  A node is pruned when its bound is at least the best intra
    count found, since a later mask of the same count would lose the tie.
    Until the first complete mask the search prunes only above the count of
    one greedy pass over the same order (each vertex to the side with fewer
    edges to those placed before it), so the first minimiser is never cut.

    The bound on every completion of a node is the sum of
    - the intra edges among the assigned vertices;
    - for each unassigned vertex, the smaller of its edge counts to X and
      to Y;
    - for each multiplicity layer k (the vertex pairs joined by more than k
      edges), the layer's pairs inside the set U of unassigned vertices
      beyond the floor(u/2) * ceil(u/2) that a split of U can cut, u = |U|.
    When the last term is positive and the sum does not prune, the node is
    bounded again by `_split_floor`, which ties the last two terms to one
    split size of U.  Loops are never cut, so they are added once at the
    end.  Refuses above the cap; callers that can use a bracket instead
    call bipartite_index_bounds.
    """
    n = G.num_vertices
    if n > _EXACT_CAP:
        raise SizeRefusal("bipartite index exact cap", f"{n} vertices exceeds cap {_EXACT_CAP}")
    verts = list(G.vertices)
    loops = sum(1 for _, u, v in G.edges if u == v)
    if n <= 1:
        return G.num_edges, Bipartition(frozenset(verts), frozenset())
    idx = {v: i for i, v in enumerate(verts)}
    mult: dict[tuple[int, int], int] = {}
    for _, u, v in G.edges:
        if u != v:
            i, j = idx[u], idx[v]
            key = (i, j) if i > j else (j, i)
            mult[key] = mult.get(key, 0) + 1
    # lower[i]: (j, multiplicity) for the neighbours 0 < j < i, which are
    # still unassigned when vertex i is assigned
    lower: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    to_x = [0] * n  # to_x[j], to_y[j]: edges from j to assigned X, Y
    for (i, j), c in mult.items():
        if j:
            lower[i].append((j, c))
        else:
            to_x[i] = c
    to_y = [0] * n
    # while U is {1, ..., i}: within[i][k] counts the pairs of layer k
    # inside U, and layer[i] is the layer term
    layer = [0] * n
    within: list[tuple[int, ...]] = [()] * n
    inside: list[int] = []
    for i in range(1, n):
        for _, c in lower[i]:
            inside += [0] * (c - len(inside))
            for k in range(c):
                inside[k] += 1
        cut = (i // 2) * ((i + 1) // 2)
        layer[i] = sum(e - cut for e in inside if e > cut)
        within[i] = tuple(inside)

    best = _greedy_intra(lower, to_x, n) + 1
    # spread: the sum over U of min(to_x[j], to_y[j])
    best_mask = intra = spread = mask = 0
    state = [0] * n  # state[i]: 1 with i in X, 2 with i in Y
    i = n - 1
    while i < n:
        if not i:
            # every vertex is assigned, and the bound check let only a
            # strictly smaller intra count through
            best, best_mask = intra, mask
            i = 1
            continue
        st = state[i]
        if st:
            # take back vertex i's side
            side = to_x if st == 1 else to_y
            intra -= side[i]
            if st == 2:
                mask ^= 1 << (i - 1)
            for j, c in lower[i]:
                old = min(to_x[j], to_y[j])
                side[j] -= c
                spread += min(to_x[j], to_y[j]) - old
            spread += min(to_x[i], to_y[i])
            if st == 2:
                state[i] = 0
                i += 1
                continue
        state[i] = st + 1
        side = to_x if st == 0 else to_y
        spread -= min(to_x[i], to_y[i])
        intra += side[i]
        if st:
            mask |= 1 << (i - 1)
        for j, c in lower[i]:
            old = min(to_x[j], to_y[j])
            side[j] += c
            spread += min(to_x[j], to_y[j]) - old
        bound = intra + spread + layer[i - 1]
        if bound < best and layer[i - 1]:
            bound = intra + _split_floor(to_x, to_y, i - 1, within[i - 1])
        if bound < best:
            i -= 1
    Y = frozenset(verts[b + 1] for b in range(n - 1) if best_mask >> b & 1)
    return best + loops, Bipartition(frozenset(verts) - Y, Y)


def _split_floor(to_x: list[int], to_y: list[int], u: int, within: tuple[int, ...]) -> int:
    """Fewest intra edges that placing U = {1, ..., u} can add, in the
    branch and bound of `bipartite_index`: to_x[j] and to_y[j] count j's
    edges to the assigned X and Y, and within[k] the pairs of layer k
    inside U.  With a vertices of U in X, U's edges to the assigned ones
    add at least their count to Y plus the a smallest differences
    to_x[j] - to_y[j], and each layer keeps its pairs beyond the a(u - a)
    that the split can cut; the floor is the least of these over a."""
    diffs = sorted([to_x[j] - to_y[j] for j in range(1, u + 1)])
    cost = sum(to_y[1:u + 1])
    low = cost + sum(within)
    for a, d in enumerate(diffs, 1):
        cost += d
        cut = a * (u - a)
        low = min(low, cost + sum(e - cut for e in within if e > cut))
    return low


def _greedy_intra(lower: list[list[tuple[int, int]]], to_x: list[int], n: int) -> int:
    """Intra count of the split that puts each vertex, last to second, on
    the side with fewer edges to those placed before it (X on a tie), with
    the first vertex in X; `lower` and `to_x` as in `bipartite_index`."""
    to_x = to_x[:]
    to_y = [0] * n
    intra = 0
    for i in range(n - 1, 0, -1):
        side = to_y if to_y[i] < to_x[i] else to_x
        intra += side[i]
        for j, c in lower[i]:
            side[j] += c
    return intra


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


def _flip_witness(G: MultiGraph) -> Bipartition:
    """A bipartition in which no vertex has more same-side than cross
    neighbours, with no seed and no search.

    A BFS 2-colouring of every component puts each vertex opposite its BFS
    parent, its first root in X; then any vertex with more same-side than
    cross neighbours flips, which lowers the intra count by their
    difference, until none has.  The colouring takes linear time and each
    flip the vertex's degree; each flip removes an intra edge at least, so
    there are no more flips than intra edges the colouring left.  On a
    bipartite host the colouring is proper and keeps 0 intra edges, which
    is exact.
    """
    verts = list(G.vertices)
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for _, u, v in G.edges:
        if u != v:
            nbrs[idx[u]].append(idx[v])
            nbrs[idx[v]].append(idx[u])
    side = [-1] * n
    for root in range(n):
        if side[root] < 0:
            side[root] = 0
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for w in nbrs[u]:
                    if side[w] < 0:
                        side[w] = 1 - side[u]
                        queue.append(w)
    # gain[u]: u's same-side neighbours minus its cross ones
    gain = [sum(1 if side[w] == side[u] else -1 for w in nbrs[u]) for u in range(n)]
    queue = deque(u for u in range(n) if gain[u] > 0)
    while queue:
        u = queue.popleft()
        if gain[u] <= 0:
            continue
        side[u] ^= 1
        gain[u] = -gain[u]
        for w in nbrs[u]:
            if side[w] == side[u]:
                gain[w] += 2
                if gain[w] > 0:
                    queue.append(w)
            else:
                gain[w] -= 2
    Y = frozenset(v for v, s in zip(verts, side) if s)
    return Bipartition(frozenset(verts) - Y, Y)


def _structure_witnesses(G: MultiGraph) -> Iterator[Bipartition]:
    """The bipartitions a structure search tries, in order: the flip
    witness, then the witness of `bipartite_index_upper` unless it splits V
    the same way, since the same split fails the same checks (the packer
    is exact).  Lazy, so the index runs only for a caller that asks past
    the first."""
    P = _flip_witness(G)
    yield P
    _, Q = bipartite_index_upper(G)
    if Q.X not in (P.X, P.Y):
        yield Q


def _find_structure(
    G: MultiGraph, need: int, intra_ok: Callable[[int], bool], seed: int,
    window_ok: Callable[[Bipartition], bool] | None = None,
) -> tuple[Bipartition, TreePacking] | None:
    """(P, packing of need trees of G[X, Y] at packer seed child_seed(seed,
    1)) for the first witness P of `_structure_witnesses` that passes,
    oriented as given or else swapped so that it passes window_ok; or None
    when every witness fails.  A witness fails when a side is empty, no
    orientation passes window_ok, its intra-part count fails intra_ok or
    its cross factor does not pack.
    """
    for P in _structure_witnesses(G):
        if not P.X or not P.Y:
            continue
        Q = next((Q for Q in (P, P.swapped()) if window_ok is None or window_ok(Q)), None)
        # with Y = V - X every boundary edge of X is a cross edge
        if Q is None or not intra_ok(G.num_edges - partition_stats(G, P.X)[0]):
            continue
        cross = induced_bipartite_factor(G, P).as_graph()
        packing = spanning_tree_packing(cross, need, seed=child_seed(seed, 1))
        if isinstance(packing, TreePacking):
            return Q, packing
    return None


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

# the exact toughness sweep's vertex cap: 2^16 cut sets
_TOUGHNESS_CAP = 16


@dataclass(frozen=True)
class Toughness:
    """min |S| / omega(G - S) over separating S, exact rational; None = infinite."""

    value: Fraction | None
    witness: frozenset[int] | None


def toughness(G: MultiGraph) -> Toughness:
    """Exact toughness: min |S| / comps over the vertex sets S whose removal
    leaves comps >= 2 components; value None (infinite) when no S does.

    The sweep runs over cut sets S by increasing size |S| = s and, within a
    size, in combination order, and skips what cannot win:
    - no S holds a vertex v with fewer than two distinct neighbours.  Such a
      v meets at most one component of G - S, so S - v leaves as many
      components, or one more, with one vertex less: a smaller ratio.
    - G - S has at most n - s components, and s / (n - s) grows with s, so
      the sweep stops at the first size with s / (n - s) above the best.
    - G - S has at most iso + (n - s - iso) // 2 components, with iso its
      isolated vertices, since every other component has two vertices or
      more; S is skipped before its component scan when that bound cannot
      beat the best.
    A smaller ratio replaces the best, and an equal one does when S is the
    smaller mask over G.vertices, so the witness is the first minimiser in
    increasing mask order, as a sweep of all 2^n masks would give; that
    sweep is also the worst case.
    """
    n = G.num_vertices
    if n > _TOUGHNESS_CAP:
        raise SizeRefusal(
            "toughness exact cap", f"{n} vertices exceeds cap {_TOUGHNESS_CAP}"
        )
    verts = list(G.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    for _, u, v in G.edges:
        if u != v:
            adj[idx[u]] |= 1 << idx[v]
            adj[idx[v]] |= 1 << idx[u]
    nbr = _neighbour_tables(adj)
    lo, hi = nbr
    full = (1 << n) - 1
    # the vertices a cut set may hold: two distinct neighbours or more
    bits = [1 << i for i in range(n) if adj[i].bit_count() >= 2]
    # best ratio best_s / best_c, compared by cross-multiplication
    best_s = best_c = 0
    best_set: int | None = None
    for s in range(min(len(bits), n - 1) + 1):
        if best_set is not None and s * best_c > best_s * (n - s):
            break
        for S in map(sum, combinations(bits, s)):
            rest = full ^ S
            if best_set is not None:
                iso = (rest & ~(lo[rest & 255] | hi[rest >> 8])).bit_count()
                most, least = best_s * ((n - s + iso) >> 1), s * best_c
                if least > most or least == most and S > best_set:
                    continue
            comps = len(_mask_components(rest, nbr))
            if comps < 2:
                continue
            if best_set is None or s * best_c < best_s * comps or (
                s * best_c == best_s * comps and S < best_set
            ):
                best_s, best_c, best_set = s, comps, S
    if best_set is None:
        return Toughness(None, None)
    witness = frozenset(verts[i] for i in range(n) if (best_set >> i) & 1)
    return Toughness(Fraction(best_s, best_c), witness)


def _neighbour_tables(adj: list[int]) -> tuple[list[int], list[int]]:
    """(lo, hi) with lo[m] | hi[m2] the neighbour mask of the vertex set
    m | m2 << 8, for adj[i] the neighbour mask of vertex i: one table per
    byte of the mask, so a set's neighbours are two lookups.  The hi table
    has 2^(n - 8) entries, 256 at the callers' caps of 16 vertices."""
    tables = []
    for part in (adj[:8], adj[8:]):
        table = [0]
        for a in part:
            table += [x | a for x in table]
        tables.append(table)
    return tables[0], tables[1]


def _mask_components(rest: int, nbr: tuple[list[int], list[int]]) -> list[int]:
    """Vertex masks of the components of the vertex set `rest`, where nbr
    is the pair of `_neighbour_tables`."""
    lo, hi = nbr
    comps = []
    left = rest
    while left:
        frontier = left & -left
        comp = 0
        while frontier:
            comp |= frontier
            frontier = (lo[frontier & 255] | hi[frontier >> 8]) & rest & ~comp
        comps.append(comp)
        left &= ~comp
    return comps
