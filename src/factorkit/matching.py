"""Maximum cardinality matching in general graphs (blossom contraction).

This is the engine behind the factor searches.  It implements Edmonds'
augmenting-path algorithm ("Paths, trees, and flowers", 1965) with blossom
shrinking on array labels: one BFS from each exposed vertex, contracting
odd cycles to their base via the flat `base` array, O(V^3) overall at
worst.  A greedy seed runs first, from the highest vertex number down, so
that a caller can number the vertices it wants matched first highest.  A
search keeps the list of vertices it has labeled, and the next search
resets only those.  Each blossom base of the current search keeps the
list of its members, so a contraction relabels only the members of the
bases on its two paths, at a cost set by the blossom's size, not the
tree's (as in Gabow, "An efficient implementation of Edmonds' algorithm
for maximum matching on graphs", J. ACM 23, 1976).  Parallel edges are
harmless and loops are ignored.  Vertices are 0..n-1 here; callers
translate.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence


def maximum_matching(
    n: int, edges: Iterable[tuple[int, int]], *, _stop_at_failure: bool = False
) -> list[int]:
    """Mate array for a maximum matching; mate[v] = -1 when v is exposed.

    Self-loops are ignored; parallel edges are harmless.  The greedy seed
    takes the vertices from n - 1 down, each matched to its first exposed
    neighbour in edge order, and then one augmenting search runs from each
    vertex still exposed, in increasing order.  The window gadget of
    factors._window_matching numbers its end nodes first, so its must,
    optional, port and chain nodes are seeded before them, and the slack
    nodes claim end nodes before any host edge is taken.

    perfect_matching alone passes _stop_at_failure, which ends the run at
    the first search that finds no augmenting path and leaves its root
    exposed.  It runs through this function, not beside it, so that a
    wrapper of maximum_matching (the benchmark's layer trace) still sees
    every matcher run.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u == v:
            continue
        adj[u].append(v)
        adj[v].append(u)

    match = [-1] * n
    # cheap greedy seed cuts the number of augmenting searches
    for v in range(n - 1, -1, -1):
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v] = w
                    match[w] = v
                    break

    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    # every vertex the current search labeled (even or odd), in label
    # order; only these have p, base or used entries to reset, and only
    # these can lie in a blossom.  at[v] is v's position in tree.
    tree: list[int] = []
    at = [0] * n
    # the vertices of each contracted blossom, by its base; a base with
    # no entry stands for itself alone
    members: dict[int, list[int]] = {}

    def lca(a: int, b: int) -> int:
        # walk both paths up in turn: the first base seen twice is where
        # they meet, so the walk is as long as the blossom's two paths
        seen: set[int] = set()
        while True:
            if a != -1:
                a = base[a]
                if a in seen:
                    return a
                seen.add(a)
                a = -1 if match[a] == -1 else p[match[a]]
            a, b = b, a

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        for i in tree:
            p[i] = -1
            base[i] = i
            used[i] = False
        tree.clear()
        members.clear()
        used[root] = True
        at[root] = 0
        tree.append(root)
        q = deque([root])
        while q:
            v = q.popleft()
            mv = match[v]
            for to in adj[v]:
                if base[v] == base[to] or mv == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle: contract the blossom to its base
                    curbase = lca(v, to)
                    blossom: set[int] = set()
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    merged = members.setdefault(curbase, [curbase])
                    odd: list[int] = []
                    for b in blossom:
                        inside = members.pop(b, None) or [b]
                        for i in inside:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                odd.append(i)
                        merged.extend(inside)
                    # the blossom's odd vertices turn even in label order
                    odd.sort(key=at.__getitem__)
                    q.extend(odd)
                elif p[to] == -1:
                    p[to] = v
                    at[to] = len(tree)
                    tree.append(to)
                    if match[to] == -1:
                        # augment along root..to
                        while to != -1:
                            pv = p[to]
                            ppv = match[pv]
                            match[to] = pv
                            match[pv] = to
                            to = ppv
                        return True
                    mate = match[to]
                    used[mate] = True
                    at[mate] = len(tree)
                    tree.append(mate)
                    q.append(mate)
        return False

    for v in range(n):
        if match[v] == -1 and not find_path(v) and _stop_at_failure:
            break

    for v in range(n):
        if match[v] != -1 and match[match[v]] != v:
            raise AssertionError("matching engine produced an inconsistent mate array")
    return match


def perfect_matching(n: int, edges: Sequence[tuple[int, int]]) -> list[int] | None:
    """Mate array of a perfect matching, or None when none exists.

    The run stops at the first augmenting search that fails.  That is
    exact: if some perfect matching M* exists and r is exposed in the
    current matching M, the component of M and M* symmetric difference at
    r is an M-augmenting path from r, which the search from r would have
    found.
    """
    if n % 2 == 1:
        return None
    match = maximum_matching(n, edges, _stop_at_failure=True)
    if -1 in match:
        return None
    return match
