"""Maximum cardinality matching in general graphs (blossom contraction).

This is the engine behind the factor searches.  It implements the classic
augmenting-path algorithm with blossom shrinking on array labels: repeated
BFS from each exposed vertex, contracting odd cycles to their base via the
`base` array, O(V^3) overall.  A search keeps the list of vertices it has
labeled: the next search resets only those, and a contraction relabels
only those, since no other vertex can lie in a blossom.  Parallel edges
are harmless and loops are ignored.  Vertices are 0..n-1 here; callers
translate.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence


def maximum_matching(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Mate array for a maximum matching; mate[v] = -1 when v is exposed.

    Self-loops are ignored; parallel edges are harmless.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u == v:
            continue
        adj[u].append(v)
        adj[v].append(u)

    match = [-1] * n
    # cheap greedy seed cuts the number of augmenting searches
    for v in range(n):
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v] = w
                    match[w] = v
                    break

    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    # every vertex the current search labeled (even or odd); only these
    # have p, base or used entries to reset, and only these can lie in
    # a blossom
    tree: list[int] = []

    def lca(a: int, b: int) -> int:
        on_path: set[int] = set()
        while True:
            a = base[a]
            on_path.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if b in on_path:
                return b
            b = p[match[b]]

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
        used[root] = True
        tree.append(root)
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle: contract the blossom to its base
                    curbase = lca(v, to)
                    blossom: set[int] = set()
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in tree:
                        if base[i] in blossom:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
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
                    used[match[to]] = True
                    tree.append(match[to])
                    q.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_path(v)

    for v in range(n):
        if match[v] != -1 and match[match[v]] != v:
            raise AssertionError("matching engine produced an inconsistent mate array")
    return match


def perfect_matching(n: int, edges: Sequence[tuple[int, int]]) -> list[int] | None:
    """Mate array of a perfect matching, or None when none exists."""
    if n % 2 == 1:
        return None
    match = maximum_matching(n, edges)
    if any(m == -1 for m in match):
        return None
    return match
