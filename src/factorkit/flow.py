"""Dinic max-flow and feasible circulation with lower bounds.

Used by the window-orientation finder and by the window factors of
bipartite hosts (factors._window_flow); capacities are small integers, so
the plain level-graph implementation is exact and fast at this scale.
"""
from __future__ import annotations

from collections import deque


class Dinic:
    def __init__(self, n: int):
        self.n = n
        self.graph: list[list[list[int]]] = [[] for _ in range(n)]  # [to, cap, rev]

    def add_edge(self, u: int, v: int, cap: int) -> tuple[int, int]:
        """Add arc u->v; returns a handle for reading the final flow."""
        self.graph[u].append([v, cap, len(self.graph[v])])
        self.graph[v].append([u, 0, len(self.graph[u]) - 1])
        return u, len(self.graph[u]) - 1

    def flow_on(self, handle: tuple[int, int]) -> int:
        u, i = handle
        arc = self.graph[u][i]
        return self.graph[arc[0]][arc[2]][1]  # residual of the reverse arc

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            q = deque([s])
            while q:
                v = q.popleft()
                for to, cap, _ in self.graph[v]:
                    if cap > 0 and level[to] < 0:
                        level[to] = level[v] + 1
                        q.append(to)
            if level[t] < 0:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed == 0:
                    break
                flow += pushed

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        """Push flow from s to t along one path up the level graph and
        return how much; it[u] is u's next untried arc in this phase.

        The walk is iterative, so a path may be as long as the network: it
        advances along u's first usable arc, and at a dead end it steps
        back and moves its predecessor past the arc that led there.  The
        phase state is passed in, not closed over, so max_flow leaves no
        reference cycle that would keep the network alive until the
        cyclic collector runs."""
        graph = self.graph
        path: list[list[int]] = []  # arcs from s to v
        tails: list[int] = []  # path[i] leaves tails[i]
        v = s
        while v != t:
            arcs = graph[v]
            while it[v] < len(arcs):
                arc = arcs[it[v]]
                if arc[1] > 0 and level[v] < level[arc[0]]:
                    path.append(arc)
                    tails.append(v)
                    v = arc[0]
                    break
                it[v] += 1
            else:
                if not path:
                    return 0
                path.pop()
                v = tails.pop()
                it[v] += 1
        pushed = min(arc[1] for arc in path)
        for arc in path:
            arc[1] -= pushed
            graph[arc[0]][arc[2]][1] += pushed
        return pushed


def feasible_flow(
    n: int,
    arcs: list[tuple[int, int, int, int]],
    s: int,
    t: int,
) -> list[int] | None:
    """Feasible s-t flow respecting lower bounds, or None.

    arcs are (u, v, low, cap); the returned list gives the flow per arc in
    input order.  Implemented as the usual circulation transform: a t->s
    return arc of unbounded capacity plus a super source/sink absorbing the
    lower-bound excesses.
    """
    big = sum(max(c, 0) for _, _, _, c in arcs) + 1
    ss, tt = n, n + 1
    net = Dinic(n + 2)
    handles = []
    excess = [0] * n
    for u, v, low, cap in arcs:
        if low < 0 or cap < low:
            raise ValueError(f"bad bounds [{low}, {cap}]")
        handles.append(net.add_edge(u, v, cap - low))
        excess[v] += low
        excess[u] -= low
    net.add_edge(t, s, big)
    need = 0
    for v in range(n):
        if excess[v] > 0:
            net.add_edge(ss, v, excess[v])
            need += excess[v]
        elif excess[v] < 0:
            net.add_edge(v, tt, -excess[v])
    got = net.max_flow(ss, tt)
    if got != need:
        return None
    return [low + net.flow_on(h) for h, (_, _, low, _) in zip(handles, arcs)]
