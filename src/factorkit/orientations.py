"""Orientations of multigraphs and the factor/orientation correspondence.

Out-degree convention: a loop contributes exactly 1 to the out-degree of
its vertex, so the out-degrees of any orientation sum to |E|.

The interval finder is one lower/upper-bounded flow.  The other two are
factors of the edge-vertex incidence graph, where each edge keeps the end
that is its tail: Euler circuits colour the half-degree one, and
find_two_point_factor decides the two-point one, in one exact call while
no gap q - p exceeds 2: the incidence graph is bipartite, so that call is
a feasible flow unless some gap is 2, a parity window for the matcher.
The theorem pipelines ask that finder on the host itself, since on a
bipartite host the X-to-Y edges of an orientation are a factor.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import UNKNOWN, HypothesisError, InputError, Unknown
from .factors import _euler_half_factor, find_two_point_factor
from .flow import feasible_flow
from .graph import Bipartition, Factor, MultiGraph, validate_window

VertexMap = Mapping[int, int]


@dataclass(frozen=True)
class Orientation:
    """Direction (tail, head) per edge id of the host; loops are (v, v)."""

    host: MultiGraph
    directions: Mapping[int, tuple[int, int]]

    def __post_init__(self):
        dirs = dict(self.directions)
        if set(dirs) != set(self.host.edge_ids):
            raise InputError("orientation must direct every edge exactly once")
        for eid, (tail, head) in dirs.items():
            u, v = self.host.endpoints(eid)
            if {tail, head} != {u, v}:
                raise InputError(f"edge {eid} directed between wrong endpoints")
        object.__setattr__(self, "directions", dirs)

    def outdegrees(self) -> dict[int, int]:
        out = {v: 0 for v in self.host.vertices}
        for tail, _ in self.directions.values():
            out[tail] += 1
        return out


def _incidence_graph(G: MultiGraph) -> tuple[MultiGraph, range]:
    """G's edge-vertex incidence graph and its edge nodes: non-loop edge j
    is node j, with incidence edges 2j + 1 (to its first end) and 2j + 2;
    loops get no node."""
    nonloop = [(u, v) for _, u, v in G.edges if u != v]
    base = max(G.vertices, default=0) + 1
    nodes = range(base, base + len(nonloop))
    incidence = MultiGraph(
        [*G.vertices, *nodes], [(x, end) for x, uv in zip(nodes, nonloop) for end in uv]
    )
    return incidence, nodes


def _oriented(G: MultiGraph, F: Factor) -> Orientation:
    """The orientation whose non-loop edges leave the end their node keeps
    in the factor F of _incidence_graph(G); loops are (v, v)."""
    directions = {eid: (u, v) for eid, u, v in G.edges if u == v}
    nonloop = [(eid, u, v) for eid, u, v in G.edges if u != v]
    for j, (eid, u, v) in enumerate(nonloop):
        directions[eid] = (u, v) if 2 * j + 1 in F.edge_ids else (v, u)
    return Orientation(G, directions)


def eulerian_orientation(G: MultiGraph) -> Orientation:
    """Orientation with d+(v) = d(v)/2 everywhere; needs all degrees even.

    The incidence graph's half-degree factor: an edge node keeps 1 of its
    2 ends, and v its d(v)/2 minus its loops.  Every component has an
    even edge count there, so the Euler circuits always colour it.
    """
    for v in G.vertices:
        if G.degree(v) % 2 == 1:
            raise HypothesisError("even degrees", f"vertex {v} has odd degree")
    out = _oriented(G, _euler_half_factor(_incidence_graph(G)[0], {}))
    outdeg = out.outdegrees()
    for v in G.vertices:
        if outdeg[v] != G.degree(v) // 2:
            raise AssertionError("the circuit colouring missed the half-degree law")
    return out


def interval_orientation(
    G: MultiGraph, p: VertexMap, q: VertexMap
) -> Orientation | None:
    """Orientation with p(v) <= d+(v) <= q(v) everywhere, or None.  Exact."""
    validate_window(G, p, q, "pq")
    verts = list(G.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    nonloop = [(eid, u, v) for eid, u, v in G.edges if u != v]
    n = len(verts)

    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for v in verts:
        loops = G.loops_at(v)
        nl = G.degree(v) - 2 * loops
        l = max(0, p[v] - loops)
        h = min(nl, q[v] - loops)
        if h < 0 or l > h:
            return None
        lo[v], hi[v] = l, h

    s = 0
    vstart = 1
    estart = vstart + n
    t = estart + len(nonloop)
    arcs: list[tuple[int, int, int, int]] = []
    for j, (eid, u, v) in enumerate(nonloop):
        arcs.append((s, estart + j, 1, 1))
        arcs.append((estart + j, vstart + idx[u], 0, 1))
        arcs.append((estart + j, vstart + idx[v], 0, 1))
    for v in verts:
        arcs.append((vstart + idx[v], t, lo[v], hi[v]))
    flows = feasible_flow(t + 1, arcs, s, t)
    if flows is None:
        return None

    directions: dict[int, tuple[int, int]] = {}
    pos = 0
    for j, (eid, u, v) in enumerate(nonloop):
        to_u = flows[pos + 1]
        directions[eid] = (u, v) if to_u else (v, u)
        pos += 3
    for eid, u, v in G.edges:
        if u == v:
            directions[eid] = (u, v)
    out = Orientation(G, directions)
    outdeg = out.outdegrees()
    for v in verts:
        if not p[v] <= outdeg[v] <= q[v]:
            raise AssertionError("flow step broke its own bounds")
    return out


def two_point_orientation(
    G: MultiGraph,
    p: VertexMap,
    q: VertexMap,
    seed: int = 0,
) -> Orientation | None | Unknown:
    """Orientation with d+(v) in {p(v), q(v)} everywhere, or None, or UNKNOWN.

    The orientation is a two-point factor of the edge-vertex incidence
    graph, which find_two_point_factor finds: each non-loop edge is a node
    held at degree exactly 1 and joined to both of its ends, the end it
    keeps is its tail, and the loops at v, each an out-edge of v, lower
    p(v) and q(v).  So one exact call decides while no gap q - p exceeds 2
    (a flow, or a matching when some gap is 2), and UNKNOWN needs more
    than 20 vertices with a gap of 3 or more.
    """
    validate_window(G, p, q, "pq")
    incidence, nodes = _incidence_graph(G)
    lo = {v: p[v] - G.loops_at(v) for v in G.vertices} | dict.fromkeys(nodes, 1)
    hi = {v: q[v] - G.loops_at(v) for v in G.vertices} | dict.fromkeys(nodes, 1)
    F = find_two_point_factor(incidence, lo, hi, seed=seed)
    if F is None or F is UNKNOWN:
        return F
    return _oriented(G, F)


# -- factor/orientation correspondence ----------------------------------


def orientation_from_factor(G: MultiGraph, P: Bipartition, F: Factor) -> Orientation:
    """Direct F's edges X to Y and the rest Y to X; G must be bipartite on P."""
    _require_bipartite(G, P)
    if F.host is not G:
        raise InputError("factor lives on a different host")
    directions = {}
    for eid, u, v in G.edges:
        xend, yend = (u, v) if u in P.X else (v, u)
        directions[eid] = (xend, yend) if eid in F.edge_ids else (yend, xend)
    return Orientation(G, directions)


def factor_from_orientation(G: MultiGraph, P: Bipartition, D: Orientation) -> Factor:
    """Keep exactly the X-to-Y directed edges.

    Degree law: d_F(v) = d+(v) on X and d(v) - d+(v) on Y.
    """
    _require_bipartite(G, P)
    if D.host is not G:
        raise InputError("orientation lives on a different host")
    picked = {
        eid for eid, (tail, head) in D.directions.items() if tail in P.X
    }
    return Factor(G, frozenset(picked))


def _require_bipartite(G: MultiGraph, P: Bipartition) -> None:
    if not G.is_bipartite_with(P):
        raise InputError("graph is not bipartite with the given sides")
