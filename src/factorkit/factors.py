"""Degree-constrained factors: deficiency criteria, exact finders, and the
exhaustive oracle.

The finder stack is: one window engine for degree windows g <= d_F <= f,
whose exact targets are the windows with g = f, and whose back-end the
host picks.  A bipartite host with no parity window is a feasible flow
(flow.py) through its vertices' windows; any other host goes to blossom
matching (matching.py) under one window gadget, linear in the summed
window width, which also takes parity windows {g, g+2}.  For two-point
targets a selector enumeration over the gaps f - g of 3 or more sits on
top of that (a gap of at most 1 is an interval, a gap of 2 a parity
window).  Half-degree factors on even hosts, shifted by at most 1 at one
vertex, need no matching: one alternately coloured Euler circuit per
component gives them.  The oracle (enumerate_factors) shares none of that
machinery; it walks all edge subsets in Gray-code order so the two routes
stay independent witnesses against each other.
"""
from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .connectivity import _mask_components
from .errors import InputError, SizeRefusal, UNKNOWN, Unknown
from .flow import feasible_flow
from .graph import Bipartition, Factor, MultiGraph, validate_vertex_map
from .matching import perfect_matching

VertexMap = Mapping[int, int]
T = TypeVar("T")
# the exact criterion sweeps' vertex cap: 3^14 (A, B) pairs
_CRITERION_CAP = 14


# -- deficiency criteria -------------------------------------------------


def omega_gf(
    G: MultiGraph,
    A: Iterable[int],
    B: Iterable[int],
    g: VertexMap,
    f: VertexMap,
) -> int:
    """Count components C of G - (A u B) with g = f on C and
    d(V(C), B) not congruent to sum of f over C (mod 2).

    Loops never reach B, so they do not enter the cross count.
    """
    As = G._check_vertices(A)
    Bs = G._check_vertices(B)
    if As & Bs:
        raise InputError("A and B must be disjoint")
    validate_vertex_map(G, g, "g")
    validate_vertex_map(G, f, "f")
    rest = G.without_vertices(As | Bs)
    count = 0
    for comp in rest.components():
        if any(g[v] != f[v] for v in comp):
            continue
        cross = sum(
            1
            for _, u, v in G.edges
            if u != v and ((u in comp and v in Bs) or (v in comp and u in Bs))
        )
        if cross % 2 != sum(f[v] for v in comp) % 2:
            count += 1
    return count


def lovasz_deficiency(
    G: MultiGraph,
    A: Iterable[int],
    B: Iterable[int],
    g: VertexMap,
    f: VertexMap,
) -> int:
    """RHS minus omega for the pair (A, B); nonnegative everywhere iff the
    (g, f) criterion holds."""
    As = G._check_vertices(A)
    Bs = G._check_vertices(B)
    if As & Bs:
        raise InputError("A and B must be disjoint")
    rhs = sum(f[v] for v in As)
    for v in Bs:
        d_minus_a = G.degree(v) - sum(
            1 for _, x, y in G.edges if x != y and ((x == v and y in As) or (y == v and x in As))
        )
        rhs += d_minus_a - g[v]
    return rhs - omega_gf(G, As, Bs, g, f)


def _criterion_sweep(
    G: MultiGraph,
    g: VertexMap,
    f: VertexMap,
    strict: bool,
    skip_empty: bool,
):
    """Shared (A, B) sweep; returns the first violating pair or None.

    strict mode checks omega < 2 + RHS instead of omega <= RHS.  Pairs come
    in one fixed order: S = A u B by increasing mask over G.vertices, then
    A over the sub-masks of S from S itself down to the empty set.

    Three subset tables, built once, make the RHS O(1) per pair.  With E[M]
    the non-loop edges inside M (with multiplicity), P[M] = f(M) + E[M] and
    Q[M] = (d - g)(M) + E[M], the identity e(A, B) = E[A u B] - E[A] - E[B]
    gives RHS = f(A) + (d - g)(B) - e(A, B) = P[A] + Q[B] - E[A u B].
    For omega, each tight component C (g = f on C) of G - S carries the
    XOR of its vertices' odd masks, where vertex i's odd mask holds the
    vertices joined to i by an odd number of edges; e(C, B) is odd exactly
    when that mask meets B in an odd number of vertices.
    """
    verts = list(G.vertices)
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    deg = [G.degree(v) for v in verts]
    gl = [g[v] for v in verts]
    fl = [f[v] for v in verts]
    mult = [[0] * n for _ in range(n)]
    adjmask = [0] * n
    oddmask = [0] * n
    for _, u, v in G.edges:
        if u == v:
            continue
        ui, vi = idx[u], idx[v]
        mult[ui][vi] += 1
        mult[vi][ui] += 1
        adjmask[ui] |= 1 << vi
        adjmask[vi] |= 1 << ui
        oddmask[ui] ^= 1 << vi
        oddmask[vi] ^= 1 << ui
    size = 1 << n
    full = size - 1

    # each mask is top | m with top its highest vertex h and m < top
    E = [0] * size
    P = [0] * size
    Q = [0] * size
    for h in range(n):
        top = 1 << h
        row = mult[h]
        into = [0] * top  # into[m]: edges from vertex h into m
        for m in range(1, top):
            low = m & -m
            into[m] = into[m ^ low] + row[low.bit_length() - 1]
        fh, qh = fl[h], deg[h] - gl[h]
        for m in range(top):
            E[top | m] = E[m] + into[m]
            P[top | m] = P[m] + fh + into[m]
            Q[top | m] = Q[m] + qh + into[m]

    for S in range(size):
        if skip_empty and S == 0:
            continue
        comps = []  # (parity of f-sum, odd mask) per tight component
        for comp in _mask_components(full & ~S, adjmask):
            par = odd = 0
            cm = comp
            while cm:
                b = cm & -cm
                cm ^= b
                i = b.bit_length() - 1
                if gl[i] != fl[i]:
                    break
                par ^= fl[i] & 1
                odd ^= oddmask[i]
            else:
                comps.append((par, odd))
        ES = E[S]
        sub = S
        while True:
            B = S ^ sub
            omega = 0
            for par, odd in comps:
                if ((odd & B).bit_count() & 1) != par:
                    omega += 1
            rhs = P[sub] + Q[B] - ES
            bad = omega >= rhs + 2 if strict else omega > rhs
            if bad:
                Aset = frozenset(verts[i] for i in range(n) if (sub >> i) & 1)
                Bset = frozenset(verts[i] for i in range(n) if (B >> i) & 1)
                return Aset, Bset
            if sub == 0:
                break
            sub = (sub - 1) & S
    return None


def check_lovasz_condition(
    G: MultiGraph, g: VertexMap, f: VertexMap
) -> tuple[bool, tuple[frozenset[int], frozenset[int]] | None]:
    """Exhaustive (g, f) criterion over all disjoint (A, B); witness on failure.

    The witness is the first violating pair in _criterion_sweep's order.
    Cost: 3^n pairs with O(#tight components) work each, on top of three
    2^n-entry subset tables and one component scan per A u B.
    """
    validate_vertex_map(G, g, "g")
    validate_vertex_map(G, f, "f")
    if any(g[v] > f[v] for v in G.vertices):
        raise InputError("need g <= f")
    if G.num_vertices > _CRITERION_CAP:
        raise SizeRefusal("criterion sweep cap", f"{G.num_vertices} > {_CRITERION_CAP}")
    witness = _criterion_sweep(G, g, f, strict=False, skip_empty=False)
    return witness is None, witness


def check_tutte_strict_form(
    G: MultiGraph, f: VertexMap
) -> tuple[bool, tuple[frozenset[int], frozenset[int]] | None]:
    """Strict-inequality form of the f-factor criterion for connected G with
    even f-sum, quantified over nonempty A u B."""
    validate_vertex_map(G, f, "f")
    if not G.is_connected():
        raise InputError("strict form needs a connected graph")
    if sum(f[v] for v in G.vertices) % 2 != 0:
        raise InputError("strict form needs an even f-sum")
    if G.num_vertices > _CRITERION_CAP:
        raise SizeRefusal("criterion sweep cap", f"{G.num_vertices} > {_CRITERION_CAP}")
    witness = _criterion_sweep(G, f, f, strict=True, skip_empty=True)
    return witness is None, witness


# -- exact finders -------------------------------------------------------


def find_f_factor(G: MultiGraph, f: VertexMap) -> Factor | None:
    """Factor with d_F(v) = f(v) for every v, or None.

    The window engine of _window_factor with lo = hi = f.  On the
    matcher's gadget that means no ports and no chain, so each vertex v
    gets d(v) - f(v) must nodes and nothing else.  The host's own edges go
    in, in G's edge order; every edge end has its own gadget node, so
    parallel edges and loops need no preparation.
    """
    validate_vertex_map(G, f, "f")
    for v in G.vertices:
        if not 0 <= f[v] <= G.degree(v):
            raise InputError(f"need 0 <= f({v}) <= d({v})")
    if sum(f[v] for v in G.vertices) % 2 == 1:
        return None
    return _window_factor(G, f, f)


def _euler_half_factor(G: MultiGraph, i: VertexMap) -> Factor | None:
    """Factor with d_F(v) = d(v)/2 + i(v) on a host with all degrees even,
    where i is 0 off its keys and sum |i| <= 1, or None.

    Petersen's alternating-circuit argument, linear in |E|: walk an Euler
    circuit of each component, the shifted vertex z's from z and every
    other one from its first vertex, and keep alternate edges.  Each pass
    through a vertex leaves by the other colour than it came in, so only a
    circuit's start can miss d/2: not at all when the circuit has even
    length, and by +1 or -1, the colour of its first and last edges, when
    it is odd.  z's circuit is kept from its first edge for i(z) = 1 and
    from its second for i(z) = -1.  This is exact: the targets of a
    component sum to its edge count, plus i(z) on z's, and that sum must
    be even, so a component whose edge count has the other parity has no
    such factor.
    """
    shifted = [(v, s) for v, s in i.items() if s]
    if sum(abs(s) for _, s in shifted) > 1:
        raise InputError("the circuit shifts one vertex by at most 1")
    z, shift = shifted[0] if shifted else (None, 0)
    if z is not None:
        G._check_vertex(z)
    if not G.is_eulerian():
        raise InputError("half-degree factors by circuit need all degrees even")
    # each vertex's incidences are scanned once, across all visits
    unscanned = {v: iter(G.incident(v)) for v in G.vertices}
    used: set[int] = set()
    seen: set[int] = set()
    kept: list[int] = []
    for start in ([z] if z is not None else []) + list(G.vertices):
        if start in seen:
            continue
        seen.add(start)
        # iterative Hierholzer: an edge joins the circuit when the walk
        # backs out of it, so the circuit comes out reversed, from start
        circuit: list[int] = []
        stack: list[tuple[int, int | None]] = [(start, None)]
        while stack:
            v, came_by = stack[-1]
            for eid, w in unscanned[v]:
                if eid not in used:
                    used.add(eid)
                    seen.add(w)
                    stack.append((w, eid))
                    break
            else:
                stack.pop()
                if came_by is not None:
                    circuit.append(came_by)
        at_z = start == z
        if len(circuit) % 2 != at_z:
            return None
        kept += circuit[1 if at_z and shift < 0 else 0 :: 2]
    return Factor(G, frozenset(kept))


def _window_matching(
    vertices: list[int],
    edges: list[tuple[int, int]],
    lo: Mapping[int, int],
    hi: Mapping[int, int],
    pairs: frozenset[int] = frozenset(),
) -> set[int] | None:
    """Edge-index set of a subgraph F with lo(v) <= d_F(v) <= hi(v) at
    every vertex, and d_F(v) in {lo(v), hi(v)} at the vertices in pairs,
    whose windows must have hi = lo + 2, via the window gadget over
    perfect matching; None when there is none.

    Edge i becomes the gadget edge between its end nodes 2i and 2i + 1.
    Each vertex v gets d(v) - hi(v) must nodes and then hi(v) - lo(v)
    optional nodes, each joined to every end node at v.  At a vertex of
    pairs the two optional nodes are also joined to each other (Lovász's
    parity reduction, "The factorization of graphs II", 1972); at every
    other vertex each optional node is a port on one chain
    x1 y1 x2 y2 ...: port i is joined to x_i and y_i, and the chain has
    the edges x_i - y_i and y_i - x_(i+1).  A perfect matching takes edge
    i exactly when it matches 2i to 2i + 1.

    The 2|E| end nodes are numbered first, then the must and optional
    nodes vertex by vertex, then the chain.  The matcher's greedy seed
    runs from the highest node down, so the must, optional, port and
    chain nodes are placed before any end node, and the slack nodes
    claim end nodes before the seed takes any host edge 2i - (2i + 1).
    That leaves far fewer nodes exposed for the augmenting searches than
    a seed that starts at the end nodes.

    Exactness.  Must nodes see only end nodes, so all of them take an end
    node at v, which gives d_F(v) <= hi(v); at most d(v) - lo(v) end
    nodes at v can go to slack, which gives d_F(v) >= lo(v).  A pair
    either matches itself, which leaves d_F(v) = hi(v), or takes two end
    nodes, which leaves lo(v).  The ports no end node takes are free, and
    the chain matches any even set of free ports: they alternate taking x
    then y, and the chain nodes left between them pair up along the
    chain.  At a port vertex v, d_F(v) - lo(v) ports are free, and at a
    pair vertex d_F(v) - lo(v) is 0 or 2, so the free count is congruent
    to the sum of lo (mod 2); when that sum is odd one more port, on the
    chain only, is always free.  Hence a window factor gives a perfect
    matching and back.

    Size: sum of d(v) (d(v) - lo(v)) slack edges, one edge per host edge,
    one per pair and four per port, so the gadget is linear in the summed
    window width.  With lo == hi there is no port and no chain.  Parallel
    edges have their own end nodes, and both end nodes of a loop sit at
    its vertex, so a chosen loop adds 2 to its degree; the gadget graph
    is simple and loopless for any input multigraph.
    """
    deg: dict[int, int] = {v: 0 for v in vertices}
    incident_nodes: dict[int, list[int]] = {v: [] for v in vertices}
    gadget_edges: list[tuple[int, int]] = []
    for i, (u, v) in enumerate(edges):
        deg[u] += 1
        deg[v] += 1
        incident_nodes[u].append(2 * i)
        incident_nodes[v].append(2 * i + 1)
        gadget_edges.append((2 * i, 2 * i + 1))
    for v in vertices:
        if not 0 <= lo[v] <= hi[v] <= deg[v]:
            return None

    node_count = 2 * len(edges)
    ports: list[int] = []
    for v in vertices:
        must = deg[v] - hi[v]
        slack = deg[v] - lo[v]
        for s in range(node_count, node_count + slack):
            for ep in incident_nodes[v]:
                gadget_edges.append((s, ep))
        if v in pairs:
            gadget_edges.append((node_count + must, node_count + must + 1))
        else:
            ports.extend(range(node_count + must, node_count + slack))
        node_count += slack
    if sum(lo[v] for v in vertices) % 2 == 1:
        ports.append(node_count)
        node_count += 1
    for i, port in enumerate(ports):
        x, y = node_count + 2 * i, node_count + 2 * i + 1
        gadget_edges.extend(((port, x), (port, y), (x, y)))
        if i:
            gadget_edges.append((x - 1, x))
    node_count += 2 * len(ports)

    mate = perfect_matching(node_count, gadget_edges)
    if mate is None:
        return None
    return {i for i in range(len(edges)) if mate[2 * i] == 2 * i + 1}


def _window_flow(
    vertices: list[int],
    edges: list[tuple[int, int]],
    lo: Mapping[int, int],
    hi: Mapping[int, int],
    P: Bipartition,
) -> set[int] | None:
    """Edge-index set of a subgraph F with lo(v) <= d_F(v) <= hi(v) at
    every vertex of a host with every edge between the sides of P, via a
    feasible flow; None when there is none.

    The network is s -> x with bounds [lo(x), hi(x)] for x in X, x -> y
    with capacity 1 for each edge, directed from its end in X, and
    y -> t with bounds [lo(y), hi(y)] for y in Y.  A unit of flow
    through an edge's arc is that edge in F, and flow conservation makes
    the vertex arcs carry d_F, so a window factor is a feasible flow and
    back.  Flows are integral, so this is exact.
    """
    n = len(vertices)
    at = {v: i for i, v in enumerate(vertices)}
    s, t = n, n + 1
    arcs = [
        (at[v], t, lo[v], hi[v]) if v in P.Y else (s, at[v], lo[v], hi[v])
        for v in vertices
    ]
    for u, v in edges:
        if u in P.Y:
            u, v = v, u
        arcs.append((at[u], at[v], 0, 1))
    flows = feasible_flow(n + 2, arcs, s, t)
    if flows is None:
        return None
    return {i for i, x in enumerate(flows[n:]) if x}


def find_interval_factor(
    G: MultiGraph, g: VertexMap, f: VertexMap
) -> Factor | None:
    """Factor with g(v) <= d_F(v) <= f(v) everywhere, or None.

    The window is first clipped to [max(0, g(v)), min(d(v), f(v))]; an
    empty clipped window means no factor.  Then one exact call decides:
    the feasible flow of _window_flow on a bipartite host, otherwise
    _window_matching, on a gadget linear in the summed window width,
    where each unit of f - g is one optional slack node on the shared
    parity chain.  G's edges go in, in G's edge order, so the chosen
    indices map back to G's edge ids.
    """
    validate_vertex_map(G, g, "g")
    validate_vertex_map(G, f, "f")
    if any(g[v] > f[v] for v in G.vertices):
        raise InputError("need g <= f")
    return _window_factor(G, g, f)


def _window_factor(
    G: MultiGraph, g: VertexMap, f: VertexMap, pairs: frozenset[int] = frozenset()
) -> Factor | None:
    """find_interval_factor past its input checks, with the parity windows
    {g, g+2} of _window_matching at pairs, which must lie in [0, d].

    The host picks the engine: a bipartite host with no parity window is
    decided by the feasible flow of _window_flow, and any other host
    (an odd cycle, a loop, or a parity window, which no flow bound
    expresses) by the matching gadget of _window_matching.  Either way
    the chosen edges are checked against the windows before they are
    returned.
    """
    lo = {v: max(0, g[v]) for v in G.vertices}
    hi = {v: min(G.degree(v), f[v]) for v in G.vertices}
    if any(lo[v] > hi[v] for v in G.vertices):
        return None
    ids = list(G.edge_ids)
    vertices = list(G.vertices)
    edges = [G.endpoints(eid) for eid in ids]
    P = None if pairs else G.bipartition()
    if P is None:
        chosen = _window_matching(vertices, edges, lo, hi, pairs)
    else:
        chosen = _window_flow(vertices, edges, lo, hi, P)
    if chosen is None:
        return None
    factor = Factor(G, frozenset(ids[i] for i in chosen))
    got = factor.degrees()
    if any(
        not lo[v] <= got[v] <= hi[v] or (v in pairs and got[v] not in (lo[v], hi[v]))
        for v in vertices
    ):
        raise AssertionError("factor reconstruction missed its windows")
    return factor


def find_two_point_factor(
    G: MultiGraph,
    g: VertexMap,
    f: VertexMap,
    pin: tuple[int, int] | None = None,
    seed: int = 0,
) -> Factor | None | Unknown:
    """Factor with d_F(v) in {g(v), f(v)} everywhere, or None, or UNKNOWN.

    pin = (z, value) additionally fixes d_F(z) = value.  A gap f - g of at
    most 1 is the interval [g, f] and a gap of 2 the parity window of
    _window_matching; a gap of 2 with one end outside [0, d(v)] is its
    other end.  Each gap of 3 or more is pinned to g or f by a selector,
    and each selector is decided exactly by one call of _window_factor:
    a feasible flow when the host is bipartite and no parity window is
    left, one matching otherwise.  So with no gap of 3 or more (k <= 2)
    one call decides.  The search is complete while at most 20 vertices
    have a gap of 3 or more; beyond that a seeded sample of selectors is
    tried and exhaustion reports UNKNOWN rather than none.  Windows that miss two or more consecutive values
    are the NP-complete case of general factors (Cornuéjols 1988).
    """
    validate_vertex_map(G, g, "g")
    validate_vertex_map(G, f, "f")
    if any(g[v] > f[v] for v in G.vertices):
        raise InputError("need g <= f")
    lo = {v: g[v] for v in G.vertices}
    hi = {v: f[v] for v in G.vertices}
    if pin is not None:
        z, val = pin
        G._check_vertex(z)
        if val not in (g[z], f[z]):
            raise InputError(f"pinned value {val} is neither g({z}) nor f({z})")
        lo[z] = hi[z] = val
    pairs = set()
    wide = []
    for v in G.vertices:
        gap = hi[v] - lo[v]
        if gap == 2:
            # a parity window with an end outside [0, d] keeps the other end
            if hi[v] > G.degree(v):
                hi[v] = lo[v]
            elif lo[v] < 0:
                lo[v] = hi[v]
            else:
                pairs.add(v)
        elif gap >= 3:
            wide.append((v, gap))
            hi[v] = lo[v]
    pairs = frozenset(pairs)

    def attempt(selected: set[int]) -> Factor | None:
        a, b = dict(lo), dict(hi)
        for v in selected:
            a[v] = b[v] = f[v]
        return _window_factor(G, a, b, pairs)

    return _selector_search(wide, attempt, seed)


# -- selector search -----------------------------------------------------


def _selector_subsets(
    gaps: list[tuple[int, int]], target: int
) -> Iterator[set[int]]:
    """Vertex subsets whose gap values sum to target (gaps all positive)."""
    gaps = sorted(gaps, key=lambda t: -t[1])
    suffix = [0] * (len(gaps) + 1)
    for i in range(len(gaps) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + gaps[i][1]

    # depth first, taking gaps[i] before leaving it out
    stack = [(0, target, ())]
    while stack:
        i, left, chosen = stack.pop()
        if left == 0:
            # gaps are positive, so no proper superset can also hit the target
            yield set(chosen)
            continue
        if i >= len(gaps) or left < 0 or left > suffix[i]:
            continue
        v, w = gaps[i]
        stack.append((i + 1, left, chosen))
        stack.append((i + 1, left - w, chosen + (v,)))


# the complete search's cap on selector gaps, and the sample drawn past it
_SELECTOR_CAP = 20
_SELECTOR_BUDGET = 2000


def _selector_search(
    gaps: list[tuple[int, int]],
    attempt: Callable[[set[int]], T | None],
    seed: int,
) -> T | None | Unknown:
    """First non-None attempt(S) over the vertex sets S of gaps.

    The two-point finder passes only the gaps it cannot decide in one
    exact call; with none, the one set S = {} is tried.  Complete while
    there are at most _SELECTOR_CAP gaps: every S is tried, grouped by
    the sum of its gaps, smallest first.  Beyond the cap,
    _SELECTOR_BUDGET seeded random subsets are tried, and exhaustion
    reports UNKNOWN rather than none.
    """
    if len(gaps) <= _SELECTOR_CAP:
        for total in range(sum(w for _, w in gaps) + 1):
            for subset in _selector_subsets(gaps, total):
                got = attempt(subset)
                if got is not None:
                    return got
        return None

    rng = random.Random(seed)
    for _ in range(_SELECTOR_BUDGET):
        got = attempt({v for v, _ in gaps if rng.random() < 0.5})
        if got is not None:
            return got
    return UNKNOWN


# -- exhaustive oracle ---------------------------------------------------


def enumerate_factors(
    G: MultiGraph,
    predicate: Callable[[dict[int, int]], bool] | None = None,
    cap: int = 20,
) -> list[Factor]:
    """All edge subsets whose degree vectors satisfy the predicate.

    Pure Gray-code enumeration, independent of every finder above; this is
    the oracle that the clever routes are tested against.
    """
    m = G.num_edges
    if m > cap:
        raise SizeRefusal("oracle cap", f"{m} edges exceeds cap {cap}")
    ids = list(G.edge_ids)
    ends = [G.endpoints(eid) for eid in ids]
    degs = {v: 0 for v in G.vertices}
    in_set = [False] * m
    out: list[Factor] = []

    def flip(j: int) -> None:
        u, v = ends[j]
        delta = -1 if in_set[j] else 1
        if u == v:
            degs[u] += 2 * delta
        else:
            degs[u] += delta
            degs[v] += delta
        in_set[j] = not in_set[j]

    if predicate is None or predicate(degs):
        out.append(Factor(G, frozenset()))
    for i in range(1, 1 << m):
        flip((i & -i).bit_length() - 1)
        if predicate is None or predicate(degs):
            out.append(Factor(G, frozenset(ids[j] for j in range(m) if in_set[j])))
    return out


def factor_exists(
    G: MultiGraph,
    predicate: Callable[[dict[int, int]], bool],
    cap: int = 20,
) -> bool:
    """Early-exit variant of enumerate_factors."""
    m = G.num_edges
    if m > cap:
        raise SizeRefusal("oracle cap", f"{m} edges exceeds cap {cap}")
    ids = list(G.edge_ids)
    ends = [G.endpoints(eid) for eid in ids]
    degs = {v: 0 for v in G.vertices}
    in_set = [False] * m
    if predicate(degs):
        return True
    for i in range(1, 1 << m):
        j = (i & -i).bit_length() - 1
        u, v = ends[j]
        delta = -1 if in_set[j] else 1
        if u == v:
            degs[u] += 2 * delta
        else:
            degs[u] += delta
            degs[v] += delta
        in_set[j] = not in_set[j]
        if predicate(degs):
            return True
    return False
