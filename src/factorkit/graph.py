"""Multigraph model: stable edge ids, loop-aware counting, bipartitions,
factors, and the text format.

Degree conventions used everywhere in this package:

* d(v) counts a loop at v twice.
* e(X), the intra count of a vertex set, counts a loop once.
* d(X) and d(X, Y) count loopless boundary edges only; a loop never leaves
  its vertex, so it never contributes to a cut or a cross count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import GraphParseError, InputError

Edge = tuple[int, int, int]  # (edge id, u, v)


class MultiGraph:
    """Undirected multigraph with loops, parallel edges, and stable edge ids.

    Vertices are positive integers and keep their construction order.
    Edges are given either as (u, v) pairs, in which case ids 1..m are
    assigned in order, or as explicit (id, u, v) triples.  Edge ids survive
    every factor and decomposition, so results stay reportable against the
    original input.  Instances are immutable.
    """

    __slots__ = ("_vertices", "_vset", "_edges", "_by_id", "_adj", "_deg", "_loops")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple] = ()):
        vs: list[int] = []
        seen: set[int] = set()
        for v in vertices:
            v = int(v)
            if v <= 0:
                raise InputError(f"vertex ids must be positive, got {v}")
            if v in seen:
                raise InputError(f"duplicate vertex {v}")
            seen.add(v)
            vs.append(v)
        self._vertices = tuple(vs)
        self._vset = frozenset(vs)

        raw = [tuple(map(int, e)) for e in edges]
        if raw and len({len(e) for e in raw}) > 1:
            raise InputError("mix of (u, v) and (id, u, v) edge forms")
        triples: list[Edge] = []
        if raw and len(raw[0]) == 2:
            triples = [(i + 1, u, v) for i, (u, v) in enumerate(raw)]
        else:
            for e in raw:
                if len(e) != 3:
                    raise InputError(f"edge must be (u, v) or (id, u, v), got {e}")
                triples.append(e)  # type: ignore[arg-type]

        by_id: dict[int, tuple[int, int]] = {}
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in vs}
        deg: dict[int, int] = {v: 0 for v in vs}
        loops: dict[int, int] = {v: 0 for v in vs}
        for eid, u, v in triples:
            if eid <= 0:
                raise InputError(f"edge ids must be positive, got {eid}")
            if eid in by_id:
                raise InputError(f"duplicate edge id {eid}")
            if u not in self._vset or v not in self._vset:
                raise InputError(f"edge {eid} touches unknown vertex ({u}, {v})")
            by_id[eid] = (u, v)
            adj[u].append((eid, v))
            if u != v:
                adj[v].append((eid, u))
                deg[u] += 1
                deg[v] += 1
            else:
                deg[u] += 2
                loops[u] += 1
        self._edges = tuple(triples)
        self._by_id = by_id
        self._adj = {v: tuple(inc) for v, inc in adj.items()}
        self._deg = deg
        self._loops = loops

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def vertex_set(self) -> frozenset[int]:
        return self._vset

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e[0] for e in self._edges)

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def has_vertex(self, v: int) -> bool:
        return v in self._vset

    def has_edge_id(self, eid: int) -> bool:
        return eid in self._by_id

    def endpoints(self, eid: int) -> tuple[int, int]:
        try:
            return self._by_id[eid]
        except KeyError:
            raise InputError(f"unknown edge id {eid}") from None

    def is_loop(self, eid: int) -> bool:
        u, v = self.endpoints(eid)
        return u == v

    def degree(self, v: int) -> int:
        """Degree of v; a loop counts twice."""
        self._check_vertex(v)
        return self._deg[v]

    def degrees(self) -> dict[int, int]:
        return dict(self._deg)

    def loops_at(self, v: int) -> int:
        self._check_vertex(v)
        return self._loops[v]

    def incident(self, v: int) -> tuple[tuple[int, int], ...]:
        """Incidences (eid, other endpoint); a loop appears once, as (eid, v)."""
        self._check_vertex(v)
        return self._adj[v]

    def _check_vertex(self, v: int) -> None:
        if v not in self._vset:
            raise InputError(f"unknown vertex {v}")

    def _check_vertices(self, X: Iterable[int]) -> frozenset[int]:
        Xs = frozenset(X)
        bad = Xs - self._vset
        if bad:
            raise InputError(f"unknown vertices {sorted(bad)}")
        return Xs

    # -- structure -------------------------------------------------------

    def components(self) -> list[frozenset[int]]:
        """Connected components as vertex sets, ordered by smallest member."""
        unseen = set(self._vertices)
        comps = []
        for start in self._vertices:
            if start not in unseen:
                continue
            stack = [start]
            unseen.discard(start)
            comp = {start}
            while stack:
                v = stack.pop()
                for _, w in self._adj[v]:
                    if w in unseen:
                        unseen.discard(w)
                        comp.add(w)
                        stack.append(w)
            comps.append(frozenset(comp))
        comps.sort(key=min)
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def is_eulerian(self) -> bool:
        """All degrees even.  Connectivity, when needed, is hypothesised separately."""
        return all(d % 2 == 0 for d in self._deg.values())

    def bipartition(self) -> "Bipartition | None":
        """A bipartition with every edge between its sides, or None at the
        first odd cycle found; a loop is one.  A 2-colouring in linear
        time: each component's first vertex in G's order goes to X."""
        side: dict[int, int] = {}
        for start in self._vertices:
            if start in side:
                continue
            side[start] = 0
            stack = [start]
            while stack:
                v = stack.pop()
                other = 1 - side[v]
                for _, w in self._adj[v]:
                    if w not in side:
                        side[w] = other
                        stack.append(w)
                    elif side[w] != other:
                        return None
        return Bipartition(
            frozenset(v for v, c in side.items() if c == 0),
            frozenset(v for v, c in side.items() if c == 1),
        )

    def is_bipartite_with(self, P: "Bipartition") -> bool:
        P.validate_for(self)
        for _, u, v in self._edges:
            if (u in P.X) == (v in P.X):
                return False
        return True

    # -- derived graphs --------------------------------------------------

    def subgraph_of_edges(self, edge_ids: Iterable[int]) -> "MultiGraph":
        """Spanning subgraph on all vertices keeping the given edges (ids kept)."""
        ids = set(edge_ids)
        for eid in ids:
            if eid not in self._by_id:
                raise InputError(f"unknown edge id {eid}")
        kept = [e for e in self._edges if e[0] in ids]
        return MultiGraph(self._vertices, kept)

    def without_vertices(self, S: Iterable[int]) -> "MultiGraph":
        """Delete the vertices of S and every incident edge (ids kept)."""
        Ss = self._check_vertices(S)
        kept = [e for e in self._edges if e[1] not in Ss and e[2] not in Ss]
        return MultiGraph([v for v in self._vertices if v not in Ss], kept)

    def with_added_edges(self, pairs: Iterable[tuple[int, int]]) -> "MultiGraph":
        """New graph with extra (u, v) edges appended; fresh ids continue past the max."""
        nxt = max((eid for eid in self._by_id), default=0) + 1
        extra = []
        for u, v in pairs:
            extra.append((nxt, int(u), int(v)))
            nxt += 1
        return MultiGraph(self._vertices, list(self._edges) + extra)

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.num_vertices}, m={self.num_edges})"


@dataclass(frozen=True)
class Bipartition:
    """An ordered bipartition (X, Y) of a vertex set; X and Y are disjoint."""

    X: frozenset[int]
    Y: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "X", frozenset(self.X))
        object.__setattr__(self, "Y", frozenset(self.Y))
        if self.X & self.Y:
            raise InputError("bipartition sides overlap")

    def validate_for(self, G: MultiGraph) -> None:
        if self.X | self.Y != G.vertex_set:
            raise InputError("bipartition does not cover the vertex set")

    def swapped(self) -> "Bipartition":
        return Bipartition(self.Y, self.X)


@dataclass(frozen=True)
class Factor:
    """A spanning subgraph of a host graph, stored as a set of edge ids."""

    host: MultiGraph
    edge_ids: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "edge_ids", frozenset(self.edge_ids))
        unknown = self.edge_ids.difference(self.host._by_id)
        if unknown:
            raise InputError(f"factor uses unknown edge id {min(unknown)}")

    @property
    def num_edges(self) -> int:
        return len(self.edge_ids)

    def edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.host.edges if e[0] in self.edge_ids)

    def degree(self, v: int) -> int:
        d = 0
        for eid, other in self.host.incident(v):
            if eid in self.edge_ids:
                d += 2 if other == v else 1
        return d

    def degrees(self) -> dict[int, int]:
        """Every host vertex's factor degree, from one pass over the
        factor's own edges; a loop adds 2."""
        deg = dict.fromkeys(self.host.vertices, 0)
        ends = self.host.endpoints
        for eid in self.edge_ids:
            u, v = ends(eid)
            deg[u] += 1
            deg[v] += 1
        return deg

    def as_graph(self) -> MultiGraph:
        """Standalone multigraph on the host's vertices with the same edge ids."""
        return self.host.subgraph_of_edges(self.edge_ids)

    def complement(self) -> "Factor":
        return Factor(self.host, frozenset(self.host.edge_ids) - self.edge_ids)

    def __repr__(self) -> str:
        return f"Factor({self.num_edges} of {self.host.num_edges} edges)"


def validate_vertex_map(G: MultiGraph, m: Mapping[int, int], name: str = "map") -> None:
    """Require m to be a total integer map on V(G)."""
    missing = [v for v in G.vertices if v not in m]
    if missing:
        raise InputError(f"{name} missing vertices {missing[:5]}")
    extra = [v for v in m if not G.has_vertex(v)]
    if extra:
        raise InputError(f"{name} names unknown vertices {sorted(extra)[:5]}")


def validate_window(
    G: MultiGraph, lo: Mapping[int, int], hi: Mapping[int, int], names: str = "gf"
) -> None:
    """Require lo and hi, named by the two letters of names, to be total
    integer maps on V(G) with lo <= hi everywhere."""
    low, high = names
    validate_vertex_map(G, lo, low)
    validate_vertex_map(G, hi, high)
    bad = [v for v in G.vertices if lo[v] > hi[v]]
    if bad:
        raise InputError(f"need {low} <= {high}, violated at vertex {bad[0]}")


def partition_stats(G: MultiGraph, X: Iterable[int]) -> tuple[int, int]:
    """(d(X), e(X)): boundary and intra (loops once) counts."""
    Xs = G._check_vertices(X)
    boundary = 0
    intra = 0
    for _, u, v in G.edges:
        u_in = u in Xs
        v_in = v in Xs
        if u_in and v_in:
            intra += 1
        elif u_in != v_in:
            boundary += 1
    return boundary, intra


def induced_bipartite_factor(G: MultiGraph, P: Bipartition) -> Factor:
    """G[X, Y]: the factor keeping exactly the X-to-Y edges (never a loop)."""
    P.validate_for(G)
    keep = []
    for eid, u, v in G.edges:
        if (u in P.X and v in P.Y) or (u in P.Y and v in P.X):
            keep.append(eid)
    return Factor(G, frozenset(keep))


# -- text format ---------------------------------------------------------
#
#   p multigraph <n> <m>
#   e <u> <v>            one line per edge, ids 1..m in order, u = v is a loop
#   f <v> <g(v)> <f(v)>  optional degree-constraint lines
#
# Vertices are 1..n.  Full-line comments start with '#'.  Serialization is
# canonical: header, edges in id order, f-lines in vertex order, LF endings.


@dataclass(frozen=True)
class ParsedGraph:
    graph: MultiGraph
    g: dict[int, int] | None
    f: dict[int, int] | None


def parse_graph(text: str) -> ParsedGraph:
    n = m = None
    pairs: list[tuple[int, int]] = []
    g: dict[int, int] = {}
    f: dict[int, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "p":
            if n is not None:
                raise GraphParseError("second header", line_no)
            if len(parts) != 4 or parts[1] != "multigraph":
                raise GraphParseError("header must be 'p multigraph <n> <m>'", line_no)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphParseError("non-integer header counts", line_no) from None
            if n < 0 or m < 0:
                raise GraphParseError("negative header counts", line_no)
        elif kind == "e":
            if n is None:
                raise GraphParseError("edge before header", line_no)
            if len(parts) != 3:
                raise GraphParseError("edge line must be 'e <u> <v>'", line_no)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError("non-integer endpoint", line_no) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(f"dangling endpoint ({u}, {v})", line_no)
            if len(pairs) >= m:
                raise GraphParseError("more edge lines than the header announced", line_no)
            pairs.append((u, v))
        elif kind == "f":
            if n is None:
                raise GraphParseError("function line before header", line_no)
            if len(parts) != 4:
                raise GraphParseError("function line must be 'f <v> <g> <f>'", line_no)
            try:
                v, gv, fv = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphParseError("non-integer function value", line_no) from None
            if not 1 <= v <= n:
                raise GraphParseError(f"function line for unknown vertex {v}", line_no)
            if v in f:
                raise GraphParseError(f"duplicate function line for vertex {v}", line_no)
            g[v] = gv
            f[v] = fv
        else:
            raise GraphParseError(f"unknown line type {kind!r}", line_no)
    if n is None:
        raise GraphParseError("missing header")
    if len(pairs) != m:
        raise GraphParseError(f"header announced {m} edges, found {len(pairs)}")
    graph = MultiGraph(range(1, n + 1), pairs)
    return ParsedGraph(graph, g or None, f or None)


def serialize_graph(
    G: MultiGraph,
    g: Mapping[int, int] | None = None,
    f: Mapping[int, int] | None = None,
) -> str:
    """Canonical text form; requires vertices to be exactly 1..n."""
    n = G.num_vertices
    if tuple(G.vertices) != tuple(range(1, n + 1)):
        raise InputError("text format requires vertices 1..n")
    if (g is None) != (f is None):
        raise InputError("give both g and f or neither")
    lines = [f"p multigraph {n} {G.num_edges}"]
    for _, u, v in G.edges:
        lines.append(f"e {u} {v}")
    if g is not None and f is not None:
        validate_vertex_map(G, g, "g")
        validate_vertex_map(G, f, "f")
        for v in G.vertices:
            lines.append(f"f {v} {g[v]} {f[v]}")
    return "\n".join(lines) + "\n"
