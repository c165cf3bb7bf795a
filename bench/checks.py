"""Independent answer checks for the benchmark.

These checks recount everything from the input graph's own edge table.
They never call a certificate's `verify()`: `FactorCertificate.verify()`
accepts tree packings taken from an unrelated graph, so it cannot be the
judge.  The one factorkit routine used here is the brute-force oracle
`factor_exists`, the package's ground truth, on hosts of at most 20 edges.

Each check returns an outcome label or raises `Mismatch`.
"""
from __future__ import annotations

from fractions import Fraction

from factorkit import (
    UNKNOWN,
    Bipartition,
    Factor,
    FactorCertificate,
    HypothesisError,
    MultiGraph,
    NoFactorCertificate,
    Orientation,
    PackingRefusal,
    Report,
    Toughness,
    factor_exists,
)

ORACLE_EDGE_CAP = 20
ROW_OUTCOMES = ("success", "none", "refusal", "unknown", "hard-error")


class Mismatch(Exception):
    """The program's answer failed an independent check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def _edge_ids_on(F: Factor, G: MultiGraph) -> frozenset[int]:
    """F's edge ids, after checking that each one is an edge of G."""
    for eid in F.edge_ids:
        _require(G.has_edge_id(eid), f"factor edge {eid} is not a host edge")
        _require(
            F.host.endpoints(eid) == G.endpoints(eid),
            f"factor edge {eid} has other endpoints than the host edge",
        )
    return F.edge_ids


def _degrees(G: MultiGraph, ids) -> dict[int, int]:
    deg = {v: 0 for v in G.vertices}
    for eid in ids:
        u, v = G.endpoints(eid)
        deg[u] += 1
        deg[v] += 1
    return deg


def _find(parent: dict[int, int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _spanning_tree(G: MultiGraph, ids: frozenset[int]) -> bool:
    if len(ids) != G.num_vertices - 1:
        return False
    parent = {v: v for v in G.vertices}
    for eid in ids:
        ru, rv = (_find(parent, x) for x in G.endpoints(eid))
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _packing(cert: FactorCertificate, key: str, G: MultiGraph, within: frozenset[int], m: int) -> None:
    if m == 0 and key not in cert.packings:
        return
    _require(key in cert.packings, f"certificate has no {key} packing")
    trees = cert.packings[key].trees
    _require(len(trees) >= m, f"{key} packing has {len(trees)} trees, need {m}")
    seen: set[int] = set()
    for tree in trees:
        ids = _edge_ids_on(tree, G)
        _require(ids <= within, f"a {key} tree uses an edge outside the {key}")
        _require(not ids & seen, f"two {key} trees share an edge")
        _require(_spanning_tree(G, ids), f"a {key} tree is not a spanning tree")
        seen |= ids


def refusal(res, G: MultiGraph, gate: tuple[str, int] | None = None) -> str:
    """A refusal is an answer only on an input built to fail a tree-packing
    gate; `gate` names that hypothesis and the number of trees it asks for.
    Every other input meets the hypotheses of its call, so any other
    refusal, or an answer where the gate must refuse, is wrong.  The
    refusal's partition is recounted on G (Nash-Williams: fewer than
    m(|parts| - 1) cross edges leave no m disjoint spanning trees)."""
    _require(isinstance(res, HypothesisError), f"{res!r}, yet the input fails the {gate} gate")
    _require(
        gate is not None and res.hypothesis == gate[0],
        f"refused '{res.hypothesis}' on an input built to meet it",
    )
    cert = res.certificate
    _require(
        isinstance(cert, PackingRefusal) and cert.m == gate[1],
        f"refusal certificate is not a partition for {gate[1]} trees",
    )
    where = {}
    for i, part in enumerate(cert.parts):
        for v in part:
            _require(v not in where, "refusal parts overlap")
            where[v] = i
    _require(set(where) == G.vertex_set, "refusal parts do not cover the input graph")
    cross = sum(1 for _, u, v in G.edges if where[u] != where[v])
    _require(cross == cert.cross_edges, "refusal cross count is wrong")
    _require(
        cross < cert.m * (len(cert.parts) - 1),
        "refusal partition does not violate the tree-packing count",
    )
    return "refusal:" + res.hypothesis


def _oracle(G: MultiGraph, allowed) -> bool:
    return factor_exists(G, lambda degs: all(degs[v] in allowed[v] for v in G.vertices))


def _balanced_selector_exists(G: MultiGraph, P: Bipartition, g, f) -> bool:
    sign = {v: 1 if v in P.X else -1 for v in G.vertices}
    reach = {0}
    for v in G.vertices:
        reach = {s + sign[v] * g[v] for s in reach} | {s + sign[v] * f[v] for s in reach}
    return 0 in reach


def _factor_answer(res, G: MultiGraph, allowed, m=0, m0=0) -> str:
    _require(isinstance(res, FactorCertificate), f"unexpected result {res!r}")
    ids = _edge_ids_on(res.factor, G)
    deg = _degrees(G, ids)
    for v in G.vertices:
        _require(deg[v] in allowed[v], f"degree {deg[v]} at vertex {v} is not allowed")
    _packing(res, "factor", G, ids, m)
    _packing(res, "complement", G, frozenset(G.edge_ids) - ids, m0)
    return "certificate"


def half_factor(res, G: MultiGraph, i) -> str:
    """Eulerian half-degree law: d_F(v) = d_G(v)/2 + i(v)."""
    if isinstance(res, HypothesisError):
        return refusal(res, G)
    allowed = {v: (G.degree(v) // 2 + i[v],) for v in G.vertices}
    if res is None:
        if G.num_edges <= ORACLE_EDGE_CAP:
            _require(not _oracle(G, allowed), "None, yet the oracle finds a factor")
        return "none"
    return _factor_answer(res, G, allowed)


def two_point(res, G: MultiGraph, g, f, P: Bipartition | None = None, m=0, m0=0,
              gate: tuple[str, int] | None = None) -> str:
    """{g, f}-factor answers; m and m0 are the required tree counts of the
    factor and of its complement, `gate` the refusal the input must get."""
    if isinstance(res, HypothesisError) or gate is not None:
        return refusal(res, G, gate)
    if res is UNKNOWN:
        return "unknown"
    allowed = {v: (g[v], f[v]) for v in G.vertices}
    small = G.num_edges <= ORACLE_EDGE_CAP
    if isinstance(res, NoFactorCertificate):
        _require(
            all((f[v] - g[v]) % 2 == 0 for v in G.vertices),
            "parity refutation, yet some gap f-g is odd",
        )
        total = sum(f[v] for v in G.vertices)
        _require(total % 2 == 1, "parity refutation, yet sum f is even")
        _require(res.f_total == total, "parity refutation states a wrong sum f")
        if small:
            _require(not _oracle(G, allowed), "parity refutation, yet the oracle finds a factor")
        return "no-factor"
    if res is None:
        if small:
            _require(not _oracle(G, allowed), "None, yet the oracle finds a factor")
        elif P is not None:
            _require(
                not _balanced_selector_exists(G, P, g, f),
                "None, yet a balanced selector exists",
            )
        return "none"
    return _factor_answer(res, G, allowed, m, m0)


def window_factor(res, G: MultiGraph, g, f) -> str:
    """Exact or interval factor on a host where a planted factor exists."""
    if isinstance(res, HypothesisError):
        return refusal(res, G)
    _require(isinstance(res, Factor), f"no factor returned ({res!r}), yet one was planted")
    deg = _degrees(G, _edge_ids_on(res, G))
    for v in G.vertices:
        _require(g[v] <= deg[v] <= f[v], f"degree {deg[v]} at vertex {v} is outside the window")
    return "answer"


def orientation(res, G: MultiGraph, p, q) -> str:
    if isinstance(res, HypothesisError):
        return refusal(res, G)
    _require(isinstance(res, Orientation), f"no orientation returned ({res!r}), yet one was planted")
    dirs = res.directions
    _require(set(dirs) == set(G.edge_ids), "orientation does not direct every edge once")
    out = {v: 0 for v in G.vertices}
    for eid, (tail, head) in dirs.items():
        u, v = G.endpoints(eid)
        _require({tail, head} == {u, v}, f"edge {eid} is directed between wrong endpoints")
        out[tail] += 1
    for v in G.vertices:
        _require(p[v] <= out[v] <= q[v], f"out-degree {out[v]} at vertex {v} is outside [p, q]")
    return "answer"


def _max_flow(cap: dict[int, dict[int, int]], s: int, t: int, limit: int) -> int:
    """Augmenting-path max flow on a symmetric capacity map, stopping at limit."""
    res = {u: dict(nb) for u, nb in cap.items()}
    flow = 0
    while flow < limit:
        prev = {s: s}
        frontier = [s]
        while frontier and t not in prev:
            nxt = []
            for u in frontier:
                for w, c in res[u].items():
                    if c > 0 and w not in prev:
                        prev[w] = u
                        nxt.append(w)
            frontier = nxt
        if t not in prev:
            break
        w = t
        while w != s:
            u = prev[w]
            res[u][w] -= 1
            res[w][u] += 1
            w = u
        flow += 1
    return flow


def edge_connectivity(res, G: MultiGraph) -> str:
    """lambda(G) = min over t of the s-t max flow, for a fixed s."""
    cap: dict[int, dict[int, int]] = {v: {} for v in G.vertices}
    for _, u, v in G.edges:
        if u != v:
            cap[u][v] = cap[u].get(v, 0) + 1
            cap[v][u] = cap[v].get(u, 0) + 1
    s = G.vertices[0]
    best = min(G.degree(v) - 2 * G.loops_at(v) for v in G.vertices)
    for t in G.vertices[1:]:
        best = min(best, _max_flow(cap, s, t, best))
    _require(res == best, f"edge connectivity {res}, recount gives {best}")
    return "answer"


def _intra(G: MultiGraph, P: Bipartition) -> int:
    return sum(1 for _, u, v in G.edges if (u in P.X) == (v in P.X))


def _is_partition(G: MultiGraph, P: Bipartition) -> bool:
    return not P.X & P.Y and P.X | P.Y == G.vertex_set


def bipartite_index(res, G: MultiGraph) -> str:
    """Exact bi(G) by a Gray-code sweep over bipartitions with vertex 0 fixed."""
    value, witness = res
    _require(_is_partition(G, witness), "witness is not a bipartition of V")
    _require(_intra(G, witness) == value, "bi value differs from its witness's intra count")
    verts = list(G.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    loops = 0
    layers: list[list[int]] = []  # layers[k][i]: neighbours of i with multiplicity > k
    mult: dict[tuple[int, int], int] = {}
    for _, u, v in G.edges:
        if u == v:
            loops += 1
            continue
        a, b = idx[u], idx[v]
        k = mult.get((min(a, b), max(a, b)), 0)
        mult[(min(a, b), max(a, b))] = k + 1
        if k == len(layers):
            layers.append([0] * n)
        layers[k][a] |= 1 << b
        layers[k][b] |= 1 << a
    deg = [sum(layer[i].bit_count() for layer in layers) for i in range(n)]
    full = (1 << n) - 1
    side = 0  # bit i set: vertex i on side 1; all start on side 0
    cur = best = sum(deg) // 2
    for step in range(1, 1 << max(0, n - 1)):
        i = (step & -step).bit_length()  # flip vertices 1..n-1 in Gray order
        same_mask = side if side >> i & 1 else full & ~side
        same = sum((layer[i] & same_mask).bit_count() for layer in layers)
        cur += deg[i] - 2 * same
        side ^= 1 << i
        if cur < best:
            best = cur
    _require(value == best + loops, f"bi = {value}, sweep gives {best + loops}")
    return "answer"


def _components_without(G: MultiGraph, S: frozenset[int]) -> int:
    parent = {v: v for v in G.vertices if v not in S}
    comps = len(parent)
    for _, u, v in G.edges:
        if u in parent and v in parent:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
    return comps


def toughness(res: Toughness, G: MultiGraph) -> str:
    """Exact toughness by brute force over vertex subsets with union-find."""
    verts = list(G.vertices)
    best = None
    for mask in range(1 << len(verts)):
        S = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
        if len(S) == len(verts):
            continue
        comps = _components_without(G, S)
        if comps >= 2:
            val = Fraction(len(S), comps)
            if best is None or val < best:
                best = val
    _require(res.value == best, f"toughness {res.value}, brute force gives {best}")
    if best is not None:
        comps = _components_without(G, res.witness)
        _require(
            comps >= 2 and Fraction(len(res.witness), comps) == best,
            "toughness witness does not attain the value",
        )
    return "answer"


def lovasz(res, G: MultiGraph, g, f) -> str:
    ok, witness = res
    exists = factor_exists(G, lambda degs: all(g[v] <= degs[v] <= f[v] for v in G.vertices))
    _require(ok == exists, f"criterion says {ok}, the oracle says {exists}")
    _require((witness is None) == ok, "criterion witness present exactly when it fails")
    return "answer"


def report(res: Report, theorem: str, trials: int) -> str:
    _require(isinstance(res, Report), f"unexpected result {res!r}")
    _require(res.theorem == theorem and res.trials == trials, "report is for another campaign")
    _require(len(res.rows) == trials, "report has the wrong number of rows")
    counts = {o: sum(r.outcome == o for r in res.rows) for o in ROW_OUTCOMES}
    _require(sum(counts.values()) == trials, "a report row has an unknown outcome")
    _require(
        (res.successes, res.nones, res.unknowns, sum(res.refusals.values()), res.hard_errors)
        == tuple(counts[o] for o in ROW_OUTCOMES),
        "report totals disagree with its rows",
    )
    _require(res.hard_errors == 0, f"{res.hard_errors} hard-error rows")
    return "unknown" if res.unknowns else "report"


def signature(res):
    """Canonical, comparable form of an answer; a repeated call on the same
    input must reproduce the signature of the checked first answer."""
    if isinstance(res, HypothesisError):
        return ("refusal", res.hypothesis, str(res), signature(res.certificate))
    if isinstance(res, Report):
        return res.to_json()
    if isinstance(res, FactorCertificate):
        return (
            "certificate",
            sorted(res.factor.edge_ids),
            sorted((k, [sorted(t.edge_ids) for t in p.trees]) for k, p in res.packings.items()),
        )
    if isinstance(res, Factor):
        return ("factor", sorted(res.edge_ids))
    if isinstance(res, Orientation):
        return ("orientation", sorted(res.directions.items()))
    if isinstance(res, Bipartition):
        return ("bipartition", sorted(res.X), sorted(res.Y))
    if isinstance(res, PackingRefusal):
        return ("packing-refusal", [sorted(p) for p in res.parts], res.cross_edges, res.m)
    if isinstance(res, NoFactorCertificate):
        return ("no-factor", res.reason, res.f_total)
    if isinstance(res, Toughness):
        return ("toughness", res.value, sorted(res.witness or ()))
    if isinstance(res, tuple):
        return tuple(signature(x) for x in res)
    if isinstance(res, frozenset):
        return sorted(res)
    if res is UNKNOWN:
        return "UNKNOWN"
    return res
