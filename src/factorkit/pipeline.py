"""Factor-existence theorems as executable constructions.

Each public entry checks its hypotheses once, then runs one private
construction, the one the corresponding proof describes, which
re-verifies the result and returns a certificate.  A construction calls
only private constructions and hands them the bipartition and the
spanning trees it has already proved, so no part is packed twice and no
entry enters another.  Each entry is one path: what its theorem says
exists, it finds itself.  The balanced selector h of the bipartite
entries comes from the subset sum of _selector_within and their pinned
vertex is min(P.X); the bipartition of the almost-bipartite and bi-large
entries comes from the structure search.  Only the bipartite entries take
a bipartition, the one their host is bipartite on, and only the
almost-bipartite entry takes h, which its statement quantifies over.
An entry ends in one of these ways:

* a refusal: one of the entry's own hypotheses fails, and it raises a
  named HypothesisError, with a certificate where one exists;
* an answer: a FactorCertificate; a NoFactorCertificate for a parity
  obstruction, whose refutation argument is self-checking; or None where
  the statement is an equivalence whose condition fails;
* a failed stage: a later stage refuses or finds nothing, which the
  verified hypotheses rule out.  That means a bug or a counterexample and
  raises TheoremViolationError.  Under assume_hypotheses the gates let
  failed hypotheses pass, so a failed stage returns None instead;
* UNKNOWN, only from three searches that can find nothing: the selector
  sampling of find_two_point_factor past 20 vertices with a gap f - g of
  3 or more (so never at k <= 2), after its budget; the one structure
  search of tree_connected_gf, keep-bi's on G2 at every m; and the split
  lemma, after its budget.

Stages raise and each entry translates once: _stage turns a nested
refusal or None into _StageFailed and UNKNOWN into _GaveUp, and the
_entry decorator turns those into the outcomes above.  A broken invariant
that no hypothesis guards, such as an Eulerian part with an odd degree or
a certificate failing its own check, raises under both settings.
"""
from __future__ import annotations

import functools
import inspect
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .connectivity import (
    PackingRefusal,
    TreePacking,
    _find_structure,
    bipartite_index_bounds,
    edge_connectivity,
    spanning_tree_packing,
    toughness,
)
from .decompositions import (
    _carried_packing,
    _eulerian_split,
    _even_closure,
    _keep_bi,
    _split_complement,
)
from .errors import (
    HypothesisError,
    InputError,
    SizeRefusal,
    TheoremViolationError,
    UNKNOWN,
    Unknown,
)
from .factors import _euler_half_factor, find_f_factor, find_two_point_factor
from .graph import (
    Bipartition,
    Factor,
    MultiGraph,
    partition_stats,
    validate_vertex_map,
    validate_window,
)
from .rng import child_seed

VertexMap = Mapping[int, int]


@dataclass(frozen=True)
class TheoremParams:
    """Regime constants shared by the tree-connected statements."""

    k: int = 1
    m: int = 0
    m0: int = 0
    b: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise InputError("k must be a positive integer")
        if self.m < 0 or self.m0 < 0 or self.b < 0:
            raise InputError("m, m0 and b must be nonnegative")


@dataclass(frozen=True)
class FactorCertificate:
    """A produced factor plus everything needed to re-check it; tree_counts
    holds how many spanning trees the theorem promises each packed part."""

    factor: Factor
    degree_report: dict[int, tuple[int, tuple[int, ...]]]
    packings: dict[str, TreePacking] = field(default_factory=dict)
    derivation: tuple[tuple[str, object], ...] = ()
    tree_counts: dict[str, int] = field(default_factory=dict)

    def verify(self) -> bool:
        host = self.factor.host
        if set(self.degree_report) != set(host.vertices):
            return False
        degrees = self.factor.degrees()
        for v, (achieved, allowed) in self.degree_report.items():
            if degrees[v] != achieved or achieved not in allowed:
                return False
        # each packing must span exactly the part of the host it names
        parts = {"factor": self.factor, "complement": self.factor.complement()}
        for name, packing in self.packings.items():
            part = parts.get(name)
            if part is None:
                return False
            if packing.host.vertex_set != host.vertex_set:
                return False
            if set(packing.host.edges) != set(part.edges()):
                return False
            if not packing.verify():
                return False
        for name, count in self.tree_counts.items():
            if name not in self.packings or self.packings[name].m < count:
                return False
        return True


@dataclass(frozen=True)
class NoFactorCertificate:
    """Parity refutation: every gap even forces d_F = f (mod 2) vertexwise,
    so an odd total f leaves no room for any {g,f}-factor."""

    reason: str
    f_total: int

    def verify(self, G: MultiGraph, g: VertexMap, f: VertexMap) -> bool:
        total = sum(f[v] for v in G.vertices)
        return not parity_criterion(G, g, f) and self.f_total == total


def parity_criterion(G: MultiGraph, g: VertexMap, f: VertexMap) -> bool:
    """Some gap odd, or all gaps even with even total f."""
    if any((f[v] - g[v]) % 2 != 0 for v in G.vertices):
        return True
    return sum(f[v] for v in G.vertices) % 2 == 0


class _Gate:
    """Hypothesis checker; the assume flag lets failed hypotheses pass."""

    def __init__(self, assume: bool):
        self.assume = assume

    def require(self, ok: bool, name: str, message: str = "", certificate=None):
        if not ok and not self.assume:
            raise HypothesisError(name, message, certificate=certificate)

    def require_trees(self, packing: TreePacking | PackingRefusal, name: str, message: str):
        refused = isinstance(packing, PackingRefusal)
        self.require(not refused, name, message, certificate=packing if refused else None)


class _StageFailed(TheoremViolationError):
    """A stage refused or found nothing, which the gates rule out."""


class _GaveUp(Exception):
    """A stage's search ran out of budget and returned UNKNOWN."""


def _stage(what: str, call: Callable, *args, **kwargs):
    """call(*args, **kwargs) run as a stage of a construction: a refusal or
    None raises _StageFailed, UNKNOWN raises _GaveUp."""
    try:
        result = call(*args, **kwargs)
    except HypothesisError as exc:
        raise _StageFailed(f"{what} refused under verified hypotheses: {exc}") from exc
    if result is None:
        raise _StageFailed(f"{what} found nothing under verified hypotheses")
    if result is UNKNOWN:
        raise _GaveUp(what)
    return result


def _entry(construction):
    """The one exit path of a theorem entry: UNKNOWN for a give-up, and for
    a failed stage None under assume_hypotheses, TheoremViolationError
    otherwise."""
    signature = inspect.signature(construction)

    @functools.wraps(construction)
    def entry(*args, **kwargs):
        try:
            return construction(*args, **kwargs)
        except _GaveUp:
            return UNKNOWN
        except _StageFailed:
            if signature.bind(*args, **kwargs).arguments.get("assume_hypotheses"):
                return None
            raise

    return entry


def _gap_bound(G: MultiGraph, g: VertexMap, f: VertexMap) -> int:
    """k = the largest gap f - g, and at least 1."""
    return max(1, max((f[v] - g[v] for v in G.vertices), default=0))


def _check_picks(G: MultiGraph, g: VertexMap, f: VertexMap, h: VertexMap) -> None:
    """h(v) in {g(v), f(v)} at every vertex, or InputError."""
    validate_vertex_map(G, h, "h")
    bad = [v for v in G.vertices if h[v] not in (g[v], f[v])]
    if bad:
        raise InputError(f"h({bad[0]}) is neither g nor f there")


def _parity_refutation(G: MultiGraph, f: VertexMap) -> NoFactorCertificate:
    """The certificate of a host that fails parity_criterion."""
    total = sum(f[v] for v in G.vertices)
    return NoFactorCertificate("all gaps f-g are even and sum f is odd", total)


def _require_window(
    gate: _Gate, G: MultiGraph, lo: VertexMap, hi: VertexMap, name: str
) -> None:
    """Gate lo(v) <= d(v)/2 <= hi(v) at every vertex, naming the first miss."""
    bad = [v for v in G.vertices if not 2 * lo[v] <= G.degree(v) <= 2 * hi[v]]
    gate.require(not bad, name, f"violated at vertex {bad[0]}" if bad else "")


def _require_bipartite(gate: _Gate, G: MultiGraph, P: Bipartition) -> None:
    """Gate that every edge of G crosses the given bipartition P."""
    gate.require(
        G.is_bipartite_with(P),
        "bipartite with the given bipartition",
        "an edge stays inside one part",
    )


def _shifted(
    host: MultiGraph, by: VertexMap, g: VertexMap, f: VertexMap, *more: VertexMap,
    skip: int | None = None,
) -> list[dict[int, int]]:
    """g, f and any further maps lowered by `by`.  The gated window puts
    d_host/2 between the lowered g and f at every vertex but skip."""
    out = [{v: m[v] - by[v] for v in host.vertices} for m in (g, f, *more)]
    g2, f2 = out[0], out[1]
    bad = [
        v for v in host.vertices
        if v != skip and not 2 * g2[v] <= host.degree(v) <= 2 * f2[v]
    ]
    if bad:
        raise _StageFailed(f"shifted window g' <= d/2 <= f' failed at vertex {bad[0]}")
    return out


def _half_degrees(part: Factor) -> dict[int, int]:
    """d_part(v)/2 at every vertex of an Eulerian part."""
    degrees = part.degrees()
    if any(d % 2 for d in degrees.values()):
        raise AssertionError("Eulerian part has an odd degree")
    return {v: d // 2 for v, d in degrees.items()}


def _bi_at_least(G: MultiGraph, threshold: int, seed: int = 0) -> bool:
    """Decide bi(G) >= threshold; SizeRefusal when genuinely undecided."""
    if threshold <= 0:
        return True
    lower, upper, _ = bipartite_index_bounds(G, seed=seed)
    if lower >= threshold:
        return True
    if upper < threshold:
        return False
    raise SizeRefusal(
        "bipartite index bound",
        f"cannot decide bi >= {threshold} at this size",
    )


def _certify(
    factor: Factor,
    g: VertexMap,
    f: VertexMap,
    packings: dict[str, TreePacking] | None = None,
    derivation: tuple[tuple[str, object], ...] = (),
    tree_counts: dict[str, int] | None = None,
) -> FactorCertificate:
    """The checked certificate of a factor whose degrees are allowed the
    two points {g(v), f(v)}, or the one point f(v) when g = f."""
    degrees = factor.degrees()
    report = {v: (degrees[v], tuple(sorted({g[v], f[v]}))) for v in factor.host.vertices}
    cert = FactorCertificate(factor, report, packings or {}, derivation, tree_counts or {})
    if not cert.verify():
        raise TheoremViolationError(
            "produced factor failed its own certificate check"
        )
    return cert


# -- Eulerian half-degree factors ----------------------------------------


@_entry
def eulerian_half_factor(
    G: MultiGraph,
    i: VertexMap,
    assume_hypotheses: bool = False,
) -> FactorCertificate | None:
    """Factor with d_F(v) = d_G(v)/2 + i(v) on an Eulerian graph.

    Hypotheses: |E| = t (mod 2) for t = sum |i|, (2t-1)-edge-connectivity,
    bi(G) >= t - 1, plus connectivity when t = 0 (the two-triangles
    example shows the statement fails for disconnected graphs there).
    Returns None only under assume_hypotheses.
    """
    validate_vertex_map(G, i, "i")
    gate = _Gate(assume_hypotheses)
    t = sum(abs(i[v]) for v in G.vertices)
    gate.require(G.is_eulerian(), "Eulerian", "some degree is odd")
    if t == 0:
        gate.require(
            G.is_connected(),
            "connected (needed when t = 0)",
            "half-degree factors can fail componentwise",
        )
    gate.require(
        G.num_edges % 2 == t % 2,
        "|E| = t (mod 2)",
        f"|E| = {G.num_edges}, t = {t}",
    )
    if t == 1:
        gate.require(G.is_connected(), "(2t-1)-edge-connected", "edge connectivity 0 < 1")
    elif t >= 2:
        lam = edge_connectivity(G)
        gate.require(
            lam >= 2 * t - 1,
            "(2t-1)-edge-connected",
            f"edge connectivity {lam} < {2 * t - 1}",
        )
    gate.require(
        _bi_at_least(G, t - 1),
        "bi(G) >= t-1",
        f"bipartite index below {t - 1}",
    )
    return _build_half_factor(G, i)


def _build_half_factor(G: MultiGraph, i: VertexMap) -> FactorCertificate:
    """The factor with d_F(v) = d(v)/2 + i(v), where i is 0 off its keys,
    past the gates of eulerian_half_factor.  The Eulerian stages ask it
    for i = {z: t} on the G2 of a split, which proves that entry's gates
    there: G2 is even, its m2 >= 2|t| trees make it (2|t|-1)-edge-connected
    (connected at |t| = 1), and its intra edges and cross trees pack
    |t| - 1 odd cycles.

    For t = sum |i| <= 1 on an even host, _euler_half_factor colours Euler
    circuits alternately in linear time.  That is exact, and a parity miss
    there is a component whose edge count has the wrong parity: odd, or
    even on the shifted vertex's component when t = 1, which leaves the
    component an odd target sum, so the answer is None.  Otherwise, for
    t >= 2 or an odd degree let through by assume_hypotheses, find_f_factor
    decides (a feasible flow on a bipartite host, the matcher otherwise),
    and an odd target sum is its None.
    """
    f = {v: G.degree(v) // 2 + i.get(v, 0) for v in G.vertices}
    bad = [v for v in G.vertices if not 0 <= f[v] <= G.degree(v)]
    if bad:
        raise _StageFailed(f"target degree {f[bad[0]]} at vertex {bad[0]} left [0, d]")
    what = f"half-degree factor for targets {f}"
    if sum(abs(s) for s in i.values()) <= 1 and G.is_eulerian():
        factor = _stage(what, _euler_half_factor, G, i)
    else:
        factor = _stage(what, find_f_factor, G, f)
    shift = {v: i.get(v, 0) for v in G.vertices}
    return _certify(factor, f, f, None, (("shift", shift),))


# -- balanced selectors ---------------------------------------------------


def balanced_selector(
    G: MultiGraph, P: Bipartition, g: VertexMap, f: VertexMap
) -> dict[int, int] | None:
    """h with h(v) in {g(v), f(v)} and equal part sums, or None."""
    return _selector_within(G, P, g, f, 0)


def _selector_within(
    G: MultiGraph, P: Bipartition, g: VertexMap, f: VertexMap, top: int
) -> dict[int, int] | None:
    """h with h(v) in {g(v), f(v)} whose signed imbalance
    s = sum_X h - sum_Y h is even with 0 <= s <= top, or None.

    Decided exactly: switching v from g to f moves s by +gap on X and -gap
    on Y, a subset-sum over the gaps.  The smallest such s wins.  An even s
    is an even sum of h.
    """
    P.validate_for(G)
    validate_window(G, g, f)
    sign = {v: (1 if v in P.X else -1) for v in G.vertices}
    imbalance = sum(sign[v] * g[v] for v in G.vertices)
    movers = [
        (v, sign[v] * (f[v] - g[v])) for v in G.vertices if f[v] > g[v]
    ]
    # DP over reachable imbalance shifts, with parent pointers
    reach: dict[int, tuple[int, int] | None] = {0: None}
    for pos, (v, w) in enumerate(movers):
        additions = {}
        for s, _ in reach.items():
            s2 = s + w
            if s2 not in reach and s2 not in additions:
                additions[s2] = (pos, s)
        reach.update(additions)
    want = next(
        (s - imbalance for s in range(0, top + 1, 2) if s - imbalance in reach), None
    )
    if want is None:
        return None
    h = {v: g[v] for v in G.vertices}
    cur = want
    while reach[cur] is not None:
        pos, prev = reach[cur]
        v = movers[pos][0]
        h[v] = f[v]
        cur = prev
    if sum(sign[v] * h[v] for v in G.vertices) != imbalance + want:
        raise AssertionError("selector reconstruction lost its imbalance")
    return h


# -- the bipartite two-point theorem --------------------------------------


@_entry
def gf_factor_bipartite(
    G: MultiGraph,
    P: Bipartition,
    g: VertexMap,
    f: VertexMap,
    assume_hypotheses: bool = False,
    seed: int = 0,
) -> FactorCertificate | None | Unknown:
    """{g,f}-factor of a 4k^2-tree-connected bipartite graph with
    d_F(z) = h(z) at z = min(P.X), where h is the balanced selector that
    balanced_selector finds.

    Returns None when no balanced selector exists (that direction is an
    equivalence), UNKNOWN past the selector search cap: more than 20
    vertices with a gap f - g of 3 or more, so never when k <= 2.
    """
    validate_window(G, g, f)
    gate = _Gate(assume_hypotheses)
    _require_bipartite(gate, G, P)
    k = _gap_bound(G, g, f)
    gate.require_trees(
        spanning_tree_packing(G, 4 * k * k, seed=seed),
        "4k^2-tree-connected",
        f"no {4 * k * k} disjoint spanning trees (k = {k})",
    )
    _require_window(gate, G, g, f, "g <= d/2 <= f")

    h = balanced_selector(G, P, g, f)
    if h is None:
        return None
    return _pinned_bipartite(G, P, g, f, h, None, seed)


def _pinned_bipartite(
    G: MultiGraph,
    P: Bipartition,
    g: VertexMap,
    f: VertexMap,
    h: VertexMap,
    z: int | None,
    seed: int,
) -> FactorCertificate:
    """gf_factor_bipartite past its gates, which the caller has proved, for
    a selector h that the gates make balanced on a bipartite G, pinned at
    z, or at min(P.X) when z is None; only the almost-bipartite
    construction at k >= 2 passes a z, its shift vertex.

    The paper orients G and keeps the X-to-Y edges, so d_F = d+ on X and
    d - d+ on Y: the orientation it asks for is a two-point factor with
    d_F(z) = h(z), which the factor finder decides directly.
    """
    if z is None:
        z = min(P.X)
    if not G.is_bipartite_with(P):
        raise _StageFailed("an edge stays inside one part")
    if sum(h[v] for v in P.X) != sum(h[v] for v in P.Y):
        raise _StageFailed("the selector h lost its balance")
    F = _stage(
        f"pinned two-point factor (z = {z}, target {h[z]})",
        find_two_point_factor, G, {**g, z: h[z]}, {**f, z: h[z]},
        seed=child_seed(seed, 1),
    )
    if F.degree(z) != h[z]:
        raise TheoremViolationError("factor missed its pinned degree")
    derivation = (
        ("bipartition", (tuple(sorted(P.X)), tuple(sorted(P.Y)))),
        ("pinned", (z, h[z])),
    )
    return _certify(F, g, f, None, derivation)


# -- the almost-bipartite theorem -----------------------------------------


def _gate_structure(
    gate: _Gate,
    G: MultiGraph,
    need: int,
    seed: int,
    intra_ok: Callable[[int], bool],
    search: tuple[str, str],
    window_ok: Callable[[Bipartition], bool] | None = None,
) -> tuple[Bipartition, TreePacking]:
    """The bipartition the almost-bipartite and bi-large theorems run on,
    with the packing of its cross factor that their Eulerian split uses.

    `_find_structure` searches at `seed`.  When no candidate passes,
    `search` (hypothesis, detail) names the refusal, or the stage fails
    under assume_hypotheses.
    """
    found = _find_structure(G, need, intra_ok, seed, window_ok)
    if found is None:
        gate.require(False, *search)
        raise _StageFailed(f"{search[0]}: {search[1]}")
    return found


@_entry
def gf_factor_almost_bipartite(
    G: MultiGraph,
    g: VertexMap,
    f: VertexMap,
    h: VertexMap,
    assume_hypotheses: bool = False,
    seed: int = 0,
) -> FactorCertificate | None | Unknown:
    """{g,f}-factor when some bipartition leaves at most k-1 edges inside
    parts and the cross factor is (4k^2+2k)-tree-connected; the bipartition
    is searched for.

    h must select within {g, f}, have even total, and obey the displayed
    near-balance window 0 <= sum_X h - sum_Y h <= 2e(X)+1.
    """
    validate_window(G, g, f)
    _check_picks(G, g, f, h)
    k = _gap_bound(G, g, f)
    gate = _Gate(assume_hypotheses)
    need = 4 * k * k + 2 * k

    def window_ok(Q: Bipartition) -> bool:
        diff = sum(h[v] for v in Q.X) - sum(h[v] for v in Q.Y)
        return 0 <= diff <= 2 * partition_stats(G, Q.X)[1] + 1

    P, cross_packing = _gate_structure(
        gate, G, need, seed,
        intra_ok=lambda intra: intra <= k - 1,
        search=(
            "almost-bipartite structure",
            f"no bipartition with ({need})-tree-connected cross factor, "
            f"at most {k - 1} intra edges, and the h window",
        ),
        window_ok=window_ok,
    )

    _require_window(gate, G, g, f, "g <= d/2 <= f")
    total_h = sum(h[v] for v in G.vertices)
    gate.require(total_h % 2 == 0, "sum h even", f"sum h = {total_h}")
    ex = partition_stats(G, P.X)[1]
    ey = partition_stats(G, P.Y)[1]
    s = sum(h[v] for v in P.X) - sum(h[v] for v in P.Y)
    gate.require(
        0 <= s <= 2 * ex + 1,
        "near-balance window 0 <= sum_X h - sum_Y h <= 2e(X)+1",
        f"sum_X h - sum_Y h = {s}, e(X) = {ex}",
    )

    if k == 1:
        # zero intra edges: the graph is bipartite, its cross factor carries
        # the 4k^2 trees, and the window forces an exactly balanced h
        return _pinned_bipartite(G, P, g, f, h, None, seed)

    g1f, g2f = _stage(
        "decomposition", _eulerian_split, G, P, cross_packing, 4 * k * k, 2 * k - 1
    )
    t = s - ex + ey
    if not assume_hypotheses and (abs(t) > ex + ey or ex + ey > k - 1):
        raise AssertionError(
            f"t = {t} escaped the proof window |t| <= {ex + ey} <= {k - 1}"
        )
    z = _pick_shift_vertex(G, P.X, g, f, t)
    # the z shift may push the half-degree window off at z itself; the
    # factor engine is exact, so z is left out of the window check
    g1_graph = g1f.as_graph()
    g1, f1, h1 = _shifted(g1_graph, _half_degrees(g2f), g, f, h, skip=z)
    g1[z] -= t
    f1[z] -= t
    h1[z] -= t
    sub = _pinned_bipartite(g1_graph, P, g1, f1, h1, z, child_seed(seed, 2))
    f2cert = _build_half_factor(g2f.as_graph(), {z: t})
    F = Factor(G, sub.factor.edge_ids | f2cert.factor.edge_ids)
    derivation = (
        ("bipartition", (tuple(sorted(P.X)), tuple(sorted(P.Y)))),
        ("eulerian-part", tuple(sorted(g2f.edge_ids))),
        ("shift", (z, t)),
    ) + sub.derivation
    return _certify(F, g, f, None, derivation)


def _pick_shift_vertex(
    G: MultiGraph, X, g: VertexMap, f: VertexMap, t: int
) -> int:
    """z in X with the most slack in the direction the shift consumes."""
    verts = sorted(X)
    if t > 0:
        return max(verts, key=lambda v: (2 * f[v] - G.degree(v), -v))
    if t < 0:
        return max(verts, key=lambda v: (G.degree(v) - 2 * g[v], -v))
    return verts[0]


# -- the bi-index-large theorem -------------------------------------------


@_entry
def gf_factor_bi_large(
    G: MultiGraph,
    g: VertexMap,
    f: VertexMap,
    assume_hypotheses: bool = False,
    seed: int = 0,
) -> FactorCertificate | NoFactorCertificate | None | Unknown:
    """{g,f}-factor when some bipartition has a 3k^2-tree-connected cross
    factor and at least k-1 intra-part edges; the bipartition is searched
    for.

    The factor exists iff some gap f-g is odd, or all gaps are even and
    sum f is even; the failing case returns a parity certificate.
    """
    validate_window(G, g, f)
    k = _gap_bound(G, g, f)
    gate = _Gate(assume_hypotheses)

    if not parity_criterion(G, g, f):
        return _parity_refutation(G, f)

    need = 3 * k * k
    P, cross_packing = _gate_structure(
        gate, G, need, seed,
        intra_ok=lambda intra: intra >= k - 1,
        search=(
            "bi-large structure",
            f"no bipartition with {need}-tree-connected cross factor and "
            f"at least {k - 1} intra edges",
        ),
    )

    _require_window(gate, G, g, f, "g <= d/2 <= f")
    return _bi_large(G, g, f, P, cross_packing, k, seed)


def _bi_large(
    G: MultiGraph, g: VertexMap, f: VertexMap, P: Bipartition,
    cross_packing: TreePacking, k: int, seed: int,
) -> FactorCertificate:
    """gf_factor_bi_large past its gates, on a bipartition P whose cross
    factor cross_packing packs; the parity criterion and the window
    g <= d/2 <= f are the caller's to have checked."""
    odd_gap = [v for v in G.vertices if (f[v] - g[v]) % 2 == 1]
    z = min(odd_gap) if odd_gap else min(G.vertices)

    m1 = (3 * k + 2) * (k - 1) // 2
    m2 = 2 * k
    g1f, g2f = _stage("decomposition", _eulerian_split, G, P, cross_packing, m1, m2)
    half2 = _half_degrees(g2f)
    g1_graph = g1f.as_graph()
    g1, f1 = _shifted(g1_graph, half2, g, f)

    x = Fraction(G.degree(z), 2) - Fraction(g[z] + f[z], 2) + Fraction(k, 2)
    x = max(Fraction(0), min(x, k - Fraction(1, 2)))
    F1 = _stage(
        "z-defective factor", _defective_factor,
        g1_graph, g1, f1, z, k, x, child_seed(seed, 2),
    )
    d1z = F1.degree(z)

    e2 = g2f.num_edges
    candidates = [
        t for t in (target - d1z - half2[z] for target in (g[z], f[z]))
        if t % 2 == e2 % 2
    ]
    if not candidates:
        raise _StageFailed("neither shift candidate matches the Eulerian part's parity")
    t = min(candidates, key=abs)
    if abs(t) > k:
        raise _StageFailed(f"|t| = {abs(t)} escaped the proof bound k = {k}")

    f2cert = _build_half_factor(g2f.as_graph(), {z: t})
    F = Factor(G, F1.edge_ids | f2cert.factor.edge_ids)
    derivation = (
        ("bipartition", (tuple(sorted(P.X)), tuple(sorted(P.Y)))),
        ("eulerian-part", tuple(sorted(g2f.edge_ids))),
        ("defective-vertex", (z, d1z)),
        ("shift", (z, t)),
    )
    return _certify(F, g, f, None, derivation)


def _defective_factor(
    G: MultiGraph, g: VertexMap, f: VertexMap, z: int, k: int, x: Fraction, seed: int
) -> Factor | None | Unknown:
    """{g,f}-factor off z with -x <= d_F(z) - d(z)/2 < k - x, the values of
    d_F(z) tried nearest d(z)/2 first; None when no value works, UNKNOWN
    when the search for one gives up."""
    half = Fraction(G.degree(z), 2)
    vals = [
        val for val in range(max(0, math.ceil(half - x)), G.degree(z) + 1)
        if val < half + k - x
    ]
    for val in sorted(vals, key=lambda val: abs(val - half)):
        F = find_two_point_factor(G, {**g, z: val}, {**f, z: val}, seed=seed)
        if F is not None:
            return F
    return None


# -- tree-connected versions ----------------------------------------------


def _gate_tree_connected(
    gate: _Gate,
    G: MultiGraph,
    g: VertexMap,
    f: VertexMap,
    params: TheoremParams,
    c: int,
    packer_seed: int,
) -> TreePacking | PackingRefusal:
    """The gates both tree-connected statements share: |f-g| <= k, the
    window g+m0 <= d/2 <= f-m, and (2m+2m0+c k^2)-tree-connectivity, whose
    packing at packer_seed is returned."""
    k, m, m0 = params.k, params.m, params.m0
    gap_bad = [v for v in G.vertices if f[v] - g[v] > k]
    gate.require(
        not gap_bad,
        "|f-g| <= k",
        f"gap exceeds {k} at vertex {gap_bad[0]}" if gap_bad else "",
    )
    _require_window(
        gate,
        G,
        {v: g[v] + m0 for v in G.vertices},
        {v: f[v] - m for v in G.vertices},
        "g+m0 <= d/2 <= f-m",
    )
    need = 2 * m + 2 * m0 + c * k * k
    packing = spanning_tree_packing(G, need, seed=packer_seed)
    gate.require_trees(
        packing, f"(2m+2m0+{c}k^2)-tree-connected", f"no {need} disjoint spanning trees"
    )
    return packing


def _certify_tree_connected(
    G: MultiGraph,
    g: VertexMap,
    f: VertexMap,
    params: TheoremParams,
    g1f: Factor,
    split: tuple[Factor, Factor, TreePacking, TreePacking],
    sub: FactorCertificate,
) -> FactorCertificate:
    """H = hprime + sub's factor, certified with the trees of the split
    (hprime, rest, trees of hprime, trees of rest) of the Eulerian part g1f:
    H contains hprime, and its complement contains rest."""
    hprime, _, split_h, split_c = split
    H = Factor(G, hprime.edge_ids | sub.factor.edge_ids)
    packings = {
        "factor": _carried_packing(H.as_graph(), split_h.trees),
        "complement": _carried_packing(H.complement().as_graph(), split_c.trees),
    }
    derivation = (
        ("eulerian-part", tuple(sorted(g1f.edge_ids))),
        ("balancer", tuple(sorted(hprime.edge_ids))),
    ) + sub.derivation
    counts = {"factor": params.m, "complement": params.m0}
    return _certify(H, g, f, packings, derivation, counts)


@_entry
def tree_connected_gf_bipartite(
    G: MultiGraph,
    P: Bipartition,
    g: VertexMap,
    f: VertexMap,
    params: TheoremParams | None = None,
    assume_hypotheses: bool = False,
    seed: int = 0,
) -> FactorCertificate | None | Unknown:
    """m-tree-connected {g,f}-factor with m0-tree-connected complement in
    a (2m+2m0+4k^2)-tree-connected bipartite graph; d_H(z) = h(z) at
    z = min(P.X) for the balanced selector h that balanced_selector finds.

    Exists iff a balanced selector exists.  The certificate carries tree
    packings for the factor and its complement.
    """
    params = params or TheoremParams()
    m, m0 = params.m, params.m0
    validate_window(G, g, f)
    gate = _Gate(assume_hypotheses)
    _require_bipartite(gate, G, P)
    packing = _gate_tree_connected(gate, G, g, f, params, 4, child_seed(seed, 0))

    h = balanced_selector(G, P, g, f)
    if h is None:
        return None

    if isinstance(packing, PackingRefusal):
        raise _StageFailed("too few spanning trees to pair")

    # each (T_a, T_b) pair gives a connected spanning even factor, so the
    # union of m+m0 pairs is 2(m+m0)-edge-connected and Eulerian
    trees = packing.trees
    g1f = Factor(G, frozenset().union(*(
        _even_closure(trees[a], trees[a + 1]).edge_ids
        for a in range(0, 2 * (m + m0), 2)
    )))
    g2f = g1f.complement()
    g1_graph = g1f.as_graph()
    if not g1_graph.is_eulerian():
        raise AssertionError("paired Eulerian factor broke its contract")
    if edge_connectivity(g1_graph) < 2 * (m + m0):
        raise AssertionError("paired Eulerian factor lost edge connectivity")
    g2_graph = g2f.as_graph()
    # the pairs use only the first 2(m+m0) trees, so G2 keeps the rest
    _carried_packing(g2_graph, trees[2 * (m + m0) :])

    split = _stage("split", _split_complement, g1_graph, m, m0, child_seed(seed, 2))
    # h2 stays balanced only on a bipartite G, which assume_hypotheses may
    # leave ungated; _pinned_bipartite checks it
    g2, f2, h2 = _shifted(g2_graph, split[0].degrees(), g, f, h)
    sub = _pinned_bipartite(g2_graph, P, g2, f2, h2, None, child_seed(seed, 3))
    return _certify_tree_connected(G, g, f, params, g1f, split, sub)


@_entry
def tree_connected_gf(
    G: MultiGraph,
    g: VertexMap,
    f: VertexMap,
    params: TheoremParams | None = None,
    assume_hypotheses: bool = False,
    seed: int = 0,
) -> FactorCertificate | NoFactorCertificate | None | Unknown:
    """m-tree-connected {g,f}-factor with m0-tree-connected complement in
    a (2m+2m0+6k^2)-tree-connected graph with bi(G) >= k-1.

    Exists iff the parity criterion holds; parity failure returns a
    certificate, search caps return UNKNOWN.
    """
    params = params or TheoremParams()
    k, m, m0 = params.k, params.m, params.m0
    validate_window(G, g, f)
    gate = _Gate(assume_hypotheses)
    packer_seed = random.Random(child_seed(seed, 2)).randrange(1 << 30)
    packing = _gate_tree_connected(gate, G, g, f, params, 6, packer_seed)
    gate.require(
        _bi_at_least(G, k - 1, seed=seed),
        "bi(G) >= k-1",
        f"bipartite index below {k - 1}",
    )

    if not parity_criterion(G, g, f):
        return _parity_refutation(G, f)
    # the bi-large stages take k from the largest gap, not from params.k
    kb = _gap_bound(G, g, f)

    # keep-bi's structure search on G2 is bi-large's structure gate at
    # seed s4, so at m = m0 = 0, where G2 is G, the entry is
    # gf_factor_bi_large at s4
    s4 = child_seed(seed, 4)
    g1f, g2f, P, cross_packing = _stage(
        "decomposition", _keep_bi, G, m + m0, 3 * kb * kb, kb - 1, packing, s4
    )
    g1_graph = g1f.as_graph()
    g2_graph = g2f.as_graph()

    # the keep-bi trees prove G1 2(m+m0)-edge-connected and G2's intra
    # count; shifts keep the gaps and the parity criterion, _shifted the window
    split = _stage("split", _split_complement, g1_graph, m, m0, child_seed(seed, 3))
    g2, f2 = _shifted(g2_graph, split[0].degrees(), g, f)
    sub = _bi_large(g2_graph, g2, f2, P, cross_packing, kb, s4)
    return _certify_tree_connected(G, g, f, params, g1f, split, sub)


# -- toughness regime: hypothesis report only -----------------------------


@dataclass(frozen=True)
class HypothesisReport:
    """Evaluated hypothesis rows for the toughness statement; no
    construction is attempted at that scale."""

    rows: tuple[tuple[str, bool, str], ...]


def tough_hypothesis_check(
    G: MultiGraph,
    g: VertexMap,
    f: VertexMap,
    params: TheoremParams,
) -> HypothesisReport:
    """Evaluate every hypothesis of the toughness statement with both
    sides shown; refuses only when the graph exceeds the toughness cap."""
    validate_window(G, g, f)
    k, m, m0, b = params.k, params.m, params.m0, params.b
    rows = []

    tough = toughness(G)
    threshold = 4 * b * b
    if tough.value is None:
        ok = True
        detail = f"toughness = infinite (no separating cut); threshold = {threshold}"
    else:
        ok = tough.value >= threshold
        detail = f"toughness = {tough.value}; threshold = {threshold}"
    rows.append(("toughness >= 4b^2", ok, detail))

    n = G.num_vertices
    rows.append(
        ("|V(G)| >= 4b^2", n >= threshold, f"|V(G)| = {n}; threshold = {threshold}")
    )

    lo = 3 * m + 2 * m0 + 6 * k * k
    fmin = min(f[v] for v in G.vertices)
    fmax = max(f[v] for v in G.vertices)
    rows.append(
        (
            "3m+2m0+6k^2 < f <= b",
            fmin > lo and fmax <= b,
            f"min f = {fmin}, max f = {fmax}, lower bound {lo}, b = {b}",
        )
    )

    gaps = [f[v] - g[v] for v in G.vertices]
    rows.append(
        (
            "m+m0 < f-g <= k",
            min(gaps) > m + m0 and max(gaps) <= k,
            f"min gap = {min(gaps)}, max gap = {max(gaps)}, "
            f"m+m0 = {m + m0}, k = {k}",
        )
    )

    crit = parity_criterion(G, g, f)
    odd = [v for v in G.vertices if (f[v] - g[v]) % 2 == 1]
    if odd:
        detail = f"vertex {odd[0]} has odd gap"
    else:
        detail = f"all gaps even, sum f = {sum(f[v] for v in G.vertices)}"
    rows.append(("parity criterion", crit, detail))

    return HypothesisReport(tuple(rows))
