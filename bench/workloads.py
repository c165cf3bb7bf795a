"""Workload inputs for the factorkit benchmark.

Every input is drawn from the benchmark seed; factorkit receives only the
generated graphs and degree maps.  Each workload is a list of `Instance`s
that the runner calls in order, round after round, from one process.

* `campaign`: `harness.verify_theorem` over all ten theorem ids, many tiny
  hosts per call (the `factorkit verify` traffic).
* `pipelines`: direct calls to the factor pipelines on generator hosts of
  growing size (the `factorkit factor` traffic); the tree packer dominates.
* `queries`: exact single calls in which no tree packing runs; the matcher,
  the flow and the bipartite-index sweep dominate.  Its hosts come from this
  file's own generator, so that no packer call lands even in set-up.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks
import factorkit as fk
from factorkit import (
    Bipartition,
    Factor,
    GenSpec,
    MultiGraph,
    TheoremParams,
    balanced_bipartition_of,
    balanced_selector,
    gen_functions,
    gen_tree_connected,
)
from factorkit.harness import THEOREM_IDS

# Calls per round and trials per verify_theorem call.  Trials are set so
# that a call costs about 0.06 s, and each theorem but one gets ten calls,
# so that the trial-to-trial swing of a theorem averages out within a
# round.  An almost-bipartite trial either stops at once (no admissible
# selector) or packs 20 trees into a 5-vertex host with ~90 parallel edges
# (~0.25 s), so which of the two a seed draws moves a round's time; two
# calls of 3 trials (every theorem gets at least 3) keep that swing, and
# the theorem's share of a round, small.
# eulerian-half covers its three loop variants with a multiple of 3 trials.
CAMPAIGN_MIX = {
    "tutte-equiv": (10, 165),
    "lovasz-equiv": (10, 75),
    "bijection": (10, 195),
    "eulerian-half": (10, 39),
    "bipartite-gf": (10, 24),
    "almost-bipartite": (2, 3),
    "bi-large": (10, 20),
    "tree-gf-bipartite": (10, 9),
    "tree-gf": (10, 6),
    "tough-check": (10, 90),
}

# Hosts per round of each pipeline cell, by n.  A round must stay short
# (about 3.5 s) so that a run's rounds average the machine's faster and
# slower stretches; so the costly cells get one or two hosts.
# eulerian-half costs nearly the same on every host of one size, so its
# blocks hold the percentiles, each near the middle of its block: the 23
# calls under 15 ms (eulerian-half and bipartite-gf at n=16) put p50 (28th
# of 56) 5th in the n=32 block of 8, and the 10 calls above 85 ms put p75
# (42nd, 14 beyond) 5th from the top of the n=64 block of 8.  Left out: tree-gf-bipartite at n=64
# (UNKNOWN after 2-3 s) and bipartite-gf k=2 at n=32 (about 1 s a call).
PIPELINES_MIX = {
    "eulerian-half": {16: 13, 32: 8, 64: 8},
    "bipartite-gf k=1": {16: 10, 32: 2, 64: 1},
    "bipartite-gf k=2": {16: 1},
    "almost-bipartite": {16: 2, 32: 1},
    "bi-large": {16: 2, 32: 1, 64: 1},
    "tree-gf-bipartite": {16: 1, 32: 1},
    "tree-gf": {16: 1},
    "refusal": {32: 2, 64: 1},
}

# Hosts per round of each query, by n.  find_interval_factor at n=80
# matches on a ~1000-vertex gadget and takes ~40% of a round.  The 17
# calls of up to ~24 ms and the 17 over 40 ms put p50 (21st of 42) in the
# middle of the eight edge_connectivity n=80 calls (~25 ms), and p75 (32nd,
# 10 beyond) inside the ten find_f_factor n=80 and toughness n=14 calls.
QUERIES_MIX = {
    "find_f_factor": {40: 3, 80: 3},
    "find_interval_factor": {40: 2, 80: 1},
    "interval_orientation": {40: 1, 80: 3},
    "edge_connectivity": {40: 1, 80: 8},
    "bipartite_index": {16: 2, 18: 2, 20: 1},
    "toughness": {12: 2, 14: 7},
    "check_lovasz_condition": {8: 3, 10: 3},
}

# The refusal hosts fail gf_factor_bipartite's tree-connectivity gate for
# k = 1: (hypothesis, trees the gate asks for).
REFUSAL_GATE = ("4k^2-tree-connected", 4)


@dataclass
class Instance:
    """One call into a public factorkit entry point, with its own checker.

    `call` runs the program; `check(result)` returns the outcome label
    (certificate, none, no-factor, refusal:<hypothesis>, unknown, answer,
    report) or raises `checks.Mismatch` when the answer is wrong.
    """

    cell: str
    call: Callable[[], object]
    check: Callable[[object], str]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _sub_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


def _doubled(G: MultiGraph) -> MultiGraph:
    pairs = [(u, v) for _, u, v in G.edges]
    return MultiGraph(list(G.vertices), pairs + pairs)


# -- campaign --------------------------------------------------------------


def campaign(seed: int) -> list[Instance]:
    rng = _rng("campaign", seed)
    out = []
    for theorem in THEOREM_IDS:
        calls, trials = CAMPAIGN_MIX[theorem]
        for _ in range(calls):
            master = _sub_seed(rng)
            out.append(Instance(
                f"{theorem} x{trials}",
                lambda t=theorem, n=trials, s=master: fk.verify_theorem(t, n, master_seed=s),
                lambda r, t=theorem, n=trials: checks.report(r, t, n),
            ))
    return out


# -- pipelines -------------------------------------------------------------


def _two_halves(n: int, seed: int) -> tuple[MultiGraph, Bipartition]:
    """Two 4-tree-connected bipartite halves joined by 3 cross edges.

    Each half carries extra edges, so the whole graph has at least
    4(n - 1) edges and passes the packer's edge-count test; the packer then
    runs its full augmentation before it certifies the refusal.
    """
    half = n // 2
    rng = random.Random(seed)
    parts = []
    for j in range(2):
        H = gen_tree_connected(
            GenSpec(n=half, trees=4, extra_edges=half // 4, bipartite=True,
                    seed=_sub_seed(rng))
        )
        P = balanced_bipartition_of(H)
        shift = j * half
        parts.append((
            [(u + shift, v + shift) for _, u, v in H.edges],
            sorted(x + shift for x in P.X),
            sorted(y + shift for y in P.Y),
        ))
    (e1, x1, y1), (e2, x2, y2) = parts
    bridges = [
        (rng.choice(x1), rng.choice(y2)),
        (rng.choice(y1), rng.choice(x2)),
        (rng.choice(x1), rng.choice(y2)),
    ]
    G = MultiGraph(range(1, 2 * half + 1), e1 + e2 + bridges)
    return G, Bipartition(frozenset(x1 + x2), frozenset(y1 + y2))


def _hosts(rng: random.Random, sizes: dict[int, int]) -> list[tuple[int, int]]:
    """(n, host seed) per host; `sizes` maps each n to its hosts per round."""
    return [(n, _sub_seed(rng)) for n, count in sizes.items() for _ in range(count)]


def pipelines(seed: int) -> list[Instance]:
    rng = _rng("pipelines", seed)
    out: list[Instance] = []

    def gen(n, trees, s, bipartite=False, doubled=False):
        G = gen_tree_connected(
            GenSpec(n=n, trees=trees, extra_edges=n // 4, bipartite=bipartite, seed=s)
        )
        return _doubled(G) if doubled else G

    for n, s in _hosts(rng, PIPELINES_MIX["eulerian-half"]):
        # one loop makes |E| odd, so t = sum|i| = 1 meets the parity gate
        base = gen(n, 2, s, doubled=True)
        v = 1 + s % n
        G = base.with_added_edges([(v, v)])
        i = {w: 0 for w in G.vertices}
        i[v] = 1 if s % 2 else -1
        out.append(Instance(
            f"eulerian-half n={n}",
            lambda G=G, i=i: fk.eulerian_half_factor(G, i),
            lambda r, G=G, i=i: checks.half_factor(r, G, i),
        ))

    for n, s in _hosts(rng, PIPELINES_MIX["bipartite-gf k=1"]):
        G = gen(n, 4, s, bipartite=True)
        P = balanced_bipartition_of(G)
        g, f = gen_functions(G, k=1, seed=s)
        out.append(Instance(
            f"bipartite-gf k=1 n={n}",
            lambda G=G, P=P, g=g, f=f, s=s: fk.gf_factor_bipartite(G, P, g, f, seed=s),
            lambda r, G=G, P=P, g=g, f=f: checks.two_point(r, G, g, f, P=P),
        ))

    for n, s in _hosts(rng, PIPELINES_MIX["bipartite-gf k=2"]):
        G = gen(n, 16, s, bipartite=True)
        P = balanced_bipartition_of(G)
        g, f = gen_functions(G, k=2, seed=s)
        out.append(Instance(
            f"bipartite-gf k=2 n={n}",
            lambda G=G, P=P, g=g, f=f, s=s: fk.gf_factor_bipartite(G, P, g, f, seed=s),
            lambda r, G=G, P=P, g=g, f=f: checks.two_point(r, G, g, f, P=P),
        ))

    for n, s in _hosts(rng, PIPELINES_MIX["almost-bipartite"]):
        # the selector is balanced on the generator's bipartition; the
        # pipeline has to find that bipartition itself
        while True:
            G = gen(n, 6, s, bipartite=True)
            g, f = gen_functions(G, k=1, seed=s)
            h = balanced_selector(G, balanced_bipartition_of(G), g, f)
            if h is not None:
                break
            s = _sub_seed(rng)
        out.append(Instance(
            f"almost-bipartite n={n}",
            lambda G=G, g=g, f=f, h=h, s=s: fk.gf_factor_almost_bipartite(G, g, f, h, seed=s),
            lambda r, G=G, g=g, f=f: checks.two_point(r, G, g, f),
        ))

    for n, s in _hosts(rng, PIPELINES_MIX["bi-large"]):
        G = gen(n, 3, s, bipartite=True)
        xs = sorted(balanced_bipartition_of(G).X)
        G = G.with_added_edges([(xs[0], xs[1])])
        g, f = gen_functions(G, k=1, seed=s)
        out.append(Instance(
            f"bi-large n={n}",
            lambda G=G, g=g, f=f, s=s: fk.gf_factor_bi_large(G, g, f, seed=s),
            lambda r, G=G, g=g, f=f: checks.two_point(r, G, g, f),
        ))

    params = TheoremParams(k=1, m=1, m0=0)
    for n, s in _hosts(rng, PIPELINES_MIX["tree-gf-bipartite"]):
        G = gen(n, 3, s, bipartite=True, doubled=True)
        P = balanced_bipartition_of(G)
        g, f = gen_functions(G, k=1, m=1, seed=s)
        out.append(Instance(
            f"tree-gf-bipartite n={n}",
            lambda G=G, P=P, g=g, f=f, s=s: fk.tree_connected_gf_bipartite(
                G, P, g, f, params=params, seed=s),
            lambda r, G=G, P=P, g=g, f=f: checks.two_point(r, G, g, f, P=P, m=1, m0=0),
        ))

    # Only n=16: above it the call often ends in UNKNOWN after its search
    # budget, and that time is long-tailed (n=24: 1.2-8 s, n=32: 1.2-14.4 s,
    # n=64: 124-136 s on earlier seeds), so one host would set a run's
    # throughput by itself.  bi-large at n=32 and 64 keeps UNKNOWN cells.
    for n, s in _hosts(rng, PIPELINES_MIX["tree-gf"]):
        G = gen(n, 4, s, doubled=True)
        g, f = gen_functions(G, k=1, m=1, seed=s)
        out.append(Instance(
            f"tree-gf n={n}",
            lambda G=G, g=g, f=f, s=s: fk.tree_connected_gf(G, g, f, params=params, seed=s),
            lambda r, G=G, g=g, f=f: checks.two_point(r, G, g, f, m=1, m0=0),
        ))

    for n, s in _hosts(rng, PIPELINES_MIX["refusal"]):
        G, P = _two_halves(n, s)
        g, f = gen_functions(G, k=1, seed=s)
        out.append(Instance(
            f"refusal n={n}",
            lambda G=G, P=P, g=g, f=f, s=s: fk.gf_factor_bipartite(G, P, g, f, seed=s),
            lambda r, G=G, P=P, g=g, f=f: checks.two_point(r, G, g, f, P=P, gate=REFUSAL_GATE),
        ))
    return out


# -- queries ---------------------------------------------------------------


def random_graph(n: int, extra: int, rng: random.Random, simple: bool = False) -> MultiGraph:
    """Random recursive tree on 1..n plus `extra` random non-loop edges."""
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    seen = {frozenset(e) for e in edges}
    while len(edges) < n - 1 + extra:
        u, v = rng.sample(range(1, n + 1), 2)
        if simple and frozenset((u, v)) in seen:
            continue
        seen.add(frozenset((u, v)))
        edges.append((u, v))
    return MultiGraph(range(1, n + 1), edges)


def _planted_degrees(G: MultiGraph, rng: random.Random) -> dict[int, int]:
    picked = frozenset(eid for eid in G.edge_ids if rng.random() < 0.5)
    return Factor(G, picked).degrees()


def queries(seed: int) -> list[Instance]:
    rng = _rng("queries", seed)
    out: list[Instance] = []
    for n, s in _hosts(rng, QUERIES_MIX["find_f_factor"]):
        G = random_graph(n, 2 * n, random.Random(s))
        f = _planted_degrees(G, random.Random(s + 1))
        out.append(Instance(
            f"find_f_factor n={n}",
            lambda G=G, f=f: fk.find_f_factor(G, f),
            lambda r, G=G, f=f: checks.window_factor(r, G, f, f),
        ))
    for n, s in _hosts(rng, QUERIES_MIX["find_interval_factor"]):
        G = random_graph(n, 2 * n, random.Random(s))
        d = _planted_degrees(G, random.Random(s + 1))
        g = {v: max(0, d[v] - 1) for v in G.vertices}
        f = {v: min(G.degree(v), d[v] + 1) for v in G.vertices}
        out.append(Instance(
            f"find_interval_factor n={n}",
            lambda G=G, g=g, f=f: fk.find_interval_factor(G, g, f),
            lambda r, G=G, g=g, f=f: checks.window_factor(r, G, g, f),
        ))
    for n, s in _hosts(rng, QUERIES_MIX["interval_orientation"]):
        G = random_graph(n, 2 * n, random.Random(s))
        coin = random.Random(s + 1)
        outdeg = {v: 0 for v in G.vertices}
        for _, u, v in G.edges:
            outdeg[u if coin.random() < 0.5 else v] += 1
        p = {v: max(0, outdeg[v] - 1) for v in G.vertices}
        q = {v: outdeg[v] + 1 for v in G.vertices}
        out.append(Instance(
            f"interval_orientation n={n}",
            lambda G=G, p=p, q=q: fk.interval_orientation(G, p, q),
            lambda r, G=G, p=p, q=q: checks.orientation(r, G, p, q),
        ))
    for n, s in _hosts(rng, QUERIES_MIX["edge_connectivity"]):
        G = random_graph(n, 2 * n, random.Random(s))
        out.append(Instance(
            f"edge_connectivity n={n}",
            lambda G=G: fk.edge_connectivity(G),
            lambda r, G=G: checks.edge_connectivity(r, G),
        ))
    for n, s in _hosts(rng, QUERIES_MIX["bipartite_index"]):
        G = random_graph(n, n, random.Random(s), simple=True)
        out.append(Instance(
            f"bipartite_index n={n}",
            lambda G=G: fk.bipartite_index(G),
            lambda r, G=G: checks.bipartite_index(r, G),
        ))
    for n, s in _hosts(rng, QUERIES_MIX["toughness"]):
        G = random_graph(n, n // 2, random.Random(s), simple=True)
        out.append(Instance(
            f"toughness n={n}",
            lambda G=G: fk.toughness(G),
            lambda r, G=G: checks.toughness(r, G),
        ))
    for n, s in _hosts(rng, QUERIES_MIX["check_lovasz_condition"]):
        pick = random.Random(s)
        G = random_graph(n, n + 8 - (n - 1), pick)  # n + 8 edges: 16 at n=8, 18 at n=10
        g, f = {}, {}
        if n >= 10:
            # a planted window: the criterion holds, so the call sweeps all
            # of its (S, T) pairs instead of stopping at a violation found
            # early, and its time does not swing with the draw
            d = _planted_degrees(G, pick)
            for v in G.vertices:
                g[v], f[v] = max(0, d[v] - 1), min(G.degree(v), d[v] + 1)
        else:
            for v in G.vertices:
                a, b = pick.randint(0, G.degree(v)), pick.randint(0, G.degree(v))
                g[v], f[v] = min(a, b), max(a, b)
        out.append(Instance(
            f"check_lovasz_condition n={n}",
            lambda G=G, g=g, f=f: fk.check_lovasz_condition(G, g, f),
            lambda r, G=G, g=g, f=f: checks.lovasz(r, G, g, f),
        ))
    return out


BUILDERS = {"campaign": campaign, "pipelines": pipelines, "queries": queries}


def warm(workload: str) -> None:
    """One tiny call per layer the workload reaches, so that lazy imports
    (numpy in `bipartite_index`) land in set-up, not in a timed instance."""
    tri = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (3, 1), (1, 2), (2, 3), (3, 1)])
    fk.bipartite_index(tri)
    fk.edge_connectivity(tri)
    fk.find_f_factor(tri, {1: 2, 2: 2, 3: 2})
    fk.find_interval_factor(tri, {1: 1, 2: 1, 3: 1}, {1: 2, 2: 2, 3: 2})
    fk.interval_orientation(tri, {1: 1, 2: 1, 3: 1}, {1: 3, 2: 3, 3: 3})
    fk.toughness(tri)
    if workload == "queries":
        fk.check_lovasz_condition(tri, {1: 0, 2: 0, 3: 0}, {1: 2, 2: 2, 3: 2})
        return
    fk.spanning_tree_packing(tri, 2)
    fk.eulerian_half_factor(tri, {1: 0, 2: 0, 3: 0})
    if workload == "campaign":
        for theorem in THEOREM_IDS:
            if theorem != "almost-bipartite":
                fk.verify_theorem(theorem, 1)
