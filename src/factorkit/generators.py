"""Random instance generation: tree-connected multigraph hosts and
degree windows shaped for the factor theorems.

Generated graphs are self-certifying (the Wilson trees they are built
from are checked as a packing of the requested size before the graph is
handed out), so a campaign never has to trust the generator about its
own hypotheses.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .connectivity import TreePacking
from .errors import HypothesisError, InputError
from .graph import Bipartition, Factor, MultiGraph
from .rng import child_seed


@dataclass(frozen=True)
class GenSpec:
    """Recipe for a random host graph.

    The graph is a union of `trees` independent uniform random spanning
    trees (Wilson's walk), plus `extra_edges` uniform random non-loop
    edges.  With `bipartite` set, a random balanced bipartition is fixed
    first and every edge is a cross edge.
    """

    n: int
    trees: int
    extra_edges: int = 0
    bipartite: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InputError("need at least two vertices")
        if self.trees < 0 or self.extra_edges < 0:
            raise InputError("tree and extra edge counts must be nonnegative")


def _wilson_tree(vertices: list[int], step, rng: random.Random) -> list[tuple[int, int]]:
    # loop-erased random walks; `step(v)` samples a uniform neighbor in
    # the support graph (complete, or complete bipartite across sides)
    in_tree = {vertices[0]}
    nxt: dict[int, int] = {}
    for start in vertices[1:]:
        if start in in_tree:
            continue
        v = start
        while v not in in_tree:
            nxt[v] = step(v, rng)
            v = nxt[v]
        v = start
        while v not in in_tree:
            in_tree.add(v)
            v = nxt[v]
    return [(v, nxt[v]) for v in vertices if v in nxt]


def gen_tree_connected(spec: GenSpec) -> MultiGraph:
    """Draw a host graph per `spec` and certify its tree-connectivity.

    Returns a graph on vertices 1..n that passes
    spanning_tree_packing(spec.trees): tree i holds the edge ids
    i(n-1)+1 .. (i+1)(n-1), and that packing is verified here as a
    self-check before returning.
    """
    rng = random.Random(child_seed(spec.seed, 0))
    vertices = list(range(1, spec.n + 1))

    if spec.bipartite:
        shuffled = vertices[:]
        rng.shuffle(shuffled)
        half = spec.n // 2
        xs, ys = shuffled[:half], shuffled[half:]
        side = {v: 0 for v in xs}
        side.update({v: 1 for v in ys})

        def step(v: int, r: random.Random) -> int:
            return r.choice(ys if side[v] == 0 else xs)

        def random_pair(r: random.Random) -> tuple[int, int]:
            return r.choice(xs), r.choice(ys)

    else:

        def step(v: int, r: random.Random) -> int:
            w = r.choice(vertices)
            while w == v:
                w = r.choice(vertices)
            return w

        def random_pair(r: random.Random) -> tuple[int, int]:
            u, w = r.sample(vertices, 2)
            return u, w

    edges: list[tuple[int, int]] = []
    for i in range(spec.trees):
        walk = random.Random(child_seed(spec.seed, i + 1))
        order = vertices[:]
        walk.shuffle(order)
        edges.extend(_wilson_tree(order, step, walk))
    for _ in range(spec.extra_edges):
        edges.append(random_pair(rng))

    G = MultiGraph(vertices, edges)
    size = spec.n - 1
    trees = tuple(
        Factor(G, frozenset(range(i * size + 1, (i + 1) * size + 1)))
        for i in range(spec.trees)
    )
    if not TreePacking(G, trees).verify():
        raise AssertionError("generator trees are not a spanning tree packing")
    return G


def balanced_bipartition_of(G: MultiGraph) -> Bipartition:
    """Recover a bipartition of a bipartite graph (MultiGraph.bipartition).
    Each component's first vertex in G's order goes to X, so isolated
    vertices go to X whatever its size: the path 1-2-3 plus an isolated 4
    gives X = {1, 3, 4} and Y = {2}."""
    P = G.bipartition()
    if P is None:
        if any(G.loops_at(v) for v in G.vertices):
            raise InputError("graph has a loop, not bipartite")
        raise InputError("graph is not bipartite")
    return P


def gen_functions(
    G: MultiGraph, k: int, m: int = 0, m0: int = 0, seed: int = 0
) -> tuple[dict[int, int], dict[int, int]]:
    """Sample (g, f) with g(v)+m0 <= d(v)/2 <= f(v)-m, f-g <= k, and
    0 <= g <= f <= d(v), uniformly per vertex over the feasible box.

    Raises a refusal naming the first vertex whose window is empty.
    """
    if k < 1 or m < 0 or m0 < 0:
        raise InputError("need k >= 1 and m, m0 >= 0")
    rng = random.Random(child_seed(seed, 0x67656E))
    g: dict[int, int] = {}
    f: dict[int, int] = {}
    for v in G.vertices:
        d = G.degree(v)
        f_lo = (d + 1) // 2 + m         # f >= d/2 + m
        g_hi = d // 2 - m0              # g <= d/2 - m0
        if g_hi < 0 or f_lo > d or f_lo - g_hi > k:
            raise HypothesisError(
                "nonempty degree window at every vertex",
                "window empty at vertex %d (degree %d, k=%d, m=%d, m0=%d)"
                % (v, d, k, m, m0),
            )
        gv = rng.randint(max(0, f_lo - k), g_hi)
        fv = rng.randint(f_lo, min(d, gv + k))
        g[v], f[v] = gv, fv
    return g, f
