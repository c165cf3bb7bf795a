"""Orientation layer against exhaustive orientation enumeration."""
from __future__ import annotations

import itertools
import random

import pytest

from factorkit.errors import HypothesisError, InputError, is_unknown
from factorkit.graph import Bipartition, Factor, MultiGraph
from factorkit.orientations import (
    Orientation,
    eulerian_orientation,
    factor_from_orientation,
    interval_orientation,
    orientation_from_factor,
    two_point_orientation,
)


def random_multigraph(rng, n_lo=2, n_hi=5, max_edges=10, loops=True):
    n = rng.randint(n_lo, n_hi)
    verts = list(range(1, n + 1))
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        if loops and rng.random() < 0.1:
            v = rng.choice(verts)
            edges.append((v, v))
        else:
            edges.append(tuple(rng.sample(verts, 2)))
    return MultiGraph(verts, edges)


def all_outdegree_vectors(G):
    ids = list(G.edge_ids)
    ends = [G.endpoints(e) for e in ids]
    for bits in itertools.product((0, 1), repeat=len(ids)):
        out = {v: 0 for v in G.vertices}
        for b, (u, v) in zip(bits, ends):
            if u == v:
                out[u] += 1
            else:
                out[u if b else v] += 1
        yield out


def test_interval_orientation_agrees_with_enumeration():
    rng = random.Random(31)
    for _ in range(300):
        G = random_multigraph(rng, max_edges=9)
        p, q = {}, {}
        for v in G.vertices:
            a = rng.randint(-1, G.degree(v))
            b = rng.randint(0, G.degree(v) + 1)
            p[v], q[v] = min(a, b), max(a, b)
        got = interval_orientation(G, p, q)
        expect = any(
            all(p[v] <= out[v] <= q[v] for v in G.vertices)
            for out in all_outdegree_vectors(G)
        )
        assert (got is not None) == expect, (G.edges, p, q)
        if got is not None:
            outs = got.outdegrees()
            assert all(p[v] <= outs[v] <= q[v] for v in G.vertices)


def test_two_point_orientation_agrees_with_enumeration():
    rng = random.Random(37)
    for _ in range(200):
        G = random_multigraph(rng, max_edges=8)
        p, q = {}, {}
        for v in G.vertices:
            a, b = rng.randint(0, G.degree(v)), rng.randint(0, G.degree(v))
            p[v], q[v] = min(a, b), max(a, b)
        got = two_point_orientation(G, p, q)
        assert not is_unknown(got)
        expect = any(
            all(out[v] in (p[v], q[v]) for v in G.vertices)
            for out in all_outdegree_vectors(G)
        )
        assert (got is not None) == expect, (G.edges, p, q)
        if got is not None:
            outs = got.outdegrees()
            assert all(outs[v] in (p[v], q[v]) for v in G.vertices)


@pytest.mark.parametrize("n", range(21, 26))
def test_two_point_orientation_decides_gap_two_past_the_selector_cap(n):
    # d+(v) in {0, 2} around C_n, with a loop at 1 when n is odd: past 20
    # vertices of gap 2 a selector sample almost never hits an answer,
    # while the incidence factor decides in one matching
    G = MultiGraph(
        range(1, n + 1), [(v, v % n + 1) for v in range(1, n + 1)] + [(1, 1)] * (n % 2)
    )
    p = {v: 0 for v in G.vertices}
    q = {v: 2 for v in G.vertices}
    got = two_point_orientation(G, p, q)
    assert not is_unknown(got) and got is not None
    assert set(got.outdegrees().values()) == {0, 2}
    odd = two_point_orientation(G, {**p, 2: 1}, {**q, 2: 1})
    assert not is_unknown(odd) and odd is None


def test_eulerian_orientation_halves_degrees():
    rng = random.Random(41)
    for _ in range(60):
        base = random_multigraph(rng, max_edges=8, loops=True)
        pairs = [(u, v) for _, u, v in base.edges]
        n = base.num_vertices
        hosts = [MultiGraph(list(base.vertices), pairs + pairs)]
        # disconnected: a second doubled copy, an isolated vertex, and a
        # vertex with only loops, which the incidence graph leaves isolated
        copy = [(u + n, v + n) for u, v in pairs]
        loops = [(2 * n + 2, 2 * n + 2)] * rng.randint(1, 3)
        hosts.append(MultiGraph(range(1, 2 * n + 3), pairs * 2 + copy * 2 + loops))
        for G in hosts:
            D = eulerian_orientation(G)
            outs = D.outdegrees()
            assert all(outs[v] == G.degree(v) // 2 for v in G.vertices)
    only_loops = MultiGraph([1, 2], [(1, 1), (1, 1), (2, 2)])
    D = eulerian_orientation(only_loops)
    assert D.directions == {1: (1, 1), 2: (1, 1), 3: (2, 2)}
    with pytest.raises(HypothesisError) as exc:
        eulerian_orientation(MultiGraph([1, 2], [(1, 2)]))
    assert exc.value.hypothesis == "even degrees"
    with pytest.raises(HypothesisError):
        eulerian_orientation(MultiGraph([1, 2, 3, 4], [(1, 1), (3, 4)]))


def test_factor_orientation_round_trip():
    rng = random.Random(47)
    for _ in range(100):
        n_x = rng.randint(1, 3)
        n_y = rng.randint(1, 3)
        xs = list(range(1, n_x + 1))
        ys = list(range(n_x + 1, n_x + n_y + 1))
        edges = [
            (rng.choice(xs), rng.choice(ys)) for _ in range(rng.randint(1, 8))
        ]
        G = MultiGraph(xs + ys, edges)
        P = Bipartition(frozenset(xs), frozenset(ys))
        ids = sorted(G.edge_ids)
        F = Factor(G, frozenset(e for e in ids if rng.random() < 0.5))
        D = orientation_from_factor(G, P, F)
        assert factor_from_orientation(G, P, D).edge_ids == F.edge_ids
        outs = D.outdegrees()
        for v in G.vertices:
            if v in P.X:
                assert F.degree(v) == outs[v]
            else:
                assert F.degree(v) == G.degree(v) - outs[v]
        # and back from an arbitrary orientation
        directions = {
            eid: ((u, v) if rng.random() < 0.5 else (v, u))
            for eid, u, v in G.edges
        }
        D0 = Orientation(G, directions)
        F0 = factor_from_orientation(G, P, D0)
        D1 = orientation_from_factor(G, P, F0)
        assert D1.directions == D0.directions


def test_factor_orientation_correspondence_requires_same_host():
    G1 = MultiGraph([1, 2], [(1, 2)])
    G2 = MultiGraph([1, 2], [(1, 2)])
    P = Bipartition(frozenset({1}), frozenset({2}))
    with pytest.raises(InputError):
        orientation_from_factor(G1, P, Factor(G2, frozenset()))
    D2 = orientation_from_factor(G2, P, Factor(G2, frozenset()))
    with pytest.raises(InputError):
        factor_from_orientation(G1, P, D2)


def test_orientation_validates_all_edges_directed():
    G = MultiGraph([1, 2], [(1, 2), (1, 2)])
    ids = sorted(G.edge_ids)
    with pytest.raises(InputError):
        Orientation(G, {ids[0]: (1, 2)})
    with pytest.raises(InputError):
        Orientation(G, {ids[0]: (1, 2), ids[1]: (2, 9)})
