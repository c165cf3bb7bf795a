"""Property tests of the exact factor finders against the exhaustive oracle.

The hosts are multigraphs with loops and parallel edges and up to 16
edges, past the sizes of the seeded oracle loops in test_factors.py; every
factor that comes back has its degrees checked.  The two-point finder
gets gaps f - g of 0 to 3, so every kind of window it handles.  The Euler
circuit half factors are checked against find_f_factor on even hosts of up
to 20 edges, and against the oracle on those of up to 14, and every
eulerian-half certificate must fail its check once any one edge flips.
On bipartite multigraphs the flow engine of the window finders must agree
with a direct call of the matching gadget and with the oracle.
"""
from __future__ import annotations

import dataclasses

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from factorkit.errors import HypothesisError, is_unknown  # noqa: E402
from factorkit.factors import (  # noqa: E402
    _euler_half_factor,
    _window_matching,
    factor_exists,
    find_f_factor,
    find_interval_factor,
    find_two_point_factor,
)
from factorkit.graph import Factor, MultiGraph  # noqa: E402
from factorkit.pipeline import eulerian_half_factor  # noqa: E402

# the oracle walks all 2^|E| edge subsets, once per shift of a host
_HALF_ORACLE_EDGES = 14


@st.composite
def _multigraph_with_windows(draw):
    # up to 16 edges on up to 6 vertices: loops and parallel edges are
    # common, and each vertex gets a window [g, f] inside [0, d]
    n = draw(st.integers(1, 6))
    ends = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=16))
    G = MultiGraph(range(1, n + 1), pairs)
    g, f = {}, {}
    for v in G.vertices:
        a = draw(st.integers(0, G.degree(v)))
        b = draw(st.integers(0, G.degree(v)))
        g[v], f[v] = min(a, b), max(a, b)
    return G, g, f


@st.composite
def _bipartite_multigraph_with_windows(draw):
    # up to 14 edges across sides X = 1..a and Y = a+1..n, n <= 8, so
    # parallel edges are common and there is no loop
    a = draw(st.integers(1, 7))
    n = draw(st.integers(a, 8))
    pairs = []
    if n > a:
        m = draw(st.integers(0, 14))
        ends = st.tuples(st.integers(1, a), st.integers(a + 1, n))
        pairs = draw(st.lists(ends, min_size=m, max_size=m))
    G = MultiGraph(range(1, n + 1), pairs)
    # windows around the degrees of a drawn edge subset, so that large
    # hosts have factors too, reaching one past [0, d] at either end;
    # sometimes one vertex's window is moved off its degree, which may
    # leave no factor
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    base = dict.fromkeys(G.vertices, 0)
    for (u, v), keep in zip(pairs, kept):
        base[u] += keep
        base[v] += keep
    g, f = {}, {}
    for v in G.vertices:
        g[v] = base[v] - draw(st.integers(0, 1))
        f[v] = base[v] + draw(st.integers(0, 1))
    if draw(st.booleans()):
        z = draw(st.integers(1, n))
        g[z] = f[z] = base[z] + draw(st.sampled_from((-1, 1)))
    return G, g, f


@st.composite
def _eulerian_multigraph(draw):
    # up to three closed walks and two loops on up to 9 vertices: every
    # degree is even, and the walks may leave several components
    n = draw(st.integers(1, 9))
    ends = st.integers(1, n)
    pairs = []
    for walk in draw(st.lists(st.lists(ends, min_size=2, max_size=6), max_size=3)):
        pairs += zip(walk, walk[1:] + walk[:1])
    pairs += [(v, v) for v in draw(st.lists(ends, max_size=2))]
    return MultiGraph(range(1, n + 1), pairs)


def _two_four_cycles() -> MultiGraph:
    return MultiGraph(range(1, 9), [(1, 2), (2, 3), (3, 4), (4, 1),
                                    (5, 6), (6, 7), (7, 8), (8, 5)])


@st.composite
def _multigraph_with_two_points(draw):
    # gaps f - g from {0, 1, 2, 3}: intervals, parity windows and
    # selectors; g may sit at -1 and f past d, so that a two-point window
    # can keep only one of its ends; sometimes one vertex is pinned
    n = draw(st.integers(1, 6))
    ends = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=16))
    G = MultiGraph(range(1, n + 1), pairs)
    g, f = {}, {}
    for v in G.vertices:
        g[v] = draw(st.integers(-1, G.degree(v)))
        f[v] = g[v] + draw(st.sampled_from((0, 1, 2, 3)))
    pin = None
    if draw(st.booleans()):
        z = draw(ends)
        pin = (z, draw(st.sampled_from((g[z], f[z]))))
    return G, g, f, pin


_ORACLE_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


@_ORACLE_SETTINGS
@given(_multigraph_with_windows())
def test_f_factor_property_against_oracle(case):
    G, _, f = case
    got = find_f_factor(G, f)
    expect = factor_exists(G, lambda degs: all(degs[v] == f[v] for v in G.vertices))
    assert (got is not None) == expect
    if got is not None:
        assert got.degrees() == f


@_ORACLE_SETTINGS
@given(_multigraph_with_windows())
def test_interval_factor_property_against_oracle(case):
    G, g, f = case
    got = find_interval_factor(G, g, f)
    expect = factor_exists(
        G, lambda degs: all(g[v] <= degs[v] <= f[v] for v in G.vertices)
    )
    assert (got is not None) == expect
    if got is not None:
        assert all(g[v] <= got.degree(v) <= f[v] for v in G.vertices)


@_ORACLE_SETTINGS
@given(_bipartite_multigraph_with_windows())
def test_bipartite_window_flow_agrees_with_matching_and_oracle(case):
    G, g, f = case
    got = find_interval_factor(G, g, f)
    lo = {v: max(0, g[v]) for v in G.vertices}
    hi = {v: min(G.degree(v), f[v]) for v in G.vertices}
    ids = list(G.edge_ids)
    matched = _window_matching(
        list(G.vertices), [G.endpoints(eid) for eid in ids], lo, hi
    )
    expect = factor_exists(
        G, lambda degs: all(g[v] <= degs[v] <= f[v] for v in G.vertices)
    )
    assert (got is not None) == (matched is not None) == expect
    if got is not None:
        degs = got.degrees()
        assert all(g[v] <= degs[v] <= f[v] for v in G.vertices)


@_ORACLE_SETTINGS
@given(_multigraph_with_two_points())
def test_two_point_factor_property_against_oracle(case):
    G, g, f, pin = case
    if pin is not None:
        # pinned at z is the one-point window {value} there
        z, val = pin
        g, f = {**g, z: val}, {**f, z: val}
    got = find_two_point_factor(G, g, f)
    expect = factor_exists(
        G, lambda degs: all(degs[v] in (g[v], f[v]) for v in G.vertices)
    )
    assert not is_unknown(got)
    assert (got is not None) == expect
    if got is not None:
        assert all(got.degree(v) in (g[v], f[v]) for v in G.vertices)


@_ORACLE_SETTINGS
@given(_eulerian_multigraph())
@example(_two_four_cycles())
def test_euler_half_factor_property_against_finder_and_oracle(G):
    # the zero shift and every shift by 1 at one vertex whose target
    # stays in [0, d]
    shifts = [{}] + [{z: s} for z in G.vertices for s in (1, -1)]
    for i in shifts:
        f = {v: G.degree(v) // 2 + i.get(v, 0) for v in G.vertices}
        if not all(0 <= f[v] <= G.degree(v) for v in G.vertices):
            continue
        got = _euler_half_factor(G, i)
        if got is not None:
            assert got.degrees() == f
        assert (got is not None) == (find_f_factor(G, f) is not None)
        if G.num_edges <= _HALF_ORACLE_EDGES:
            assert (got is not None) == factor_exists(G, lambda degs: degs == f)


def test_two_four_cycles_certify_under_assumed_connectivity():
    # t = 0 gates connectivity, but each 4-cycle has an even edge count,
    # so the circuit of each component gives its half factor
    G = _two_four_cycles()
    zero = {v: 0 for v in G.vertices}
    with pytest.raises(HypothesisError):
        eulerian_half_factor(G, zero)
    cert = eulerian_half_factor(G, zero, assume_hypotheses=True)
    assert cert.verify()
    assert cert.factor.degrees() == {v: 1 for v in G.vertices}


@_ORACLE_SETTINGS
@given(_eulerian_multigraph(), st.data())
def test_flipping_one_edge_breaks_a_half_factor_certificate(G, data):
    # half factors have exact degrees, so any one edge moved into or out
    # of the factor changes a degree the certificate reports; a two-point
    # window could absorb such a flip, so this is scoped to half factors
    ends = st.sampled_from(G.vertices)
    i = {v: 0 for v in G.vertices}
    for z in data.draw(st.lists(ends, max_size=2)):
        i[z] += data.draw(st.sampled_from((1, -1)))
    cert = eulerian_half_factor(G, i, assume_hypotheses=True)
    if cert is None:
        return
    assert cert.verify()
    for eid in G.edge_ids:
        flipped = Factor(G, cert.factor.edge_ids ^ {eid})
        assert not dataclasses.replace(cert, factor=flipped).verify()
