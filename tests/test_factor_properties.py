"""Property tests of the exact factor finders against the exhaustive oracle.

The hosts are multigraphs with loops and parallel edges and up to 16
edges, past the sizes of the seeded oracle loops in test_factors.py; every
factor that comes back has its degrees checked.  The two-point finder
gets gaps f - g of 0 to 3, so every kind of window it handles.
"""
from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from factorkit.errors import is_unknown  # noqa: E402
from factorkit.factors import (  # noqa: E402
    factor_exists,
    find_f_factor,
    find_interval_factor,
    find_two_point_factor,
)
from factorkit.graph import MultiGraph  # noqa: E402


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
@given(_multigraph_with_two_points())
def test_two_point_factor_property_against_oracle(case):
    G, g, f, pin = case
    got = find_two_point_factor(G, g, f, pin=pin)
    expect = factor_exists(
        G,
        lambda degs: all(degs[v] in (g[v], f[v]) for v in G.vertices)
        and (pin is None or degs[pin[0]] == pin[1]),
    )
    assert not is_unknown(got)
    assert (got is not None) == expect
    if got is not None:
        assert all(got.degree(v) in (g[v], f[v]) for v in G.vertices)
        assert pin is None or got.degree(pin[0]) == pin[1]
