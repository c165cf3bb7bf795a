"""Property tests of the exact factor finders against the exhaustive oracle.

The hosts are multigraphs with loops and parallel edges and up to 16
edges, past the sizes of the seeded oracle loops in test_factors.py; every
factor that comes back has its degrees checked.
"""
from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from factorkit.factors import factor_exists, find_f_factor, find_interval_factor  # noqa: E402
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
