"""Property test of perfect_matching against networkx's maximum matching.

perfect_matching stops at the first augmenting search that fails, so its
None is checked here against an independent matcher on multigraphs with
loops and parallel edges, and every mate array it returns must be a
perfect matching of the input's edges.
"""
from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from factorkit.matching import perfect_matching  # noqa: E402


@st.composite
def _multigraph(draw):
    # up to 15 vertices and 30 edges: loops and parallel edges are common,
    # and the order is mostly even, since an odd one needs no search
    n = 2 * draw(st.integers(0, 7)) + draw(st.sampled_from((0, 0, 0, 1)))
    if n == 0:
        return 0, []
    ends = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(ends, ends), max_size=30))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_multigraph())
def test_perfect_matching_is_none_exactly_when_networkx_finds_none(case):
    n, edges = case
    got = perfect_matching(n, edges)
    H = nx.Graph()
    H.add_nodes_from(range(n))
    H.add_edges_from((u, v) for u, v in edges if u != v)
    perfect = 2 * len(nx.max_weight_matching(H, maxcardinality=True)) == n
    assert (got is not None) == perfect
    if got is not None:
        host = {frozenset(e) for e in edges if e[0] != e[1]}
        assert all(got[got[v]] == v and frozenset((v, got[v])) in host for v in range(n))
