"""Graph model: degree conventions, factors, and the text format."""
from __future__ import annotations

import random

import pytest

from factorkit.errors import GraphParseError, InputError
from factorkit.graph import (
    Bipartition,
    Factor,
    MultiGraph,
    induced_bipartite_factor,
    parse_graph,
    partition_stats,
    serialize_graph,
)


def test_loop_counts_twice_in_degree_once_in_edge_count():
    G = MultiGraph([1, 2], [(1, 1), (1, 2)])
    assert G.degree(1) == 3
    assert G.degree(2) == 1
    assert G.num_edges == 2
    assert G.loops_at(1) == 1


def test_parallel_edges_are_distinct():
    G = MultiGraph([1, 2], [(1, 2), (1, 2), (2, 1)])
    assert G.num_edges == 3
    assert G.degree(1) == 3
    assert len(set(G.edge_ids)) == 3


def test_components_and_connectivity():
    G = MultiGraph([1, 2, 3, 4], [(1, 2), (3, 4)])
    comps = sorted(sorted(c) for c in G.components())
    assert comps == [[1, 2], [3, 4]]
    assert not G.is_connected()
    assert MultiGraph([1], []).is_connected()


def test_eulerian_check_counts_loops():
    # a loop adds two to its endpoint, so a lone loop is Eulerian
    assert MultiGraph([1], [(1, 1)]).is_eulerian()
    assert not MultiGraph([1, 2], [(1, 2)]).is_eulerian()


def test_bipartition_validation():
    G = MultiGraph([1, 2, 3], [(1, 2), (2, 3)])
    P = Bipartition(frozenset({1, 3}), frozenset({2}))
    assert G.is_bipartite_with(P)
    bad = Bipartition(frozenset({1, 2}), frozenset({3}))
    assert not G.is_bipartite_with(bad)
    assert P.swapped().X == P.Y


def test_bipartition_is_found_or_refused_at_an_odd_cycle():
    # each component's first vertex goes to X, so an isolated one does too
    P = MultiGraph([1, 2, 3, 4], [(1, 2), (2, 3)] * 2).bipartition()
    assert (P.X, P.Y) == ({1, 3, 4}, {2})
    assert MultiGraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)]).bipartition() is None
    assert MultiGraph([1, 2], [(1, 2), (2, 2)]).bipartition() is None


def test_factor_degrees_count_a_loop_twice():
    G = MultiGraph([1, 2, 3], [(1, 2), (2, 2), (2, 3), (1, 2)])
    F = Factor(G, frozenset({1, 2, 4}))
    assert F.degrees() == {1: 2, 2: 4, 3: 0}
    assert F.degrees() == {v: F.degree(v) for v in G.vertices}


def test_factor_algebra():
    G = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    ids = sorted(G.edge_ids)
    F = Factor(G, frozenset(ids[:2]))
    assert F.num_edges == 2
    assert F.degree(2) == 2
    comp = F.complement()
    assert comp.edge_ids == frozenset(ids[2:])
    assert comp.complement().edge_ids == F.edge_ids


def test_factor_names_its_smallest_unknown_edge_id():
    G = MultiGraph([1, 2, 3], [(7, 1, 2), (9, 2, 3)])
    assert Factor(G, [9, 7]).edge_ids == frozenset({7, 9})
    with pytest.raises(InputError, match="unknown edge id 8$"):
        Factor(G, [12, 7, 8, 30])


def test_edge_forms_are_checked():
    with pytest.raises(InputError, match="mix of"):
        MultiGraph([1, 2], [(1, 2), (5, 1, 2)])
    with pytest.raises(InputError, match="must be"):
        MultiGraph([1, 2], [(1, 2, 1, 2)])
    assert MultiGraph([1, 2], [("3", 1.0, "2")]).edges == ((3, 1, 2),)


def test_partition_stats_loop_convention():
    # loops count once in e(X), never in the boundary count
    G = MultiGraph([1, 2, 3], [(1, 1), (1, 2), (1, 3), (2, 3)])
    boundary, ex = partition_stats(G, {1, 2})
    assert ex == 2          # the loop once, plus edge (1, 2)
    assert boundary == 2    # (1, 3) and (2, 3) leave X


def test_induced_bipartite_factor_drops_intra_edges():
    G = MultiGraph([1, 2, 3], [(1, 2), (1, 3), (2, 3), (1, 1)])
    P = Bipartition(frozenset({1}), frozenset({2, 3}))
    F = induced_bipartite_factor(G, P)
    assert F.num_edges == 2
    assert all(
        {G.endpoints(e)[0] in P.X, G.endpoints(e)[1] in P.X} == {True, False}
        for e in F.edge_ids
    )


def test_text_round_trip():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 6)
        edges = []
        for _ in range(rng.randint(0, 8)):
            u = rng.randint(1, n)
            v = rng.randint(1, n)
            edges.append((u, v))
        G = MultiGraph(range(1, n + 1), edges)
        g = {v: rng.randint(0, 2) for v in G.vertices}
        f = {v: g[v] + rng.randint(0, 2) for v in G.vertices}
        parsed = parse_graph(serialize_graph(G, g, f))
        assert parsed.graph.num_vertices == n
        assert sorted((u, v) for _, u, v in parsed.graph.edges) == sorted(
            (u, v) for _, u, v in G.edges
        )
        assert parsed.g == g and parsed.f == f


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphParseError):
        parse_graph("e 1 2\n")
    with pytest.raises(GraphParseError) as exc:
        parse_graph("p multigraph 2 1\ne 1 3\n")
    assert exc.value.line_no == 2
    with pytest.raises(GraphParseError):
        parse_graph("p multigraph 2 2\ne 1 2\n")
    with pytest.raises(GraphParseError):
        parse_graph("p multigraph 2 1\ne 1 2\nq\n")


def test_vertex_checks():
    G = MultiGraph([1, 2], [(1, 2)])
    with pytest.raises(InputError):
        G.degree(9)
    with pytest.raises(InputError):
        MultiGraph([1], [(1, 2)])
    with pytest.raises(InputError):
        MultiGraph([1, 1], [])


def test_without_vertices_keeps_untouched_edges():
    G = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    H = G.without_vertices({2})
    assert sorted(H.vertices) == [1, 3]
    assert [(u, v) for _, u, v in H.edges] == [(1, 3)]
