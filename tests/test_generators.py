"""Instance generators: self-certification, determinism, windows."""
from __future__ import annotations

import pytest

from factorkit.connectivity import TreePacking, spanning_tree_packing
from factorkit.errors import HypothesisError, InputError
from factorkit.generators import (
    GenSpec,
    balanced_bipartition_of,
    gen_functions,
    gen_tree_connected,
)
from factorkit.graph import MultiGraph


def _tree_connected(G, m):
    return isinstance(spanning_tree_packing(G, m), TreePacking)


def test_gen_spec_validation():
    with pytest.raises(InputError):
        GenSpec(n=1, trees=1)
    with pytest.raises(InputError):
        GenSpec(n=3, trees=-1)


def test_generated_graph_certifies_tree_connectivity():
    for seed in range(20):
        spec = GenSpec(n=5, trees=3, extra_edges=seed % 4, seed=seed)
        G = gen_tree_connected(spec)
        assert _tree_connected(G, 3)
        assert G.num_edges == 3 * 4 + seed % 4


def test_generation_is_deterministic():
    a = gen_tree_connected(GenSpec(n=6, trees=4, extra_edges=3, seed=99))
    b = gen_tree_connected(GenSpec(n=6, trees=4, extra_edges=3, seed=99))
    assert a.edges == b.edges


def test_bipartite_flag_yields_bipartite_graph():
    for seed in range(15):
        G = gen_tree_connected(
            GenSpec(n=7, trees=3, extra_edges=2, bipartite=True, seed=seed)
        )
        P = balanced_bipartition_of(G)
        assert G.is_bipartite_with(P)
        assert _tree_connected(G, 3)


def test_zero_trees_zero_extras_is_edgeless():
    G = gen_tree_connected(GenSpec(n=4, trees=0, extra_edges=0, seed=0))
    assert G.num_edges == 0


def test_functions_satisfy_windows():
    for seed in range(200):
        G = gen_tree_connected(GenSpec(n=5, trees=4, extra_edges=seed % 3, seed=seed))
        g, f = gen_functions(G, k=2, m=1, m0=0, seed=seed)
        for v in G.vertices:
            d = G.degree(v)
            assert 0 <= g[v] <= f[v] <= d
            assert 2 * g[v] <= d                # g + m0 <= d/2
            assert d <= 2 * (f[v] - 1)          # d/2 <= f - m
            assert f[v] - g[v] <= 2


def test_functions_refusal_names_vertex():
    small = MultiGraph([1, 2], [(1, 2)])
    with pytest.raises(HypothesisError) as exc:
        gen_functions(small, k=1, m=3)
    assert "vertex 1" in str(exc.value)


def test_balanced_bipartition_rejects_odd_cycles():
    tri = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(InputError):
        balanced_bipartition_of(tri)
