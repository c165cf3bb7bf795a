"""Dinic max-flow: values and the lifetime of a residual network."""
from __future__ import annotations

import gc
import weakref

from factorkit.flow import Dinic, feasible_flow


def test_max_flow_value_on_a_layered_network():
    net = Dinic(4)
    for u, v, cap in ((0, 1, 3), (0, 2, 2), (1, 2, 1), (1, 3, 2), (2, 3, 3)):
        net.add_edge(u, v, cap)
    assert net.max_flow(0, 3) == 5


def test_network_is_freed_without_the_cyclic_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        net = Dinic(3)
        net.add_edge(0, 1, 2)
        net.add_edge(1, 2, 2)
        assert net.max_flow(0, 2) == 2
        ref = weakref.ref(net)
        del net
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_feasible_flow_respects_lower_bounds():
    flows = feasible_flow(3, [(0, 1, 1, 2), (1, 2, 1, 1)], 0, 2)
    assert flows == [1, 1]
    assert feasible_flow(3, [(0, 1, 2, 2), (1, 2, 0, 1)], 0, 2) is None



def _forced_path(k):
    """The path x1 y1 x2 y2 ... xk yk as a window network: s -> x and
    y -> t with bounds [1, 1], and x -> y with capacity 1 per edge.  The
    vertices come in the order x2 ... xk x1 y1 ... yk, and x(i+1) - y(i)
    is listed before x(i) - y(i), so the first phase gives each x(i+1)
    the y(i) before it and x1 is left with one way out: the alternating
    path through all 2k vertices.  Also returns the arc positions of the
    path's one perfect matching, the edges x(i) - y(i)."""
    x = {i: (i - 2) % k for i in range(1, k + 1)}
    y = {i: k + i - 1 for i in range(1, k + 1)}
    s, t = 2 * k, 2 * k + 1
    arcs = [(s, x[i], 1, 1) for i in range(1, k + 1)]
    arcs += [(y[i], t, 1, 1) for i in range(1, k + 1)]
    matching = []
    for i in range(1, k + 1):
        if i < k:
            arcs.append((x[i + 1], y[i], 0, 1))
        matching.append(len(arcs))
        arcs.append((x[i], y[i], 0, 1))
    return 2 * k + 2, arcs, s, t, matching


def test_feasible_flow_follows_a_path_through_the_whole_network():
    # the augmenting path is longer than the interpreter's recursion limit
    n, arcs, s, t, matching = _forced_path(1500)
    flows = feasible_flow(n, arcs, s, t)
    assert flows is not None
    assert [j for j in range(3000, len(arcs)) if flows[j]] == matching
