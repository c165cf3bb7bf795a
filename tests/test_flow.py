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
