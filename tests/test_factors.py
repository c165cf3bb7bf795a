"""Factor finders and existence criteria against the exhaustive oracle.

Every clever route (matching reduction, criterion sweep) is compared to
enumerate_factors / factor_exists, which walk all edge subsets.  The
two-point cases also run the orientation finder, which shares the
selector search.
"""
from __future__ import annotations

import gc
import hashlib
import random

import pytest

from factorkit import factors
from factorkit.errors import InputError, SizeRefusal, is_unknown
from factorkit.factors import (
    _selector_subsets,
    check_lovasz_condition,
    check_tutte_strict_form,
    enumerate_factors,
    factor_exists,
    find_f_factor,
    find_interval_factor,
    find_two_point_factor,
    lovasz_deficiency,
    omega_gf,
)
from factorkit.graph import MultiGraph
from factorkit.orientations import two_point_orientation


def random_multigraph(rng, n_lo=2, n_hi=5, max_edges=8, min_edges=1):
    n = rng.randint(n_lo, n_hi)
    verts = list(range(1, n + 1))
    edges = []
    for _ in range(rng.randint(min_edges, max_edges)):
        if rng.random() < 0.08:
            v = rng.choice(verts)
            edges.append((v, v))
        else:
            edges.append(tuple(rng.sample(verts, 2)))
    return MultiGraph(verts, edges)


def test_f_factor_agrees_with_oracle():
    rng = random.Random(13)
    for _ in range(200):
        G = random_multigraph(rng)
        f = {v: rng.randint(0, G.degree(v)) for v in G.vertices}
        got = find_f_factor(G, f)
        expect = factor_exists(
            G, lambda degs: all(degs[v] == f[v] for v in G.vertices)
        )
        assert (got is not None) == expect, (G.edges, f)
        if got is not None:
            assert all(got.degree(v) == f[v] for v in G.vertices)


def test_f_factor_handles_loops():
    # a loop can absorb two units of degree at its vertex
    G = MultiGraph([1, 2], [(1, 1), (1, 2)])
    got = find_f_factor(G, {1: 2, 2: 0})
    assert got is not None and got.degree(1) == 2
    assert find_f_factor(G, {1: 3, 2: 1}) is not None
    assert find_f_factor(G, {1: 1, 2: 0}) is None


def test_interval_factor_agrees_with_oracle():
    rng = random.Random(17)
    for _ in range(200):
        G = random_multigraph(rng)
        g, f = {}, {}
        for v in G.vertices:
            a, b = rng.randint(0, G.degree(v)), rng.randint(0, G.degree(v))
            g[v], f[v] = min(a, b), max(a, b)
        got = find_interval_factor(G, g, f)
        expect = factor_exists(
            G, lambda degs: all(g[v] <= degs[v] <= f[v] for v in G.vertices)
        )
        assert (got is not None) == expect, (G.edges, g, f)
        if got is not None:
            assert all(g[v] <= got.degree(v) <= f[v] for v in G.vertices)


def test_interval_factor_agrees_with_criterion_past_the_oracle_cap():
    # 25 to 60 edges is past the 20-edge cap of factor_exists; the (A, B)
    # sweep of the Lovasz criterion decides instead
    rng = random.Random(31)
    answers = set()
    for _ in range(60):
        G = random_multigraph(rng, n_lo=8, n_hi=10, max_edges=60, min_edges=25)
        g, f = {}, {}
        for v in G.vertices:
            g[v] = rng.randint(0, G.degree(v))
            f[v] = min(G.degree(v), g[v] + rng.choice((0, 0, 0, 1)))
        got = find_interval_factor(G, g, f)
        holds, witness = check_lovasz_condition(G, g, f)
        assert (got is not None) == holds, (G.edges, g, f)
        if got is not None:
            assert all(g[v] <= got.degree(v) <= f[v] for v in G.vertices)
        else:
            assert lovasz_deficiency(G, *witness, g, f) < 0
        answers.add(holds)
    assert answers == {False, True}


def test_window_gadget_is_linear_in_the_window_width(monkeypatch):
    # a 40-leaf star with every edge doubled, plus one edge between two
    # leaves so that an odd cycle keeps the host on the matcher, and
    # windows [0, d]: the gadget has sum d (d - lo) slack edges, one per
    # host edge and four per unit of window width, plus the parity pad's
    sizes = []
    real = factors.perfect_matching

    def spy(n, edges):
        sizes.append(len(edges))
        return real(n, edges)

    monkeypatch.setattr(factors, "perfect_matching", spy)
    G = MultiGraph(range(1, 42), [(1, v) for v in range(2, 42)] * 2 + [(2, 3)])
    lo = {v: 0 for v in G.vertices}
    hi = G.degrees()
    got = find_interval_factor(G, lo, hi)
    assert got is not None
    bound = (
        sum(hi[v] * (hi[v] - lo[v]) for v in G.vertices)
        + G.num_edges
        + 4 * sum(hi[v] - lo[v] for v in G.vertices)
        + 4
    )
    assert len(sizes) == 1 and sizes[0] <= bound


def test_window_engine_is_picked_by_the_host(monkeypatch):
    # a bipartite host with no parity window is a feasible flow; a loop,
    # an odd cycle or a parity window sends the host to one matching
    calls = {"perfect_matching": 0, "feasible_flow": 0}
    for name in calls:
        real = getattr(factors, name)

        def spy(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(factors, name, spy)
    square = [(1, 2), (2, 3), (3, 4), (4, 1)] * 2
    C4 = MultiGraph(range(1, 5), square)
    looped = MultiGraph(range(1, 5), square + [(1, 1)])
    odd = MultiGraph(range(1, 5), square + [(1, 3)])
    two = {v: 2 for v in range(1, 5)}
    three = {v: 3 for v in range(1, 5)}
    cases = [
        (lambda: find_f_factor(C4, two), 0),
        (lambda: find_interval_factor(C4, {v: 1 for v in C4.vertices}, three), 0),
        (lambda: find_two_point_factor(C4, two, three), 0),
        (lambda: find_f_factor(looped, {1: 4, 2: 2, 3: 2, 4: 2}), 1),
        (lambda: find_f_factor(odd, {1: 3, 2: 2, 3: 3, 4: 2}), 1),
        (lambda: find_interval_factor(odd, two, three), 1),
        (lambda: find_two_point_factor(C4, {1: 1, 2: 2, 3: 2, 4: 1}, {1: 3, 2: 2, 3: 2, 4: 1}), 1),
    ]
    for call, matchings in cases:
        calls.update(perfect_matching=0, feasible_flow=0)
        assert call() is not None
        assert calls == {"perfect_matching": matchings, "feasible_flow": 1 - matchings}


def test_f_factor_on_a_path_whose_flow_is_forced_end_to_end():
    # the path x1 y1 ... xk yk with its vertices in the order
    # x2 ... xk x1 y1 ... yk and x(i+1) - y(i) before x(i) - y(i): the
    # flow's augmenting path runs through all 3,000 vertices
    k = 1500
    xs = list(range(2, k + 1)) + [1]
    ys = list(range(k + 1, 2 * k + 1))
    edges = []
    for i in range(1, k + 1):
        if i < k:
            edges.append((i + 1, k + i))
        edges.append((i, k + i))
    G = MultiGraph(xs + ys, edges)
    got = find_f_factor(G, {v: 1 for v in G.vertices})
    assert got is not None
    # x(i) - y(i) has id 2i, except the last edge, x(k) - y(k)
    assert sorted(got.edge_ids) == [2 * i for i in range(1, k)] + [2 * k - 1]


def test_two_point_factor_agrees_with_oracle():
    rng = random.Random(19)
    for _ in range(200):
        G = random_multigraph(rng)
        g, f = {}, {}
        for v in G.vertices:
            a, b = rng.randint(0, G.degree(v)), rng.randint(0, G.degree(v))
            g[v], f[v] = min(a, b), max(a, b)
        got = find_two_point_factor(G, g, f)
        assert not is_unknown(got)
        expect = factor_exists(
            G, lambda degs: all(degs[v] in (g[v], f[v]) for v in G.vertices)
        )
        assert (got is not None) == expect, (G.edges, g, f)
        if got is not None:
            assert all(got.degree(v) in (g[v], f[v]) for v in G.vertices)


def test_two_point_factor_respects_pin():
    G = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (1, 3), (1, 2)])
    g = {1: 1, 2: 1, 3: 0}
    f = {1: 2, 2: 2, 3: 2}
    got = find_two_point_factor(G, g, f, pin=(1, 2))
    assert got is not None and got.degree(1) == 2
    with pytest.raises(InputError):
        find_two_point_factor(G, g, f, pin=(1, 3))


def _degrees(got):
    return got.outdegrees() if hasattr(got, "outdegrees") else got.degrees()


@pytest.mark.parametrize("finder", [two_point_orientation, find_two_point_factor])
def test_two_point_finders_decide_gap_one_past_the_cap(finder):
    # a star with 23 leaves: 24 free vertices, all of gap 1; a selector
    # sample almost never hits the one admissible total
    G = MultiGraph(list(range(1, 25)), [(1, v) for v in range(2, 25)])
    lo = {v: 22 if v == 1 else 0 for v in G.vertices}
    hi = {v: lo[v] + 1 for v in G.vertices}
    got = finder(G, lo, hi)
    assert got is not None and not is_unknown(got)
    degs = _degrees(got)
    assert all(degs[v] in (lo[v], hi[v]) for v in G.vertices)


@pytest.mark.parametrize("n", range(21, 26))
def test_two_point_factor_decides_gap_two_past_the_cap(n):
    # every vertex of C_n allows {0, 2}, so only the empty factor and the
    # whole cycle qualify: past the selector cap a sample almost never
    # hits either, while the parity windows decide in one matching
    G = MultiGraph(range(1, n + 1), [(v, v % n + 1) for v in range(1, n + 1)])
    g = {v: 0 for v in G.vertices}
    f = {v: 2 for v in G.vertices}
    whole = find_two_point_factor(G, g, f, pin=(1, 2))
    assert not is_unknown(whole) and whole.edge_ids == frozenset(G.edge_ids)
    empty = find_two_point_factor(G, g, f, pin=(1, 0))
    assert not is_unknown(empty) and empty.edge_ids == frozenset()
    odd = find_two_point_factor(G, {**g, 1: 1}, {**f, 1: 1})
    assert not is_unknown(odd) and odd is None


def _orientation_exists(G, ok) -> bool:
    """Exhaustive oracle: whether some orientation of G has out-degrees
    that pass ok, over every out-degree vector that directing the edges
    one by one reaches."""
    verts = list(G.vertices)
    at = {v: i for i, v in enumerate(verts)}
    reach = {(0,) * len(verts)}
    for _, u, v in G.edges:
        reach = {
            vec[: at[tail]] + (vec[at[tail]] + 1,) + vec[at[tail] + 1 :]
            for vec in reach for tail in {u, v}
        }
    return any(ok(dict(zip(verts, vec))) for vec in reach)


@pytest.mark.parametrize(
    "finder, key, seed, digest",
    [
        (two_point_orientation, lambda D: sorted(D.directions.items()), 59, "095106f3ff7fcb0b"),
        (find_two_point_factor, lambda F: sorted(F.degrees().items()), 61, "543e25663d802eeb"),
    ],
)
def test_two_point_answers_without_gap_one_are_pinned(finder, key, seed, digest):
    # answers recorded when gaps of 2 became parity windows decided by one
    # matching, so only gaps of 3 are selectors; orientations since then
    # are two-point factors of the incidence graph.  A factor's degree
    # vector names the selector that produced it and the matcher's choice
    # at each parity window, while its edge ids depend on the matching
    # engine.  The orientations were re-recorded when bipartite hosts with
    # no parity window, the incidence graph among them, went to the
    # feasible flow, and both were re-recorded when the matcher's greedy
    # seed came to run from the highest gadget node down.  An exhaustive
    # oracle checks found-or-None on every host.
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(300):
        G = random_multigraph(rng, n_lo=3, n_hi=8, max_edges=14)
        lo, hi = {}, {}
        for v in G.vertices:
            lo[v] = rng.randint(max(0, G.degree(v) // 2 - 3), G.degree(v) // 2 + 1)
            hi[v] = lo[v] + rng.choice((0, 2, 2, 3))
        pin = None
        if rng.random() < 0.3:
            z = rng.choice(list(G.vertices))
            pin = (z, rng.choice((lo[z], hi[z])))
        got = finder(G, lo, hi, pin=pin)
        if is_unknown(got):
            h.update(b"unknown")
        else:
            h.update(b"none" if got is None else repr(key(got)).encode())

        def ok(degs):
            return all(degs[v] in (lo[v], hi[v]) for v in G.vertices) and (
                pin is None or degs[pin[0]] == pin[1])

        if finder is find_two_point_factor:
            expect = factor_exists(G, ok)
        else:
            expect = _orientation_exists(G, ok)
        assert (got is not None) == expect, (G.edges, lo, hi, pin)
    assert h.hexdigest()[:16] == digest


def test_lovasz_criterion_matches_existence():
    rng = random.Random(23)
    for _ in range(200):
        G = random_multigraph(rng)
        g, f = {}, {}
        for v in G.vertices:
            a, b = rng.randint(0, G.degree(v)), rng.randint(0, G.degree(v))
            g[v], f[v] = min(a, b), max(a, b)
        holds, witness = check_lovasz_condition(G, g, f)
        expect = factor_exists(
            G, lambda degs: all(g[v] <= degs[v] <= f[v] for v in G.vertices)
        )
        assert holds == expect, (G.edges, g, f)
        if not holds:
            A, B = witness
            assert lovasz_deficiency(G, A, B, g, f) < 0


def test_strict_form_agrees_on_connected_even_sum():
    rng = random.Random(29)
    checked = 0
    while checked < 150:
        G = random_multigraph(rng)
        if not G.is_connected():
            continue
        f = {v: rng.randint(0, G.degree(v)) for v in G.vertices}
        if sum(f.values()) % 2 == 1:
            continue
        checked += 1
        strict, _ = check_tutte_strict_form(G, f)
        expect = find_f_factor(G, f) is not None
        assert strict == expect, (G.edges, f)


def sweep_order(G):
    """Every disjoint (A, B) in the criterion sweep's order: S = A u B by
    increasing mask over G.vertices, then A over the sub-masks of S from S
    itself down to the empty set."""
    verts = list(G.vertices)
    for S in range(1 << len(verts)):
        sub = S
        while True:
            A = frozenset(v for i, v in enumerate(verts) if sub >> i & 1)
            B = frozenset(v for i, v in enumerate(verts) if (S ^ sub) >> i & 1)
            yield A, B
            if sub == 0:
                break
            sub = (sub - 1) & S


def first_violation(G, g, f, below, skip_empty=False):
    """First pair in sweep order whose deficiency is below `below`."""
    for A, B in sweep_order(G):
        if skip_empty and not A | B:
            continue
        if lovasz_deficiency(G, A, B, g, f) < below:
            return A, B
    return None


def sweep_host(rng, n, connected=False):
    """Multigraph on 1..n from a small pool of pairs, so parallel edges are
    common, plus up to two loops; a random tree first when connected."""
    verts = list(range(1, n + 1))
    edges = [(v, rng.randint(1, v - 1)) for v in verts[1:]] if connected else []
    if n > 1:
        pairs = [tuple(rng.sample(verts, 2)) for _ in range(n)]
        edges += [rng.choice(pairs) for _ in range(rng.randint(0, 2 * n))]
    edges += [(v, v) for v in rng.sample(verts, rng.randint(0, min(2, n)))]
    return MultiGraph(verts, edges)


def test_lovasz_witness_is_the_first_violation_in_sweep_order():
    rng = random.Random(41)
    witnesses = 0
    for _ in range(200):
        G = sweep_host(rng, rng.randint(1, 6))
        f = {v: rng.randint(0, G.degree(v)) for v in G.vertices}
        # g = f on about half the vertices, so tight components are common
        g = {v: f[v] if rng.random() < 0.5 else rng.randint(0, f[v]) for v in G.vertices}
        expect = first_violation(G, g, f, 0)
        assert check_lovasz_condition(G, g, f) == (expect is None, expect), (G.edges, g, f)
        witnesses += expect is not None
    assert 40 <= witnesses <= 160


def test_strict_form_witness_is_the_first_violation_in_sweep_order():
    rng = random.Random(43)
    checked = witnesses = 0
    while checked < 200:
        G = sweep_host(rng, rng.randint(1, 6), connected=True)
        f = {v: rng.randint(0, G.degree(v)) for v in G.vertices}
        if sum(f.values()) % 2 == 1:
            continue
        checked += 1
        expect = first_violation(G, f, f, -1, skip_empty=True)
        assert check_tutte_strict_form(G, f) == (expect is None, expect), (G.edges, f)
        witnesses += expect is not None
    assert 40 <= witnesses <= 160


def test_omega_counts_odd_components():
    # two g=f components, one with cross parity mismatch to B
    G = MultiGraph([1, 2, 3, 4], [(1, 2), (3, 4), (2, 3)])
    f = {1: 1, 2: 1, 3: 0, 4: 0}
    # remove nothing: components of G - (A u B) with A = B = {} are G itself
    assert omega_gf(G, [], [], f, f) in (0, 1)
    with pytest.raises(InputError):
        omega_gf(G, [1], [1], f, f)


def test_enumerate_factors_cap():
    G = MultiGraph([1, 2], [(1, 2)] * 21)
    with pytest.raises(SizeRefusal):
        enumerate_factors(G)


def test_enumerate_factors_counts_subsets():
    G = MultiGraph([1, 2], [(1, 2), (1, 2)])
    assert len(enumerate_factors(G)) == 4
    even = enumerate_factors(G, lambda degs: degs[1] % 2 == 0)
    assert len(even) == 2


def test_selector_subsets_leave_no_cyclic_garbage():
    gaps = [(v, 2 + v % 3) for v in range(1, 10)]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        subsets = list(_selector_subsets(gaps, 9))
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert subsets
    assert all(sum(2 + v % 3 for v in S) == 9 for S in subsets)
    assert garbage == []
