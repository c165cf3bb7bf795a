"""Theorem pipelines: constructions, refusals, and certificates."""
from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from factorkit import connectivity, decompositions, factors, harness, pipeline
from factorkit.connectivity import TreePacking, edge_connectivity, spanning_tree_packing
from factorkit.errors import HypothesisError, InputError, is_unknown
from factorkit.factors import factor_exists
from factorkit.generators import GenSpec, balanced_bipartition_of, gen_functions, gen_tree_connected
from factorkit.graph import Bipartition, Factor, MultiGraph
from factorkit.pipeline import (
    FactorCertificate,
    NoFactorCertificate,
    TheoremParams,
    balanced_selector,
    eulerian_half_factor,
    gf_factor_almost_bipartite,
    gf_factor_bi_large,
    gf_factor_bipartite,
    parity_criterion,
    tough_hypothesis_check,
    tree_connected_gf,
    tree_connected_gf_bipartite,
)


def k23(mult, intra=()):
    edges = list(intra)
    for u in (1, 2):
        for v in (3, 4, 5):
            edges += [(u, v)] * mult
    return MultiGraph([1, 2, 3, 4, 5], edges)


P23 = Bipartition(frozenset({1, 2}), frozenset({3, 4, 5}))


def test_theorem_params_validation():
    assert TheoremParams(k=2, m=1, m0=0).k == 2
    with pytest.raises(InputError):
        TheoremParams(k=0)
    with pytest.raises(InputError):
        TheoremParams(k=1, m=-1)


def test_parity_criterion():
    G = MultiGraph([1, 2], [(1, 2), (1, 2)])
    assert parity_criterion(G, {1: 0, 2: 0}, {1: 1, 2: 0})  # odd gap
    assert parity_criterion(G, {1: 0, 2: 0}, {1: 2, 2: 0})  # sum f even
    assert not parity_criterion(G, {1: 1, 2: 0}, {1: 1, 2: 2})


def test_eulerian_half_factor_balanced():
    G = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)] * 2)
    cert = eulerian_half_factor(G, {1: 0, 2: 0, 3: 0})
    assert cert.verify()
    assert all(cert.factor.degree(v) == 2 for v in G.vertices)


def test_eulerian_half_factor_imbalance():
    G = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    cert = eulerian_half_factor(G, {1: 1, 2: 0, 3: 0})
    assert cert.verify()
    assert cert.factor.degree(1) == 2
    # |E| = 3 is odd, so t must be odd
    with pytest.raises(HypothesisError) as exc:
        eulerian_half_factor(G, {1: 0, 2: 0, 3: 0})
    assert "mod 2" in exc.value.hypothesis


def test_eulerian_half_factor_needs_connected_at_zero():
    two_triangles = MultiGraph(
        range(1, 7),
        [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)],
    )
    with pytest.raises(HypothesisError) as exc:
        eulerian_half_factor(two_triangles, {v: 0 for v in range(1, 7)})
    assert "connected" in exc.value.hypothesis


def test_eulerian_half_factor_gates_connectivity_at_one_without_a_min_cut(monkeypatch):
    # at t = 1 the (2t-1)-edge-connectivity gate asks lambda >= 1, which is
    # connectivity; only t >= 2 runs the min cut
    calls = []

    def spy(G):
        calls.append(G)
        return edge_connectivity(G)

    monkeypatch.setattr(pipeline, "edge_connectivity", spy)
    triangle = [(1, 2), (2, 3), (3, 1)]
    assert eulerian_half_factor(MultiGraph([1, 2, 3], triangle), {1: 1, 2: 0, 3: 0}).verify()
    # a triangle and a doubled edge: even, |E| = 5 odd, disconnected
    split = MultiGraph(range(1, 6), triangle + [(4, 5)] * 2)
    with pytest.raises(HypothesisError) as exc:
        eulerian_half_factor(split, {1: 1, 2: 0, 3: 0, 4: 0, 5: 0})
    assert exc.value.hypothesis == "(2t-1)-edge-connected"
    assert str(exc.value) == "(2t-1)-edge-connected: edge connectivity 0 < 1"
    assert calls == []
    assert eulerian_half_factor(
        MultiGraph([1, 2, 3], triangle * 4), {1: 1, 2: -1, 3: 0}
    ).verify()
    assert len(calls) == 1


def test_eulerian_half_factor_refuses_odd_degrees():
    G = MultiGraph([1, 2], [(1, 2)])
    with pytest.raises(HypothesisError) as exc:
        eulerian_half_factor(G, {1: 0, 2: 0})
    assert exc.value.hypothesis == "Eulerian"


def test_eulerian_half_factor_past_odd_degrees_under_assume():
    # no Euler circuit colours a host with odd degrees, so the targets
    # floor(d/2) + i that assume_hypotheses lets through go to the matcher
    G = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (3, 1), (1, 2)])
    cert = eulerian_half_factor(G, {1: 0, 2: 0, 3: 1}, assume_hypotheses=True)
    assert cert.verify()
    assert cert.factor.degrees() == {1: 1, 2: 1, 3: 2}


def test_eulerian_half_factor_may_be_disconnected(monkeypatch):
    # the lemma promises degrees on a spanning factor, not connectivity:
    # eulerian-half trial 15 at master seed 4 (t = 0, so the factor is
    # coloured along Euler circuits and no matcher choice moves it)
    # certifies a factor with two components
    answers = []

    def spy(G, i):
        cert = eulerian_half_factor(G, i)
        answers.append((G, cert))
        return cert

    monkeypatch.setattr(harness, "eulerian_half_factor", spy)
    report = harness.verify_theorem("eulerian-half", 16, master_seed=4)
    assert report.rows[15].outcome == "success"
    G, cert = answers[15]
    assert (G.num_vertices, G.num_edges) == (4, 16)
    assert cert.verify()
    assert not cert.factor.as_graph().is_connected()


def test_eulerian_half_factor_pinned_vertex():
    G = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)] * 4)
    cert = eulerian_half_factor(G, {1: 2, 2: 0, 3: 0})
    assert cert.verify()
    assert cert.factor.degree(1) == 6
    assert cert.factor.degree(2) == 4
    assert cert.factor.degree(3) == 4


def test_eulerian_half_factor_refuses_thin_graphs():
    G = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)] * 2)
    with pytest.raises(HypothesisError) as exc:
        eulerian_half_factor(G, {1: 4, 2: 0, 3: 0})
    assert exc.value.hypothesis == "(2t-1)-edge-connected"


def test_a_shift_at_one_vertex_past_its_tree_gates_is_certified():
    # the whole shift t at one vertex z: even degrees, t = |E| (mod 2),
    # 2|t| disjoint spanning trees and bi(G) >= |t| - 1 imply the gates of
    # eulerian_half_factor at i = {z: t}, so the entry certifies every such
    # (G, z, t), with d_F(z) = d(z)/2 + t and no oracle
    rng = random.Random(28)
    certified = set()
    for seed in range(40):
        base = gen_tree_connected(GenSpec(
            n=rng.randint(3, 9), trees=rng.randint(1, 3),
            extra_edges=rng.randint(0, 3), seed=seed))
        pairs = [(u, v) for _, u, v in base.edges]
        loops = [(v, v) for v in rng.choices(base.vertices, k=rng.randint(0, 3))]
        G = MultiGraph(list(base.vertices), pairs + pairs + loops)
        assert G.is_eulerian()
        z = rng.choice(G.vertices)
        for t in range(-3, 4):
            if t % 2 != G.num_edges % 2:
                continue
            if t == 0 and not G.is_connected():
                continue
            if t != 0 and isinstance(
                    spanning_tree_packing(G, 2 * abs(t)), connectivity.PackingRefusal):
                continue
            if connectivity.bipartite_index(G)[0] < abs(t) - 1:
                continue
            i = {v: 0 for v in G.vertices}
            i[z] = t
            cert = eulerian_half_factor(G, i)
            assert cert.verify()
            assert cert.factor.degree(z) == G.degree(z) // 2 + t
            certified.add(abs(t))
    assert certified == {0, 1, 2, 3}


def test_balanced_selector_balances():
    G = k23(4)
    d = G.degrees()
    g = {v: d[v] // 2 for v in G.vertices}
    f = {v: d[v] // 2 + 1 for v in G.vertices}
    h = balanced_selector(G, P23, g, f)
    assert h is not None
    assert all(h[v] in (g[v], f[v]) for v in G.vertices)
    assert sum(h[v] for v in P23.X) == sum(h[v] for v in P23.Y)


def test_balanced_selector_none_when_unbalanceable():
    G = k23(4)
    d = G.degrees()
    g = {v: d[v] // 2 for v in G.vertices}
    f = dict(g)
    g[1] -= 1
    f[1] += 1  # only vertex 1 can move, by 2; imbalance is odd
    assert balanced_selector(G, P23, g, f) is None


def _selector_walk(P, top, g, f):
    """Reference for pipeline._selector_within: every h in {g, f}^V by mask
    over X then Y in sorted order, the first with an even sum and
    0 <= h(X) - h(Y) <= top; None when there is none."""
    xs, ys = sorted(P.X), sorted(P.Y)
    verts = xs + ys
    for mask in range(1 << len(verts)):
        h = {v: (f[v] if mask >> j & 1 else g[v]) for j, v in enumerate(verts)}
        s = sum(h[v] for v in xs) - sum(h[v] for v in ys)
        if sum(h.values()) % 2 == 0 and 0 <= s <= top:
            return h
    return None


def test_selector_within_matches_the_mask_walk():
    rng = random.Random(27)
    found = missed = 0
    for _ in range(600):
        n = rng.randint(1, 8)
        verts = list(range(1, n + 1))
        G = MultiGraph(verts, [tuple(rng.sample(verts, 2)) for _ in range(n - 1) if n > 1])
        g = {v: rng.randint(0, 6) for v in verts}
        f = {v: g[v] + rng.choice((0, 0, 1, 2, 3, 5)) for v in verts}
        X = frozenset(v for v in verts if rng.random() < 0.5)
        P = Bipartition(X, frozenset(verts) - X)
        top = rng.randint(0, 7)
        h = pipeline._selector_within(G, P, g, f, top)
        assert (h is None) == (_selector_walk(P, top, g, f) is None)
        if h is None:
            missed += 1
            continue
        found += 1
        assert all(h[v] in (g[v], f[v]) for v in verts)
        s = sum(h[v] for v in P.X) - sum(h[v] for v in P.Y)
        assert sum(h.values()) % 2 == 0 and 0 <= s <= top
    assert found > 200 and missed > 100


def test_almost_bipartite_runner_selects_in_the_window_it_hands_over():
    # K_{2,3} plus the intra edge (3, 4): the witness ({1, 2}, {3, 4, 5})
    # admits s = h(X) - h(Y) = 0 only (e(X) = 0), its swap s in {0, -2}; an
    # h with s = 2 fits no orientation, so the entry's search refuses it
    run = harness.THEOREMS["almost-bipartite"][1]
    factors = 0
    for seed in range(60):
        G = k23(14 + seed % 3, intra=[(3, 4)])
        g, f = gen_functions(G, k=2, seed=seed)
        g[1], f[1] = G.degree(1) // 2 - 1, G.degree(1) // 2 + 1
        res = run(G, g, f, TheoremParams(k=2), False, seed)
        walks = [_selector_walk(Q, top, g, f) for Q, top in ((P23, 1), (P23.swapped(), 3))]
        if res is harness.NO_SELECTOR:
            assert walks == [None, None], seed
            continue
        assert isinstance(res, FactorCertificate) and res.verify(), seed
        assert all(res.factor.degree(v) in (g[v], f[v]) for v in G.vertices)
        factors += 1
    assert factors == 49


def test_gf_factor_bipartite_pins_z():
    # the entry pins d_F(z) = h(z) at z = min(X) = 1 for the selector h
    # that balanced_selector finds
    G = k23(4)
    d = G.degrees()
    g = {v: d[v] // 2 for v in G.vertices}
    f = {v: d[v] // 2 + 1 for v in G.vertices}
    h = balanced_selector(G, P23, g, f)
    cert = gf_factor_bipartite(G, P23, g, f, seed=2)
    assert isinstance(cert, FactorCertificate)
    assert cert.verify()
    assert cert.factor.degree(1) == h[1]
    assert all(cert.factor.degree(v) in (g[v], f[v]) for v in G.vertices)


def test_gf_factor_bipartite_gates():
    G = k23(4)
    d = G.degrees()
    bad_p = Bipartition(frozenset({1, 3}), frozenset({2, 4, 5}))
    g = {v: d[v] // 2 for v in G.vertices}
    f = {v: d[v] // 2 + 1 for v in G.vertices}
    with pytest.raises(HypothesisError):
        gf_factor_bipartite(G, bad_p, g, f)
    thin = k23(1)
    dt = thin.degrees()
    with pytest.raises(HypothesisError) as exc:
        gf_factor_bipartite(
            thin, P23,
            {v: dt[v] // 2 for v in thin.vertices},
            {v: (dt[v] + 1) // 2 for v in thin.vertices},
        )
    assert "tree-connected" in exc.value.hypothesis


def test_gf_factor_bipartite_window_gate():
    G = k23(4)
    d = G.degrees()
    g = {v: d[v] // 2 for v in G.vertices}
    f = dict(g)
    f[3] = g[3] - 1  # empty window
    with pytest.raises(InputError):
        gf_factor_bipartite(G, P23, g, f)


def test_gf_factor_almost_bipartite_with_intra_edge():
    G = k23(14, intra=[(1, 2)])
    g = {1: 20, 2: 20, 3: 12, 4: 13, 5: 13}
    f = {1: 22, 2: 22, 3: 14, 4: 15, 5: 15}
    h = {1: 20, 2: 20, 3: 12, 4: 13, 5: 15}
    cert = gf_factor_almost_bipartite(G, g, f, h, seed=7)
    assert isinstance(cert, FactorCertificate)
    assert cert.verify()
    assert all(cert.factor.degree(v) in (g[v], f[v]) for v in G.vertices)


def test_gf_factor_almost_bipartite_validates_h():
    G = k23(14, intra=[(1, 2)])
    g = {1: 20, 2: 20, 3: 12, 4: 13, 5: 13}
    f = {1: 22, 2: 22, 3: 14, 4: 15, 5: 15}
    with pytest.raises(InputError):
        gf_factor_almost_bipartite(G, g, f, {**g, 3: 99})


def test_gf_factor_bi_large_constructs():
    G = k23(3)
    d = G.degrees()
    g = {v: d[v] // 2 for v in G.vertices}
    f = {v: (d[v] + 1) // 2 for v in G.vertices}
    cert = gf_factor_bi_large(G, g, f, seed=11)
    assert isinstance(cert, FactorCertificate)
    assert cert.verify()
    assert all(cert.factor.degree(v) in (g[v], f[v]) for v in G.vertices)
    assert factor_exists(
        G, lambda degs: all(degs[v] in (g[v], f[v]) for v in G.vertices)
    )


def test_gf_factor_bi_large_decides_gap_one_past_the_selector_cap():
    # 24 vertices, every gap 0 or 1: the z-defective stage has more free
    # vertices than the selector cap, yet one interval call decides it
    G = gen_tree_connected(
        GenSpec(n=24, trees=3, extra_edges=6, bipartite=True, seed=2)
    )
    a, b = sorted(balanced_bipartition_of(G).X)[:2]
    G = G.with_added_edges([(a, b)])
    g, f = gen_functions(G, k=1, seed=2)
    assert all(f[v] - g[v] <= 1 for v in G.vertices)
    cert = gf_factor_bi_large(G, g, f, seed=2)
    assert isinstance(cert, FactorCertificate)
    assert cert.verify()
    assert all(cert.factor.degree(v) in (g[v], f[v]) for v in G.vertices)


def test_gf_factor_bipartite_decides_gap_two_past_the_selector_cap(monkeypatch):
    # 26 vertices of gap 2, past the selector cap of 20: the parity
    # windows decide in one matching, so the selector search gets no gap
    G = gen_tree_connected(
        GenSpec(n=32, trees=16, extra_edges=8, bipartite=True, seed=1000)
    )
    P = balanced_bipartition_of(G)
    g, f = gen_functions(G, k=2, seed=1000)
    assert sum(f[v] - g[v] == 2 for v in G.vertices) == 26
    seen = []
    search = factors._selector_search

    def spy(gaps, *args, **kwargs):
        seen.append(list(gaps))
        return search(gaps, *args, **kwargs)

    monkeypatch.setattr(factors, "_selector_search", spy)
    cert = gf_factor_bipartite(G, P, g, f, seed=1000)
    assert isinstance(cert, FactorCertificate) and cert.verify()
    assert seen == [[]]


def test_defective_factor_agrees_with_enumeration():
    # bi-large's defective stage on bipartite hosts: d_F in {g, f} off z,
    # and -x <= d_F(z) - d(z)/2 < k - x at z
    rng = random.Random(43)
    for _ in range(150):
        n = rng.randint(2, 6)
        nx = rng.randint(1, n - 1)
        G = MultiGraph(range(1, n + 1), [
            (rng.randint(1, nx), rng.randint(nx + 1, n)) for _ in range(rng.randint(1, 8))
        ])
        k = rng.randint(1, 2)
        g, f = {}, {}
        for v in G.vertices:
            d = G.degree(v)
            g[v] = d // 2 - rng.randint(0, k)
            f[v] = max(min(g[v] + rng.randint(0, k), (d + 1) // 2 + k), (d + 1) // 2)
        z = rng.choice(list(G.vertices))
        x = Fraction(rng.randint(0, 2 * k - 1), 2)
        got = pipeline._defective_factor(G, g, f, z, k, x, 0)
        assert not is_unknown(got)
        half = Fraction(G.degree(z), 2)
        expect = factor_exists(
            G,
            lambda degs: all(degs[v] in (g[v], f[v]) for v in G.vertices if v != z)
            and -x <= degs[z] - half < k - x,
        )
        assert (got is not None) == expect, (G.edges, g, f, z, k, x)
        if got is not None:
            assert all(got.degree(v) in (g[v], f[v]) for v in G.vertices if v != z)
            assert -x <= got.degree(z) - half < k - x


def test_defective_factor_window_below_zero():
    # isolated z: the only admissible degree is 0 and the window floor is
    # negative
    G = MultiGraph([1, 2, 3], [(2, 3), (2, 3)])
    got = pipeline._defective_factor(
        G, {1: -1, 2: 1, 3: 1}, {1: 0, 2: 1, 3: 1}, 1, 1, Fraction(1, 2), 0
    )
    assert got is not None
    assert got.degree(1) == 0 and got.degree(2) == 1


def test_gf_factor_bi_large_certifies_nonexistence():
    # all gaps even and sum f odd: no factor can exist
    G = k23(3, intra=[(1, 2)])
    d = G.degrees()
    assert all(dv % 2 == 0 for dv in d.values())
    g = {v: d[v] // 2 for v in G.vertices}
    res = gf_factor_bi_large(G, g, dict(g), seed=3)
    assert isinstance(res, NoFactorCertificate)
    assert res.verify(G, g, g)
    assert not factor_exists(
        G, lambda degs: all(degs[v] == g[v] for v in G.vertices), cap=23
    )


def _gap_two_at_3(G, seed):
    g, f = gen_functions(G, k=2, seed=seed)
    g[3], f[3] = G.degree(3) // 2 - 1, G.degree(3) // 2 + 1
    return g, f


def test_gf_factor_bi_large_constructs_at_k2():
    # 12 cross trees at k = 2, of which the Eulerian split uses 9; the one
    # intra edge meets e(X) + e(Y) >= k - 1
    G = k23(10, intra=[(1, 2)])
    for seed in range(4):
        g, f = _gap_two_at_3(G, seed)
        res = gf_factor_bi_large(G, g, f, seed=seed)
        if seed == 0:
            # every gap is even and sum f is odd
            assert isinstance(res, NoFactorCertificate) and res.verify(G, g, f)
            continue
        assert isinstance(res, FactorCertificate) and res.verify()
        assert all(res.factor.degree(v) in (g[v], f[v]) for v in G.vertices)
    # 10 cross trees: no candidate passes the structure search, which
    # refuses, and under assume_hypotheses is a failed stage, so None
    G = k23(7, intra=[(1, 2)])
    g, f = _gap_two_at_3(G, 1)
    with pytest.raises(HypothesisError, match="bi-large structure"):
        gf_factor_bi_large(G, g, f, seed=1)
    assert gf_factor_bi_large(G, g, f, assume_hypotheses=True, seed=1) is None


def test_tree_connected_gf_bipartite_carries_packings():
    G = k23(8)
    d = G.degrees()
    g = {v: d[v] // 2 for v in G.vertices}
    f = {v: d[v] // 2 + 1 for v in G.vertices}
    params = TheoremParams(k=1, m=1, m0=0)
    cert = tree_connected_gf_bipartite(G, P23, g, f, params=params, seed=5)
    assert isinstance(cert, FactorCertificate)
    assert cert.verify()
    assert set(cert.packings) == {"factor", "complement"}
    assert len(cert.packings["factor"].trees) == 1
    assert cert.packings["factor"].verify()


def _k5_times_4():
    edges = []
    for u, v in itertools.combinations(range(1, 6), 2):
        edges += [(u, v)] * 4
    return MultiGraph(list(range(1, 6)), edges)


def _almost_k2_windows():
    """(g, f, h) of the almost-bipartite k = 2 host k23(14, intra=[(1, 2)])."""
    g = {1: 20, 2: 20, 3: 12, 4: 13, 5: 13}
    f = {1: 22, 2: 22, 3: 14, 4: 15, 5: 15}
    h = {1: 20, 2: 20, 3: 12, 4: 13, 5: 15}
    return g, f, h


def _spy_packer(monkeypatch) -> list[frozenset[int]]:
    """The edge ids of every host the tree packer runs on, in call order."""
    hosts = []

    def packer(G, m, seed=None):
        hosts.append(frozenset(G.edge_ids))
        return spanning_tree_packing(G, m, seed=seed)

    for module in (pipeline, decompositions, connectivity):
        monkeypatch.setattr(module, "spanning_tree_packing", packer)
    return hosts


def test_tree_connected_pipelines_carry_their_trees(monkeypatch):
    # postconditions check the trees the construction holds: the packer
    # runs on G once, at the gate, whose trees tree_connected_gf hands to
    # its keep-bi split.  It never runs on G2, on the factor or on its
    # complement.  G2[X, Y] (G2 itself when G is bipartite) is packed only
    # by keep-bi's structure search, whose trees the bi-large stage of
    # tree_connected_gf takes, and that stage's Eulerian part is never packed
    hosts = _spy_packer(monkeypatch)
    params = TheoremParams(k=1, m=1, m0=0)
    for G, run, cross_packings in (
        (k23(8), lambda G, g, f: tree_connected_gf_bipartite(
            G, P23, g, f, params=params, seed=5), 0),
        (_k5_times_4(), lambda G, g, f: tree_connected_gf(
            G, g, f, params=params, seed=3), 1),
    ):
        hosts.clear()
        d = G.degrees()
        g = {v: d[v] // 2 for v in G.vertices}
        f = {v: d[v] // 2 + 1 for v in G.vertices}
        cert = run(G, g, f)
        assert isinstance(cert, FactorCertificate) and cert.verify()
        edges = frozenset(G.edge_ids)
        g1, *inner = (frozenset(val) for key, val in cert.derivation if key == "eulerian-part")
        g2 = edges - g1
        X = set(dict(cert.derivation)["bipartition"][0])
        cross2 = frozenset(eid for eid, u, v in G.edges if eid in g2 and (u in X) != (v in X))
        assert hosts.count(edges) == 1
        assert hosts.count(cross2) == cross_packings
        for part in (g2, cert.factor.edge_ids, edges - cert.factor.edge_ids, *inner):
            assert part not in hosts


def test_tree_connected_entries_at_m_zero_certify_as_at_m_one():
    # m = m0 = 0 runs the same construction: an empty Eulerian part G1, an
    # empty balancer, and packings of 0 trees for the factor and its
    # complement
    params = TheoremParams(k=1)
    for G, run in (
        (k23(8), lambda G, g, f: tree_connected_gf_bipartite(
            G, P23, g, f, params=params, seed=5)),
        (_k5_times_4(), lambda G, g, f: tree_connected_gf(
            G, g, f, params=params, seed=3)),
    ):
        d = G.degrees()
        cert = run(G, {v: d[v] // 2 for v in G.vertices}, {v: d[v] // 2 + 1 for v in G.vertices})
        assert isinstance(cert, FactorCertificate) and cert.verify()
        assert {name: p.m for name, p in cert.packings.items()} == {"factor": 0, "complement": 0}
        assert cert.tree_counts == {"factor": 0, "complement": 0}
        assert cert.derivation[:2] == (("eulerian-part", ()), ("balancer", ()))


def test_keep_bi_that_finds_no_bipartition_is_unknown_at_once(monkeypatch):
    # keep-bi is one construction on the gate's trees: when its structure
    # search on G2 finds nothing, tree_connected_gf answers UNKNOWN after
    # that one search, and G is packed only at the gate
    hosts = _spy_packer(monkeypatch)
    searches = []

    def find_nothing(*args, **kwargs):
        searches.append(args)
        return None

    monkeypatch.setattr(decompositions, "_find_structure", find_nothing)
    G = _k5_times_4()
    d = G.degrees()
    g = {v: d[v] // 2 for v in G.vertices}
    f = {v: d[v] // 2 + 1 for v in G.vertices}
    for assume in (False, True):
        hosts.clear()
        searches.clear()
        res = tree_connected_gf(
            G, g, f, params=TheoremParams(k=1, m=1), assume_hypotheses=assume, seed=3)
        assert is_unknown(res)
        assert len(searches) == 1
        assert hosts.count(frozenset(G.edge_ids)) == 1


def test_eulerian_stages_take_the_split_they_are_cut_from(monkeypatch):
    # the split proves every gate of eulerian_half_factor at i = {z: t} on
    # its G2, so the Eulerian stages neither enter that entry nor pack G2
    hosts = _spy_packer(monkeypatch)
    entered = []
    half = pipeline.eulerian_half_factor

    def spy(*args, **kwargs):
        entered.append(args)
        return half(*args, **kwargs)

    monkeypatch.setattr(pipeline, "eulerian_half_factor", spy)
    runs = [(k23(14, intra=[(1, 2)]), lambda G: gf_factor_almost_bipartite(
        G, *_almost_k2_windows(), seed=7))]
    runs += [(k23(10, intra=[(1, 2)]), lambda G, s=s: gf_factor_bi_large(
        G, *_gap_two_at_3(G, s), seed=s)) for s in (1, 2, 3)]
    for G, run in runs:
        hosts.clear()
        cert = run(G)
        assert isinstance(cert, FactorCertificate) and cert.verify()
        g2 = frozenset(dict(cert.derivation)["eulerian-part"])
        assert g2 and g2 not in hosts
    assert not entered


def test_structure_gate_trees_build_the_eulerian_split(monkeypatch):
    # the cross factor G[X, Y] is packed once, by the structure search of
    # the gate, and the Eulerian split cuts G from those trees
    hosts = _spy_packer(monkeypatch)
    d = k23(3).degrees()
    for G, run in (
        # bi-large at k = 1, structure searched
        (k23(3), lambda G: gf_factor_bi_large(
            G, {v: d[v] // 2 for v in d}, {v: (d[v] + 1) // 2 for v in d}, seed=11)),
        # bi-large at k = 2, structure searched
        (k23(10, intra=[(1, 2)]), lambda G: gf_factor_bi_large(
            G, *_gap_two_at_3(G, 1), seed=1)),
        # almost-bipartite at k = 2, structure searched
        (k23(14, intra=[(1, 2)]), lambda G: gf_factor_almost_bipartite(
            G, *_almost_k2_windows(), seed=7)),
    ):
        hosts.clear()
        cert = run(G)
        assert isinstance(cert, FactorCertificate) and cert.verify()
        X = set(next(val for key, val in cert.derivation if key == "bipartition")[0])
        cross = frozenset(eid for eid, u, v in G.edges if (u in X) != (v in X))
        assert dict(cert.derivation)["eulerian-part"]
        assert hosts.count(cross) == 1


def test_tree_connected_pipelines_trust_the_proved_g1_connectivity(monkeypatch):
    # G1's 2(m+m0)-edge-connectivity is proved once: by the bipartite
    # pipeline's own postcondition, and in tree_connected_gf by the trees
    # its keep-bi split carries; the split does not run Stoer-Wagner again
    # (decompositions does not import it)
    hosts = []

    def spy(G):
        hosts.append(frozenset(G.edge_ids))
        return edge_connectivity(G)

    monkeypatch.setattr(pipeline, "edge_connectivity", spy)
    params = TheoremParams(k=1, m=1, m0=0)
    for G, run, g1_calls in (
        (k23(8), lambda G, g, f: tree_connected_gf_bipartite(
            G, P23, g, f, params=params, seed=5), 1),
        (_k5_times_4(), lambda G, g, f: tree_connected_gf(
            G, g, f, params=params, seed=3), 0),
    ):
        hosts.clear()
        d = G.degrees()
        g = {v: d[v] // 2 for v in G.vertices}
        f = {v: d[v] // 2 + 1 for v in G.vertices}
        cert = run(G, g, f)
        assert isinstance(cert, FactorCertificate) and cert.verify()
        g1 = frozenset(dict(cert.derivation)["eulerian-part"])
        assert hosts.count(g1) == g1_calls


def test_tree_connected_gf_on_nonbipartite_host():
    G = _k5_times_4()
    d = G.degrees()
    g = {v: d[v] // 2 for v in G.vertices}
    f = {v: d[v] // 2 + 1 for v in G.vertices}
    params = TheoremParams(k=1, m=1, m0=0)
    cert = tree_connected_gf(G, g, f, params=params, seed=3)
    assert isinstance(cert, FactorCertificate)
    assert cert.verify()
    assert all(cert.factor.degree(v) in (g[v], f[v]) for v in G.vertices)


def test_tree_connected_gf_refuses_thin_hosts():
    G = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(HypothesisError):
        tree_connected_gf(
            G, {v: 1 for v in G.vertices}, {v: 2 for v in G.vertices},
            params=TheoremParams(k=1, m=1, m0=0),
        )


def test_assume_hypotheses_suppresses_gates():
    # gates off: thin host, the engine answers from the search instead
    thin = k23(1)
    dt = thin.degrees()
    g = {v: dt[v] // 2 for v in thin.vertices}
    f = {v: (dt[v] + 1) // 2 for v in thin.vertices}
    res = gf_factor_bipartite(thin, P23, g, f, assume_hypotheses=True, seed=1)
    if res is not None and not is_unknown(res):
        assert res.verify()


def test_certificate_tampering_detected():
    G = k23(4)
    d = G.degrees()
    g = {v: d[v] // 2 for v in G.vertices}
    f = {v: d[v] // 2 + 1 for v in G.vertices}
    cert = gf_factor_bipartite(G, P23, g, f, seed=2)
    assert cert.verify()
    ids = sorted(cert.factor.edge_ids)
    tampered = FactorCertificate(
        factor=Factor(G, cert.factor.edge_ids - {ids[0]}),
        degree_report=cert.degree_report,
        packings=cert.packings,
        derivation=cert.derivation,
    )
    assert not tampered.verify()
    # packings that verify on their own but span other parts of the host
    G8 = k23(8)
    d8 = G8.degrees()
    g8 = {v: d8[v] // 2 for v in G8.vertices}
    f8 = {v: d8[v] // 2 + 1 for v in G8.vertices}
    cert = tree_connected_gf_bipartite(
        G8, P23, g8, f8, params=TheoremParams(k=1, m=1, m0=0), seed=5
    )
    assert cert.verify()
    swapped = {"factor": cert.packings["complement"], "complement": cert.packings["factor"]}
    edge = MultiGraph([1, 2], [(1, 2)])
    foreign = spanning_tree_packing(edge, 1)
    assert foreign.verify()
    for packings in (swapped, {"factor": foreign, "complement": foreign}):
        tampered = FactorCertificate(
            factor=cert.factor,
            degree_report=cert.degree_report,
            packings=packings,
            derivation=cert.derivation,
        )
        assert not tampered.verify()
    # packings of the right parts with fewer trees than the theorem promises
    h_graph = cert.factor.as_graph()
    c_graph = cert.factor.complement().as_graph()
    for packings in (
        {"factor": TreePacking(h_graph, ()), "complement": TreePacking(c_graph, ())},
        {"complement": cert.packings["complement"]},
    ):
        assert not dataclasses.replace(cert, packings=packings).verify()


def test_no_factor_certificate_rejects_wrong_claims():
    G = k23(3)
    d = G.degrees()
    g = {v: d[v] // 2 for v in G.vertices}
    f = {v: (d[v] + 1) // 2 for v in G.vertices}
    bogus = NoFactorCertificate(
        reason="all gaps f-g are even and sum f is odd",
        f_total=sum(f.values()),
    )
    assert not bogus.verify(G, g, f)  # gaps are not all even here
    # all gaps even and sum f = 1 is odd: only the true total is accepted
    H = MultiGraph([1, 2], [(1, 2)])
    one = {1: 1, 2: 0}
    reason = "all gaps f-g are even and sum f is odd"
    assert NoFactorCertificate(reason, f_total=1).verify(H, one, one)
    assert not NoFactorCertificate(reason, f_total=7).verify(H, one, one)


def test_tough_hypothesis_check_reports_rows():
    G = k23(4)
    d = G.degrees()
    g = {v: d[v] // 2 for v in G.vertices}
    f = {v: d[v] // 2 + 1 for v in G.vertices}
    report = tough_hypothesis_check(G, g, f, TheoremParams(k=1, m=0, m0=0, b=1))
    names = [name for name, _, _ in report.rows]
    assert any("tough" in n for n in names)
    assert any("parity" in n for n in names)
    assert all(isinstance(ok, bool) and detail for _, ok, detail in report.rows)


def test_pipeline_is_deterministic():
    G = k23(3)
    d = G.degrees()
    g = {v: d[v] // 2 for v in G.vertices}
    f = {v: (d[v] + 1) // 2 for v in G.vertices}
    a = gf_factor_bi_large(G, g, f, seed=11)
    b = gf_factor_bi_large(G, g, f, seed=11)
    assert a.factor.edge_ids == b.factor.edge_ids
