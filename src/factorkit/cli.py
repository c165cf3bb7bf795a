"""Command-line surface.

Exit codes: 0 = ran and passed, 1 = hard errors present (a guaranteed
construction failed or a campaign recorded violations), 2 = input error.
Refusals and honest unknowns are answers, not errors; they exit 0 with
an explanatory line.
"""
from __future__ import annotations

import argparse
import json
import sys

from .connectivity import (
    bipartite_index,
    bipartite_index_bounds,
    bipartite_index_upper,
    toughness,
)
from .decompositions import decompose_eulerian
from .errors import (
    GraphParseError,
    HypothesisError,
    InputError,
    TheoremViolationError,
    is_unknown,
)
from .generators import GenSpec, gen_functions, gen_tree_connected
from .graph import parse_graph, serialize_graph
from .orientations import eulerian_orientation, two_point_orientation
from .pipeline import TheoremParams, _gap_bound
from .harness import FACTOR_THEOREMS, THEOREM_IDS, THEOREMS, UNKNOWN_DETAIL
from .harness import _read_run, verify_theorem


def _load_graph(path: str, need_functions: bool = False):
    try:
        with open(path) as fh:
            parsed = parse_graph(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    if need_functions and (parsed.g is None or parsed.f is None):
        raise InputError(f"{path} has no 'f <v> <g> <f>' window lines")
    return parsed


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n,
        trees=args.trees,
        extra_edges=args.extra_edges,
        bipartite=args.bipartite,
        seed=args.seed,
    )
    G = gen_tree_connected(spec)
    g = f = None
    if args.k is not None:
        g, f = gen_functions(G, k=args.k, m=args.m, m0=args.m0, seed=args.seed)
    sys.stdout.write(serialize_graph(G, g, f))
    return 0


def _factor_result_payload(res, G, g, f, assume: bool) -> tuple[dict, int]:
    outcome, _, detail = _read_run(res, G, g, f, assume)
    if outcome != "success":
        return {"outcome": outcome, "detail": detail}, int(outcome == "hard-error")
    edges = sorted(res.factor.edge_ids)
    return {
        "outcome": "factor",
        "edges": edges,
        "degrees": {str(v): res.factor.degree(v) for v in G.vertices},
    }, 0


def _cmd_factor(args) -> int:
    parsed = _load_graph(args.graph, need_functions=True)
    G, g, f = parsed.graph, parsed.g, parsed.f
    params = TheoremParams(k=_gap_bound(G, g, f), m=args.m, m0=args.m0)
    _, run = THEOREMS[args.theorem]
    try:
        res = run(G, g, f, params, args.assume_hypotheses, args.seed)
    except TheoremViolationError as exc:
        _emit({"outcome": "hard-error", "detail": str(exc)}, args.format)
        return 1
    except AssertionError as exc:
        _emit({"outcome": "hard-error", "detail": "internal invariant failed: %s" % exc},
              args.format)
        return 1
    payload, code = _factor_result_payload(res, G, g, f, args.assume_hypotheses)
    _emit(payload, args.format)
    return code


def _cmd_orient(args) -> int:
    parsed = _load_graph(args.graph)
    G = parsed.graph
    if parsed.g is not None:
        res = two_point_orientation(G, parsed.g, parsed.f, seed=args.seed)
        if is_unknown(res):
            _emit({"outcome": "unknown", "detail": UNKNOWN_DETAIL}, args.format)
            return 0
        if res is None:
            _emit({"outcome": "none",
                   "detail": "no orientation with the requested out-degrees"},
                  args.format)
            return 0
    else:
        res = eulerian_orientation(G)
    payload = {
        "outcome": "orientation",
        "arcs": {str(eid): list(th) for eid, th in sorted(res.directions.items())},
        "outdegrees": {str(v): res.outdegrees()[v] for v in G.vertices},
    }
    _emit(payload, args.format)
    return 0


def _cmd_decompose(args) -> int:
    parsed = _load_graph(args.graph)
    G = parsed.graph
    P = G.bipartition()
    if P is None:
        _, P = bipartite_index_upper(G, seed=args.seed)
    g1, g2 = decompose_eulerian(G, P, args.m1, args.m2, seed=args.seed)
    _emit({
        "outcome": "decomposition",
        "bipartition_x": sorted(P.X),
        "bipartition_y": sorted(P.Y),
        "part1_edges": sorted(g1.edge_ids),
        "part2_edges": sorted(g2.edge_ids),
    }, args.format)
    return 0


def _cmd_verify(args) -> int:
    params = TheoremParams(k=args.k, m=args.m, m0=args.m0, b=args.b)
    report = verify_theorem(args.theorem, args.trials, params=params,
                            master_seed=args.seed)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.passed else 1


def _cmd_toughness(args) -> int:
    parsed = _load_graph(args.graph)
    result = toughness(parsed.graph)
    value = "infinite" if result.value is None else str(result.value)
    _emit({
        "outcome": "toughness",
        "value": value,
        "witness": sorted(result.witness) if result.witness else [],
    }, args.format)
    return 0


def _cmd_bi(args) -> int:
    parsed = _load_graph(args.graph)
    G = parsed.graph
    try:
        value, P = bipartite_index(G)
        payload = {
            "outcome": "bipartite-index",
            "value": value,
            "side_x": sorted(P.X),
            "side_y": sorted(P.Y),
        }
    except HypothesisError:
        low, high, P = bipartite_index_bounds(G, seed=args.seed)
        payload = {
            "outcome": "bipartite-index-bounds",
            "lower": low,
            "upper": high,
            "side_x": sorted(P.X),
            "side_y": sorted(P.Y),
        }
    _emit(payload, args.format)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="factorkit",
        description="degree-constrained factors and orientations in multigraphs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, graph: bool = True) -> None:
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
        p.add_argument("--format", choices=("json", "text"), default="text")
        if graph:
            p.add_argument("--graph", required=True, help="graph file (text format)")

    p = sub.add_parser("gen", help="generate a tree-connected host graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trees", type=int, required=True)
    p.add_argument("--extra-edges", type=int, default=0)
    p.add_argument("--bipartite", action="store_true")
    p.add_argument("--k", type=int, default=None,
                   help="also sample degree windows with this gap bound")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--m0", type=int, default=0)
    common(p, graph=False)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("factor", help="run a factor theorem pipeline")
    p.add_argument("--theorem", choices=FACTOR_THEOREMS, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--m0", type=int, default=0)
    p.add_argument("--assume-hypotheses", action="store_true",
                   help="skip hypothesis gates; a stage they no longer "
                   "guarantee then answers none")
    common(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("orient", help="orient a graph (Eulerian, or with f lines "
                       "two-point out-degrees d+(v) in {g(v), f(v)})")
    common(p)
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("decompose", help="Eulerian/bipartite decomposition")
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("--theorem", choices=THEOREM_IDS, required=True)
    p.add_argument("--trials", type=int, default=100)
    only = "tough-check only; every other theorem fixes its own"
    p.add_argument("--k", type=int, default=1, help=f"largest gap f - g ({only})")
    p.add_argument("--m", type=int, default=1, help=f"factor trees ({only})")
    p.add_argument("--m0", type=int, default=0, help=f"complement trees ({only})")
    p.add_argument("--b", type=int, default=1, help=f"b of toughness >= 4b^2 ({only})")
    common(p, graph=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("toughness", help="exact toughness of a small graph")
    common(p)
    p.set_defaults(func=_cmd_toughness)

    p = sub.add_parser("bi", help="bipartite index (exact or bounded)")
    common(p)
    p.set_defaults(func=_cmd_bi)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisError as exc:
        # a refusal is an answer: name the hypothesis and exit 0
        _emit({"outcome": "refusal", "hypothesis": exc.hypothesis, "detail": str(exc)},
              args.format)
        return 0
    except (InputError, GraphParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolationError as exc:
        print(f"hard error: {exc}", file=sys.stderr)
        return 1
