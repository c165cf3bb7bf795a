"""factorkit benchmark.

    python3 bench/run.py --workload {campaign,pipelines,queries} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; factorkit is imported from its `src/`.
One caller in one process runs a closed loop: each instance starts when
the previous one has returned.  Set-up imports factorkit, makes one warm
call per layer and builds the workload's inputs from the seed (see
workloads.py); it is timed here and twice more in fresh interpreters.
Then the loop runs every instance in order, round after round, until the
summed instance time reaches --seconds and at least three rounds have
run; a started round is always finished, so every instance counts
equally.  Each instance's time is its mean over the rounds, and the
timings (throughput, p50, tail) are taken over those times.  All timings,
set-up included, are scaled to a nominal machine speed by a fixed
reference computation timed after every instance (speed.py).

The first answer to each instance is checked independently (checks.py);
later rounds must reproduce its signature exactly.  An unexpected
exception, a harness hard-error row or a failed check is a failure.

--trace 0 reports the end-to-end metrics.  --trace 1 traces every round
(spans.py) and reports per-layer metrics per round, plus the traced
throughput; against `instances_per_s` of a --trace 0 run on the same seed
it gives the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Details and, for --trace 1, the
spans of the first round go to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# Set-ups per run: this process's own and the rest in fresh interpreters,
# each of them cold (import, warm calls, inputs); the median is reported.
SETUP_RUNS = 3
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "print(run.scaled_set_up(sys.argv[2], int(sys.argv[3]))[1])"
)
# Speed-reference samples just before and just after each set-up.
SETUP_REF_SAMPLES = 10
# Every run makes at least MIN_ROUNDS rounds.  An instance's time is its
# mean over the rounds, scaled by the speed reference (speed.py), which
# runs once after every instance and so sees the same spells of a faster
# or slower machine.
MIN_ROUNDS = 3
TAIL_LADDER = (99, 90, 75, 50)
TAIL_BEYOND = 10

# Layers whose calls and self time the traced run reports.
LAYERS = (
    "connectivity.spanning_tree_packing",
    "connectivity.edge_connectivity",
    "connectivity.bipartite_index",
    "connectivity.bipartite_index_bounds",
    "connectivity.toughness",
    "connectivity.TreePacking.verify",
    "decompositions.decompose_eulerian",
    "decompositions.decompose_keep_bi",
    "decompositions.split_tree_connected_complement",
    "decompositions.parity_forest",
    "orientations.two_point_orientation",
    "orientations.z_defective_orientation",
    "orientations.interval_orientation",
    "matching.maximum_matching",
    "factors.find_f_factor",
    "factors.find_interval_factor",
    "factors.check_lovasz_condition",
    "factors.factor_exists",
    "flow.feasible_flow",
    "pipeline.eulerian_half_factor",
    "pipeline.eulerian_half_factor_at",
    "pipeline.gf_factor_bipartite",
    "pipeline.gf_factor_almost_bipartite",
    "pipeline.gf_factor_bi_large",
    "pipeline.tree_connected_gf_bipartite",
    "pipeline.tree_connected_gf",
    "pipeline.balanced_selector",
    "pipeline.FactorCertificate.verify",
    "generators.gen_tree_connected",
    "graph.MultiGraph.init",
    "harness.verify_theorem",
)
# Counts summed from span arguments and return values: (metric, unit).
EXTRAS = (
    ("connectivity.spanning_tree_packing.trees_requested", "count"),
    ("connectivity.spanning_tree_packing.refusals", "count"),
    ("connectivity.spanning_tree_packing.refusal_self_s", "s"),
    ("orientations.two_point_orientation.unknowns", "count"),
    ("orientations.z_defective_orientation.unknowns", "count"),
    ("matching.maximum_matching.gadget_vertices", "count"),
    ("matching.maximum_matching.gadget_edges", "count"),
    ("flow.feasible_flow.arcs", "count"),
)


def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def _tail(sorted_values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) for the highest ladder percentile
    with at least TAIL_BEYOND samples beyond it; p50 when none has."""
    n = len(sorted_values)
    for p in TAIL_LADDER:
        beyond = n - math.ceil(p / 100 * n)
        if beyond >= TAIL_BEYOND:
            break
    return _percentile(sorted_values, p), p, beyond


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("campaign", "pipelines", "queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def set_up(workload: str, seed: int) -> tuple[list, float]:
    """Import factorkit from this checkout's src/, make one warm call per
    layer the workload reaches and build its inputs; return the inputs and
    the seconds this took."""
    start = perf_counter()
    src = ROOT / "src"
    if not (src / "factorkit" / "__init__.py").is_file():
        raise SystemExit(f"bench: no factorkit sources in {src}")
    sys.path.insert(0, str(src))
    factorkit = importlib.import_module("factorkit")
    if Path(factorkit.__file__).resolve().parent != (src / "factorkit").resolve():
        raise SystemExit(f"bench: factorkit was imported from {factorkit.__file__}")
    import workloads

    workloads.warm(workload)
    instances = workloads.BUILDERS[workload](seed)
    return instances, perf_counter() - start


def scaled_set_up(workload: str, seed: int) -> tuple[list, float]:
    """set_up, with its time scaled by the speed reference timed just
    before and just after it."""
    reference = speed.Reference()
    for _ in range(SETUP_REF_SAMPLES):
        reference.sample()
    instances, seconds = set_up(workload, seed)
    for _ in range(SETUP_REF_SAMPLES):
        reference.sample()
    return instances, seconds * reference.factor()


def _setup_s(workload: str, seed: int, own: float) -> float:
    """Median of this process's set-up and SETUP_RUNS - 1 more, each in a
    fresh interpreter started and awaited here."""
    probes = [
        float(subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(ROOT / "bench"), workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout)
        for _ in range(SETUP_RUNS - 1)
    ]
    return statistics.median([own, *probes])


def main(argv=None) -> int:
    args = _parse(argv)
    instances, own_setup = scaled_set_up(args.workload, args.seed)
    setup_s = _setup_s(args.workload, args.seed, own_setup)
    import checks
    import spans
    from factorkit import HypothesisError

    reference = speed.Reference()
    tracer = spans.Tracer()
    first_sig: dict[int, object] = {}
    outcome_of: dict[int, str] = {}
    inst_times: list[list[float]] = [[] for _ in instances]
    failures: list[str] = []
    attempted = failed = unknown = 0
    rounds = 0
    measured = 0.0
    if args.trace:
        tracer.keep_spans = True
        tracer.install()
    while measured < args.seconds or rounds < MIN_ROUNDS:
        for idx, inst in enumerate(instances):
            if args.trace:
                tracer.instance = rounds * len(instances) + idx
            unexpected = None
            start = perf_counter()
            try:
                result = inst.call()
            except HypothesisError as exc:
                result = exc
            except Exception as exc:  # any other exception is a failure, not an answer
                result, unexpected = exc, traceback.format_exc()
            dt = perf_counter() - start
            tracer.instance = None
            reference.sample()
            attempted += 1
            inst_times[idx].append(dt)
            measured += dt
            sig = ("exception", unexpected) if unexpected else checks.signature(result)
            try:
                if unexpected is not None:
                    raise checks.Mismatch(f"unexpected exception\n{unexpected}")
                if idx not in first_sig:
                    first_sig[idx] = sig
                    outcome_of[idx] = inst.check(result)
                elif sig != first_sig[idx]:
                    raise checks.Mismatch("answer differs from the checked first answer")
                elif outcome_of[idx] == "failure":
                    raise checks.Mismatch("repeats the first answer, which failed its check")
            except checks.Mismatch as exc:
                failed += 1
                failures.append(f"{inst.cell}: {exc}")
                first_sig.setdefault(idx, sig)  # later rounds compare with the failed answer
                outcome_of[idx] = "failure"
                continue
            unknown += outcome_of[idx] == "unknown"
        tracer.keep_spans = False
        rounds += 1
    tracer.uninstall()
    scale = reference.factor()

    mix: dict[str, dict[str, int]] = {}
    for idx, inst in enumerate(instances):
        cell = mix.setdefault(inst.cell, {})
        cell[outcome_of[idx]] = cell.get(outcome_of[idx], 0) + 1
    per_round = len(instances)
    inst_s = [statistics.fmean(ts) * scale for ts in inst_times]
    throughput = per_round / sum(inst_s)
    cell_s: dict[str, float] = {}
    for inst, t in zip(instances, inst_s):
        cell_s[inst.cell] = cell_s.get(inst.cell, 0.0) + t
    header = (
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"rounds {rounds}  instances/round {per_round}  measured {measured:.3f} s\n"
        f"  times below are means over the rounds, scaled by {scale:.4f}: the speed "
        f"reference took {reference.mean() * 1e3:.3f} ms, nominal {speed.NOMINAL_S * 1e3:.3f} ms"
    )
    print(header)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "instances_per_round": per_round,
        "outcome_mix": mix, "failures": failures,
        "scale": scale, "reference_mean_s": reference.mean(),
        "cell_s": cell_s, "wall_instances_per_s": attempted / measured,
        "instance_s": [[inst.cell, ts] for inst, ts in zip(instances, inst_times)],
    }

    if not args.trace:
        ordered = sorted(inst_s)
        tail, tail_p, beyond = _tail(ordered)
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "instances_per_s": _metric(throughput, "1/s"),
            "instance_s.p50": _metric(_percentile(ordered, 50), "s"),
            "instance_s.tail": _metric(tail, "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        shown = dict(metrics)
        shown["unknown_rate"] = _metric(unknown / attempted, "fraction")
        shown["failure_rate"] = _metric(failed / attempted, "fraction")
        for name in ("setup_s", "instances_per_s", "instance_s.p50", "instance_s.tail",
                     "unknown_rate", "failure_rate", "peak_rss_mb"):
            note = (f"  (p{tail_p} of {len(ordered)} instances, each its mean over {rounds} "
                    f"rounds; {beyond} beyond)") if name == "instance_s.tail" else ""
            print(f"  {name:18s} {shown[name]['value']:.6g} {shown[name]['unit']}{note}")
        detail.update({"metrics": shown, "tail_percentile": tail_p, "samples": len(ordered)})
    else:
        metrics = {}
        for name in LAYERS:
            metrics[f"{name}.calls"] = _metric(tracer.calls.get(name, 0) / rounds, "count")
            metrics[f"{name}.self_s"] = _metric(tracer.self_s.get(name, 0.0) * scale / rounds, "s")
        for name, unit in EXTRAS:
            value = tracer.extras.get(name, 0) / rounds
            metrics[name] = _metric(value * scale if unit == "s" else value, unit)
        packer = "connectivity.spanning_tree_packing"
        metrics[f"{packer}.calls_per_instance"] = _metric(
            tracer.calls.get(packer, 0) / (rounds * per_round), "count")
        searches = sum(tracer.calls.get(n, 0) for n in spans.TWO_POINT_SEARCHES)
        in_search = tracer.extras.get("orientations.interval_orientation.in_search", 0)
        metrics["orientations.interval_orientation.calls_per_search"] = _metric(
            in_search / searches if searches else 0.0, "count")
        metrics["trace.round_s"] = _metric(measured * scale / rounds, "s")
        metrics["trace.instances_per_s"] = _metric(throughput, "1/s")
        round_s = metrics["trace.round_s"]["value"]
        top = sorted(LAYERS, key=lambda n: -metrics[f"{n}.self_s"]["value"])
        print("  per round: layer, calls, self time, share of round time")
        for name in top:
            calls = metrics[f"{name}.calls"]["value"]
            if calls:
                self_s = metrics[f"{name}.self_s"]["value"]
                print(f"  {name:48s} {calls:10.1f} {self_s:9.4f} s {self_s / round_s:7.1%}")
        detail["metrics"] = metrics
        detail["spans"] = tracer.span_records()

    for line in failures[:5]:
        print(f"  FAILURE {line}")
    print(f"  {'per cell':36s}    time s  share  outcomes")
    for cell, counts in mix.items():
        share = cell_s[cell] / sum(inst_s)
        print(f"  {cell:36s} {cell_s[cell]:9.4f} {share:6.1%}  "
              + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
