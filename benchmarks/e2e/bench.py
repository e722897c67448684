#!/usr/bin/env python3
"""End-to-end benchmark of the repository's user-facing entry points.

One run of one workload::

    python3 benchmarks/e2e/bench.py --workload fig10_cold --seed 3 --seconds 20 --trace 0

prints every metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the workload
under the harness's span recorder (``.bench_e2e/spans-<workload>.json``) and
reports the per-layer budget instead.  Without ``--workload`` every workload
runs; ``--runs N`` repeats each with seeds ``S .. S+N-1``; ``--out`` stores
all runs for ``bench.py compare A.json B.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostenv  # noqa: E402
from hostenv import ROOT, SRC, WORK  # noqa: E402

#: A traced run spends this share of ``--seconds`` on the workload itself;
#: the layer probes that follow take about 35 s whatever ``--seconds`` is.
TRACED_SHARE = 0.25


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[int(fraction * (len(ordered) - 1))]


def run_once(spec: dict, name: str, seed: int, seconds: float, traced: bool, quick: bool) -> dict:
    """One run of one workload in a scratch directory of its own."""
    import layers
    import workloads
    from spans import SpanRecorder

    scratch = WORK / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    hostenv.scrub_own_environment(scratch / "cache-ambient")
    recorder = SpanRecorder(enabled=traced)
    budget = 0.0 if quick else seconds * (TRACED_SHARE if traced else 1.0)
    sizes = workloads.QUICK if quick else workloads.TRACED if traced else workloads.FULL
    ctx = workloads.Context(
        seed=seed, seconds=budget, sizes=sizes, recorder=recorder, scratch=scratch,
        spawner=hostenv.Spawner(scratch),
    )
    steal_before = hostenv.steal_ticks()
    try:
        outcome = workloads.WORKLOADS[name](ctx)
        if traced:
            values = layers.measure(
                ctx, layers.QUICK_PROBES if quick else layers.FULL_PROBES, outcome.ops)
            recorder.write(WORK / f"spans-{name}.json")
        else:
            values = {
                "setup_s": outcome.setup_s,
                "op_p50_ms": statistics.median(outcome.op_walls_s) * 1e3,
                "throughput_per_s": outcome.throughput_per_s,
                "peak_rss_mb": outcome.peak_rss_mb,
            }
        declared = spec["per_layer" if traced else "end_to_end"]
        if set(values) != {metric["name"] for metric in declared}:
            raise RuntimeError("metrics drifted from BENCHMARK.json: "
                               f"{sorted(set(values) ^ {m['name'] for m in declared})}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    finally:
        # The server child is stopped by its workload; this removes sockets,
        # cache directories and traces.
        ctx.spawner.close()
        shutil.rmtree(scratch, ignore_errors=True)
    steal_after = hostenv.steal_ticks()
    ops = outcome.ops
    return {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failed_ops_pct": 100.0 * ops.failed / ops.attempted,
        "sim_digest": outcome.sim_digest,
        "metrics": metrics,
        "info": {
            **outcome.info,
            "op_samples": len(outcome.op_walls_s),
            "op_walls_ms": [wall * 1e3 for wall in outcome.op_walls_s],
            "op_p75_ms": _percentile(outcome.op_walls_s, 0.75) * 1e3,
            "op_p50_raw_ms": statistics.median(outcome.raw_op_walls_s) * 1e3,
            "op_walls_raw_ms": [wall * 1e3 for wall in outcome.raw_op_walls_s],
            "calibration_units_ms": [unit * 1e3 for unit in ctx.clock.unit_samples],
            "host_speed": ctx.clock.host_speed(),
            "failures": ops.messages,
            "steal_ticks": None if steal_before is None or steal_after is None
            else steal_after - steal_before,
            "loadavg_end": list(os.getloadavg()),
        },
    }


def print_run(run: dict) -> None:
    info = run["info"]
    print(f"== {run['workload']}  seed={run['seed']}  "
          f"{'traced (per-layer)' if run['traced'] else 'untraced (end-to-end)'}")
    print(f"   operation: {info['operation']}; op_p50_ms over n={info['op_samples']} "
          f"(p75 {info['op_p75_ms']:.3f} ms); throughput counts {info['throughput_unit']}")
    print(f"   times are at nominal host speed; the host ran at {info['host_speed']:.2f} of it "
          f"(raw op p50 {info['op_p50_raw_ms']:.3f} ms)")
    for key, metric in run["metrics"].items():
        print(f"   {key:<46} {metric['value']:>16.6g} {metric['unit']}")
    print(f"   {'failed_ops_pct':<46} {run['failed_ops_pct']:>16.6g} % "
          f"({run['failed']} of {run['attempted']} operations)")
    for message in info["failures"]:
        print(f"   FAILED: {message}")
    print(f"   sim_digest {run['sim_digest']}")
    # The contract line: exactly these four keys, values with all their digits.
    print(json.dumps({key: run[key] for key in ("correct", "attempted", "failed", "metrics")}))


def command_run(args: argparse.Namespace, spec: dict) -> int:
    names = args.workload or [workload["name"] for workload in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out_path = Path(args.out).resolve() if args.out else None
    os.chdir(ROOT)  # children and the relative server socket path assume it
    # A killed run must still stop its server child: make SIGTERM unwind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = {
        "schema": 1,
        "quick": args.quick,
        "seconds": seconds,
        # A quick run measures nothing, and the smoke test runs two at once.
        "host": {**hostenv.host_facts(),
                 "pinned_cpu": None if args.quick else hostenv.pin_to_one_cpu()},
        "runs": [],
    }
    for name in names:
        for seed in range(args.seed, args.seed + args.runs):
            run = run_once(spec, name, seed, seconds, bool(args.trace), args.quick)
            result["runs"].append(run)
            print_run(run)
            sys.stdout.flush()
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(result, indent=1) + "\n")
    return 0


# --------------------------------------------------------------------------- #
def _spread(values: List[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median (needs >= 2 values)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(a: dict, b: dict, spec: dict) -> int:
    """Row per workload x end-to-end metric; non-zero on ``worse``, on an
    unequal ``sim_digest`` or exact count, or on a ``--quick`` input."""
    if a["quick"] or b["quick"]:
        print("compare: a --quick result measures nothing; refusing")
        return 1
    status = 0

    def by_key(result: dict, traced: bool) -> Dict[tuple, dict]:
        return {(run["workload"], run["seed"]): run
                for run in result["runs"] if run["traced"] == traced}

    for traced in (False, True):
        runs_a, runs_b = by_key(a, traced), by_key(b, traced)
        for key in sorted(set(runs_a) & set(runs_b)):
            if runs_a[key]["sim_digest"] != runs_b[key]["sim_digest"]:
                print(f"sim_digest differs on {key[0]} seed {key[1]}")
                status = 1
            if traced:
                for name, metric in runs_a[key]["metrics"].items():
                    # Exact counts, bar the one that scales with a timed phase.
                    if (metric["unit"] == "count" and name != "serve.cache_hits"
                            and metric["value"] != runs_b[key]["metrics"][name]["value"]):
                        print(f"count {name} differs on {key[0]} seed {key[1]}")
                        status = 1

    header = (f"{'workload':<14}{'metric':<18}{'A median':>14}{'B median':>14}"
              f"{'change':>9}{'spread':>9}{'bound':>7}  verdict")
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            values = [
                [run["metrics"][metric["name"]]["value"] for run in result["runs"]
                 if run["workload"] == workload and not run["traced"]]
                for result in (a, b)
            ]
            if not values[0] or not values[1]:
                continue
            median_a, median_b = (statistics.median(v) for v in values)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worsening = sign * (median_b - median_a) / median_a
            spreads = [s for s in map(_spread, values) if s is not None]
            spread = max(spreads) if len(spreads) == 2 else None
            if sign > 0:
                b_dominates = max(values[1]) < min(values[0])
            else:
                b_dominates = min(values[1]) > max(values[0])
            if worsening > metric["bound"]:
                verdict = "worse"
                status = 1
            elif (spread is None or spread > metric["bound"]) and not b_dominates:
                verdict = "unresolved"
            else:
                verdict = "same"
            shown = "n/a" if spread is None else f"{spread:.1%}"
            print(f"{workload:<14}{metric['name']:<18}{median_a:>14.6g}{median_b:>14.6g}"
                  f"{(median_b - median_a) / median_a:>+9.1%}{shown:>9}"
                  f"{metric['bound']:>7.0%}  {verdict}")
    return status


def command_compare(args: argparse.Namespace) -> int:
    a, b = (json.loads(Path(path).read_text()) for path in (args.a, args.b))
    return compare(a, b, load_spec())


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        return command_compare(parser.parse_args(argv[1:]))
    if not (SRC / "repro" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench.py: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the generated inputs (trace_replay's traces, "
                             "serve_mix's request seeds; fig10 exposes none)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: spans + per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes that only prove the plumbing; marked in the output")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds S..S+N-1")
    parser.add_argument("--out", default=None, help="write every run to this JSON file")
    return command_run(parser.parse_args(argv), spec)


if __name__ == "__main__":
    sys.exit(main())
