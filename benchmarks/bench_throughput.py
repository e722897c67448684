"""Throughput harness: trace decode, engine, and sweep-cache benchmarks.

Emits ``BENCH_engine.json`` so the performance trajectory of the hot paths
is tracked from PR to PR.  Sections:

* **generate** — records/second for generating one application of each
  workload family straight into lanes (CPU-time based), the layer in front
  of trace decode on every cold figure point and uncached serve request;
* **decode** — records/second for fully materializing every record of the
  same trace through the text reader and the binary reader (plain and gzip),
  plus the binary/text speedup;
* **engine** — end-to-end simulated records/second for the no-prefetch
  baseline and SMS configurations, fed from a binary stream;
* **lanes_vs_reference** — SMS records/second through the per-record
  reference path and the lane fast path on the same binary trace, plus the
  lane speedup (CPU-time based, so shared-runner load does not distort it);
* **obs_overhead** — CPU-time cost of the ``repro.obs`` instrumentation on
  the lane-path engine, instrumented vs the ``REPRO_OBS=0`` null registry
  (budget: 2%);
* **trace_overhead** — CPU-time cost of the structured-tracing hooks
  (``repro.obs.trace``) on the lane-path engine, ``REPRO_TRACE=on`` vs the
  default ``off`` (budget: 1%); and
* **sweep_cache** — wall-clock for the same figure sweep with a cold and a
  warm result cache, plus the warm/cold speedup.

Run it from the repository root::

    PYTHONPATH=src python benchmarks/bench_throughput.py            # full (1M records)
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick    # CI smoke

The harness needs only the standard library and ``repro`` itself; all trace
and cache artifacts live in a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import SMSConfig, SpatialMemoryStreaming  # noqa: E402
from repro.simulation.config import SimulationConfig  # noqa: E402
from repro.simulation.engine import SimulationEngine  # noqa: E402
from repro.simulation.result_cache import SweepResultCache, set_default_cache  # noqa: E402
from repro.trace.binary import LaneTrace  # noqa: E402
from repro.trace.reader import stream_trace, write_trace  # noqa: E402
from repro.workloads import make_workload  # noqa: E402

NUM_CPUS = 4


def _generate_trace(records: int, directory: Path) -> dict:
    """Write one workload trace in every benchmarked format."""
    workload = make_workload(
        "oltp-db2", num_cpus=NUM_CPUS, accesses_per_cpu=max(1, records // NUM_CPUS), seed=17
    )
    paths = {
        "text": directory / "bench.trace",
        "text_gz": directory / "bench.trace.gz",
        "binary": directory / "bench.strc",
        "binary_gz": directory / "bench.strc.gz",
    }
    start = time.perf_counter()
    count = write_trace(paths["text"], workload)
    generate_seconds = time.perf_counter() - start
    for key in ("text_gz", "binary", "binary_gz"):
        write_trace(paths[key], stream_trace(paths["text"]))
    return {
        "paths": paths,
        "records": count,
        "generate_and_write_text_seconds": round(generate_seconds, 3),
        "sizes_bytes": {key: path.stat().st_size for key, path in paths.items()},
    }


#: One application per workload family (the class-level studies' representatives).
GENERATED_APPLICATIONS = ("oltp-db2", "dss-qry2", "web-apache", "ocean")


def bench_generate(records: int) -> dict:
    """Generate each family's representative into lanes; best of three, CPU time."""
    per_cpu = max(1, records // NUM_CPUS)
    result = {"records": per_cpu * NUM_CPUS}
    for name in GENERATED_APPLICATIONS:
        best = float("inf")
        for seed in (17, 18, 19):
            workload = make_workload(name, num_cpus=NUM_CPUS, accesses_per_cpu=per_cpu, seed=seed)
            start = time.process_time()
            count = len(LaneTrace.from_records(workload))
            best = min(best, time.process_time() - start)
        result[name] = {
            "cpu_seconds": round(best, 3),
            "records_per_second": round(count / best),
            "us_per_record": round(best / count * 1e6, 2),
        }
    return result


def _time_decode(path: Path, expected: int) -> float:
    """Seconds to materialize every record of ``path`` once."""
    stream = stream_trace(path)
    count = 0
    start = time.perf_counter()
    if hasattr(stream, "iter_chunks") and path.name.endswith((".strc", ".strc.gz")):
        for chunk in stream.iter_chunks():
            count += len(chunk)
    else:
        for _ in stream:
            count += 1
    elapsed = time.perf_counter() - start
    if count != expected:
        raise RuntimeError(f"{path}: decoded {count} records, expected {expected}")
    return elapsed


def bench_decode(trace: dict) -> dict:
    records = trace["records"]
    result = {"records": records}
    for key in ("text", "text_gz", "binary", "binary_gz"):
        seconds = _time_decode(trace["paths"][key], records)
        result[key] = {
            "seconds": round(seconds, 3),
            "records_per_second": round(records / seconds),
        }
    result["binary_vs_text_speedup"] = round(
        result["text"]["seconds"] / result["binary"]["seconds"], 2
    )
    result["binary_gz_vs_text_gz_speedup"] = round(
        result["text_gz"]["seconds"] / result["binary_gz"]["seconds"], 2
    )
    return result


def bench_engine(trace: dict, sim_records: int) -> dict:
    stream = stream_trace(trace["paths"]["binary"])
    limit = min(sim_records, trace["records"])
    result = {"records": limit}
    configurations = {
        "baseline": None,
        "sms": lambda cpu: SpatialMemoryStreaming(SMSConfig.paper_practical()),
    }
    for name, factory in configurations.items():
        config = SimulationConfig.small(num_cpus=NUM_CPUS)
        engine = SimulationEngine(config, factory, name=name)
        start = time.perf_counter()
        engine.run(stream, limit=limit, warmup_accesses=0)
        seconds = time.perf_counter() - start
        result[name] = {
            "seconds": round(seconds, 3),
            "records_per_second": round(limit / seconds),
        }
    return result


def bench_lanes_vs_reference(trace: dict, sim_records: int, repetitions: int = 2) -> dict:
    """SMS throughput through both engine paths on the same binary trace.

    The two paths are bit-identical (golden-counter gated); this section
    tracks how much faster the lane path simulates the same records.  The
    speedup is computed from CPU seconds so background load on a shared
    runner inflates neither side; wall-clock figures are reported alongside.
    """
    limit = min(sim_records, trace["records"])
    result = {"records": limit, "prefetcher": "sms"}
    for label, lanes in (("reference", False), ("lanes", True)):
        best_wall = best_cpu = None
        for _ in range(repetitions):
            engine = SimulationEngine(
                SimulationConfig.small(num_cpus=NUM_CPUS),
                lambda cpu: SpatialMemoryStreaming(SMSConfig.paper_practical()),
                name=label,
            )
            stream = stream_trace(trace["paths"]["binary"])
            wall_start = time.perf_counter()
            cpu_start = time.process_time()
            engine.run(stream, limit=limit, warmup_accesses=0, lanes=lanes)
            cpu_seconds = time.process_time() - cpu_start
            wall_seconds = time.perf_counter() - wall_start
            if best_cpu is None or cpu_seconds < best_cpu:
                best_cpu = cpu_seconds
                best_wall = wall_seconds
        result[label] = {
            "seconds": round(best_wall, 3),
            "cpu_seconds": round(best_cpu, 3),
            "records_per_second": round(limit / best_cpu),
        }
    result["lane_speedup"] = round(
        result["reference"]["cpu_seconds"] / result["lanes"]["cpu_seconds"], 2
    )
    return result


def bench_obs_overhead(trace: dict, sim_records: int, repetitions: int = 3) -> dict:
    """Instrumented-vs-uninstrumented engine overhead of the metrics layer.

    The lane-path SMS engine is run with a live ``repro.obs`` registry and
    with the ``NullRegistry`` that ``REPRO_OBS=0`` installs — the exact
    same code shape, every observation a no-op.  One untimed warmup run
    heats the trace/page caches, then the two sides alternate (interleaved
    rather than back-to-back, so drift does not bias one side) and each
    takes its best CPU time of N.  The budget is 2%: the engine only
    tallies per chunk and flushes once per run, so real overhead is
    expected to be indistinguishable from noise.
    """
    from repro import obs
    from repro.obs.registry import NullRegistry, Registry

    limit = min(sim_records, trace["records"])

    def one_run(registry) -> float:
        previous = obs.install_registry(registry)
        try:
            engine = SimulationEngine(
                SimulationConfig.small(num_cpus=NUM_CPUS),
                lambda cpu: SpatialMemoryStreaming(SMSConfig.paper_practical()),
                name="obs-overhead",
            )
            stream = stream_trace(trace["paths"]["binary"])
            cpu_start = time.process_time()
            engine.run(stream, limit=limit, warmup_accesses=0, lanes=True)
            return time.process_time() - cpu_start
        finally:
            obs.install_registry(previous)

    one_run(NullRegistry())  # untimed warmup
    uninstrumented = instrumented = None
    for _ in range(repetitions):
        null_cpu = one_run(NullRegistry())
        live_cpu = one_run(Registry())
        if uninstrumented is None or null_cpu < uninstrumented:
            uninstrumented = null_cpu
        if instrumented is None or live_cpu < instrumented:
            instrumented = live_cpu
    overhead = (instrumented - uninstrumented) / uninstrumented if uninstrumented else 0.0
    return {
        "records": limit,
        "repetitions": repetitions,
        "instrumented_cpu_seconds": round(instrumented, 4),
        "uninstrumented_cpu_seconds": round(uninstrumented, 4),
        "overhead_pct": round(overhead * 100, 2),
        "budget_pct": 2.0,
    }


def bench_trace_overhead(
    trace: dict, sim_records: int, directory: Path, repetitions: int = 3
) -> dict:
    """Lane-path cost of the structured-tracing hooks (``repro.obs.trace``).

    Same interleaved best-of-N CPU-time shape as :func:`bench_obs_overhead`:
    the lane-path SMS engine runs with ``REPRO_TRACE=off`` (the default —
    every hook returns the shared null span) and with ``REPRO_TRACE=on``
    (the run records a real span tree to the cache's trace directory,
    pointed at a temp dir here).  The budget is 1%: the lane path carries
    no per-record hook — only one ``engine.run`` span per run — so both
    sides should be indistinguishable from noise, and a regression here
    means someone put a span inside the record loop.
    """
    limit = min(sim_records, trace["records"])

    def one_run(trace_mode: str) -> float:
        saved = {
            name: os.environ.get(name) for name in ("REPRO_TRACE", "REPRO_CACHE_DIR")
        }
        os.environ["REPRO_TRACE"] = trace_mode
        os.environ["REPRO_CACHE_DIR"] = str(directory / "trace-overhead-cache")
        try:
            engine = SimulationEngine(
                SimulationConfig.small(num_cpus=NUM_CPUS),
                lambda cpu: SpatialMemoryStreaming(SMSConfig.paper_practical()),
                name="trace-overhead",
            )
            stream = stream_trace(trace["paths"]["binary"])
            cpu_start = time.process_time()
            engine.run(stream, limit=limit, warmup_accesses=0, lanes=True)
            return time.process_time() - cpu_start
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value

    one_run("off")  # untimed warmup
    untraced = traced = None
    for _ in range(repetitions):
        off_cpu = one_run("off")
        on_cpu = one_run("on")
        if untraced is None or off_cpu < untraced:
            untraced = off_cpu
        if traced is None or on_cpu < traced:
            traced = on_cpu
    overhead = (traced - untraced) / untraced if untraced else 0.0
    return {
        "records": limit,
        "repetitions": repetitions,
        "traced_cpu_seconds": round(traced, 4),
        "untraced_cpu_seconds": round(untraced, 4),
        "overhead_pct": round(overhead * 100, 2),
        "budget_pct": 1.0,
    }


def bench_sweep_cache(scale: float, directory: Path) -> dict:
    from repro.experiments import fig10_region_size

    cache_dir = directory / "sweep-cache"

    def run_once() -> float:
        start = time.perf_counter()
        fig10_region_size.run(scale=scale, num_cpus=2)
        return time.perf_counter() - start

    previous = set_default_cache(SweepResultCache(cache_dir))
    try:
        cold = run_once()
        warm = run_once()
    finally:
        set_default_cache(previous)
    return {
        "figure": "fig10",
        "scale": scale,
        "cold_seconds": round(cold, 4),
        "warm_seconds": round(warm, 4),
        "warm_vs_cold_speedup": round(cold / warm, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=1_000_000,
                        help="trace length for the decode benchmark")
    parser.add_argument("--sim-records", type=int, default=200_000,
                        help="records simulated in the engine benchmark")
    parser.add_argument("--sweep-scale", type=float, default=0.3,
                        help="trace scale for the sweep-cache benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes (100k decode / 20k sim / 0.1 scale)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_engine.json"),
                        help="output JSON path")
    args = parser.parse_args(argv)
    if args.quick:
        args.records, args.sim_records, args.sweep_scale = 100_000, 20_000, 0.1

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        directory = Path(tmp)
        print(f"generating {args.records:,}-record trace ...", flush=True)
        trace = _generate_trace(args.records, directory)
        print("benchmarking generation ...", flush=True)
        generate = bench_generate(args.sim_records)
        print("benchmarking decode ...", flush=True)
        decode = bench_decode(trace)
        print("benchmarking engine ...", flush=True)
        engine = bench_engine(trace, args.sim_records)
        print("benchmarking lanes vs reference ...", flush=True)
        lanes_vs_reference = bench_lanes_vs_reference(trace, args.sim_records)
        print("benchmarking observability overhead ...", flush=True)
        obs_overhead = bench_obs_overhead(trace, args.sim_records)
        print(f"  obs overhead: {obs_overhead['overhead_pct']:+.2f}% "
              f"(budget {obs_overhead['budget_pct']:.0f}%)", flush=True)
        print("benchmarking tracing overhead ...", flush=True)
        trace_overhead = bench_trace_overhead(trace, args.sim_records, directory)
        print(f"  trace overhead: {trace_overhead['overhead_pct']:+.2f}% "
              f"(budget {trace_overhead['budget_pct']:.0f}%)", flush=True)
        print("benchmarking sweep cache ...", flush=True)
        sweep_cache = bench_sweep_cache(args.sweep_scale, directory)
        report = {
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "quick": args.quick,
            "trace": {
                "records": trace["records"],
                "sizes_bytes": trace["sizes_bytes"],
            },
            "generate": generate,
            "decode": decode,
            "engine": engine,
            "lanes_vs_reference": lanes_vs_reference,
            "obs_overhead": obs_overhead,
            "trace_overhead": trace_overhead,
            "sweep_cache": sweep_cache,
        }

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, default=str) + "\n")
    print(json.dumps(report, indent=2, default=str))
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
