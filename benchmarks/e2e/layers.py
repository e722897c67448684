"""The per-layer budget measured by a traced run.

Layers are this repository's module names.  Each is measured from outside,
by timing calls into its public functions on the benchmark's own inputs; the
fused engine loop is opaque from outside, so its inner layers (trace decode,
memory system, SMS) are sized by ablation on the same ``.strc`` inputs, in
microseconds per record so they sum.  Counts are read from public attributes
after a run and repeat exactly for a given seed.

A traced run of any workload reports this whole budget: the layers are a
property of the program at a commit, not of one workload.  ``BENCHMARK.json``
holds the one list of names and units; ``bench.py`` refuses a budget that
does not match it.
"""

from __future__ import annotations

import dataclasses
import os
import random
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List

from hostenv import calibrate
from spans import SpanRecorder
from workloads import (
    QUICK,
    REPLAY_APPS,
    Context,
    Ops,
    ServeSession,
    check_fig10,
    coalesce_burst,
    cold_phase,
    fig10_invoke,
    final_status_problems,
    reply_problems,
    send,
    serve_request,
    warm_slice,
    write_replay_traces,
)

@dataclasses.dataclass(frozen=True)
class ProbeSizes:
    child_repeats: int      # interpreter/import/fingerprint child processes
    engine_prefix: int      # records per ablation run
    lane_repeats: int       # lane runs are short, so more of them
    reference_repeats: int
    micro_calls: int        # AGT/PHT/cache/protocol calls per micro-probe
    put_calls: int
    status_round_trips: int
    serve_cold_requests: int
    warm_requests: int      # cache-hit requests, every other one under a span
    two_connections_s: float
    dispatch_calls: int


FULL_PROBES = ProbeSizes(
    child_repeats=7, engine_prefix=16_000, lane_repeats=5, reference_repeats=3,
    micro_calls=20_000,
    put_calls=300, status_round_trips=1_000, serve_cold_requests=3,
    warm_requests=4_000, two_connections_s=1.0, dispatch_calls=30,
)
QUICK_PROBES = ProbeSizes(
    child_repeats=1, engine_prefix=1_000, lane_repeats=1, reference_repeats=1,
    micro_calls=500,
    put_calls=20, status_round_trips=50, serve_cold_requests=1,
    warm_requests=200, two_connections_s=0.15, dispatch_calls=3,
)


def _median_seconds(repeats: int, fn: Callable[[], object]) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _per_call_us(calls: int, fn: Callable[[int], object]) -> float:
    start = time.perf_counter()
    for index in range(calls):
        fn(index)
    return (time.perf_counter() - start) / calls * 1e6


# --------------------------------------------------------------------------- #
def _cli_layer(ctx: Context, probes: ProbeSizes, ops: Ops, out: Dict[str, float]) -> Path:
    """Interpreter start, package import, and one cold fig10 invocation.
    Returns that invocation's populated cache directory."""
    def child_ms(code: str) -> float:
        return 1e3 * _median_seconds(
            probes.child_repeats, lambda: ctx.spawner.run(["-c", code])
        )

    interpreter = child_ms("pass")
    out["cli.interpreter_ms"] = interpreter
    out["cli.import_ms"] = child_ms("import repro.cli") - interpreter
    cache_dir = ctx.fresh_dir("layers-fig10")
    with ctx.recorder.span("op.fig10_cold", "layers-fig10"):
        result = fig10_invoke(ctx, "layers-fig10", cache_dir)
    ops.record(check_fig10(result, "0 hit(s), 4 miss(es), 4 stored"))
    out["cli.invoke_wall_s.fig10"] = result.wall_s
    return cache_dir


def _trace_layers(ctx: Context, probes: ProbeSizes, out: Dict[str, float]):
    """Workload generation and the ``.strc`` codec; returns the replay inputs
    as (paths, materialised record tuples)."""
    from repro.trace.binary import BinaryTraceStream, write_trace_binary
    from repro.workloads.suite import make_workload

    directory = ctx.fresh_dir("layers-traces")
    paths = write_replay_traces(ctx, directory)
    records = {}
    for app in REPLAY_APPS:
        start = time.perf_counter()
        records[app] = tuple(make_workload(
            app, num_cpus=ctx.sizes.replay_cpus,
            accesses_per_cpu=ctx.sizes.replay_accesses_per_cpu, seed=ctx.seed,
        ))
        elapsed = time.perf_counter() - start
        out[f"workloads.generate_us_per_record.{app}"] = elapsed / len(records[app]) * 1e6
    sample = records[REPLAY_APPS[0]]
    path = paths[REPLAY_APPS[0]]
    per_record = 1e6 / len(sample)
    repeats = probes.lane_repeats
    out["trace.encode_us_per_record"] = per_record * _median_seconds(
        repeats, lambda: write_trace_binary(directory / "encode.strc", sample))
    out["trace.decode_boxed_us_per_record"] = per_record * _median_seconds(
        repeats, lambda: sum(len(c) for c in BinaryTraceStream(path).iter_chunks()))
    out["trace.decode_lanes_us_per_record"] = per_record * _median_seconds(
        repeats, lambda: sum(len(c) for c in BinaryTraceStream(path).iter_lane_chunks()))
    return paths, records


def _engine_layers(
    ctx: Context, probes: ProbeSizes, paths, records, out: Dict[str, float]
) -> None:
    """Ablation: {null, paper-practical SMS} x {lane path, reference path}."""
    from repro.core import SMSConfig, SpatialMemoryStreaming
    from repro.simulation import SimulationConfig, SimulationEngine
    from repro.trace.reader import stream_trace

    config = SimulationConfig.small(num_cpus=ctx.sizes.replay_cpus)
    factories = {
        "null": None,
        "sms": lambda cpu: SpatialMemoryStreaming(SMSConfig.paper_practical()),
    }
    decode = out["trace.decode_lanes_us_per_record"]
    for app in REPLAY_APPS:
        prefix = min(probes.engine_prefix, len(records[app]))
        variants = [
            (f"{prefetcher}_{path_name}", factory, trace, lanes, repeats)
            for prefetcher, factory in factories.items()
            for path_name, trace, lanes, repeats in (
                ("lanes", stream_trace(paths[app]), True, probes.lane_repeats),
                ("reference", records[app], False, probes.reference_repeats),
            )
        ]
        samples: Dict[str, List[float]] = {name: [] for name, *_ in variants}
        # Round-robin: the self times below are differences between variants,
        # so each round runs them all inside one stretch of host speed.
        for round_index in range(max(probes.lane_repeats, probes.reference_repeats)):
            for name, factory, trace, lanes, repeats in variants:
                if round_index >= repeats:
                    continue
                engine = SimulationEngine(config, factory)
                start = time.perf_counter()
                result = engine.run(trace, limit=prefix, lanes=lanes)
                samples[name].append(time.perf_counter() - start)
                if name == "sms_lanes":
                    sms_engine, sms_result = engine, result
        cost = {name: statistics.median(walls) / prefix * 1e6 for name, walls in samples.items()}
        for name, value in cost.items():
            out[f"engine.{name}_us_per_record.{app}"] = value
        out[f"memory.self_us_per_record.{app}"] = cost["null_lanes"] - decode
        out[f"sms.self_us_per_record.{app}"] = cost["sms_lanes"] - cost["null_lanes"]
        phts = [prefetcher.pht for prefetcher in sms_engine.prefetchers]
        lookups = sum(pht.lookups for pht in phts)
        hits = sum(pht.hits for pht in phts)
        counts = {
            "memory.l1_read_misses": sms_result.l1_read_misses,
            "memory.offchip_read_misses": sms_result.offchip_read_misses,
            "coherence.invalidations": sms_result.invalidations,
            "pht.lookups": lookups,
            "pht.hits": hits,
            "pht.stores": sum(pht.stores for pht in phts),
            "pht.replacements": sum(pht.replacements for pht in phts),
            "sms.trained_patterns": sum(
                prefetcher.stats.trained_patterns for prefetcher in sms_engine.prefetchers
            ),
            "sms.prefetches_issued": sms_result.prefetches_issued,
        }
        for name, value in counts.items():
            out[f"{name}.{app}"] = value
        out[f"pht.hit_ratio.{app}"] = hits / lookups if lookups else 0.0
        issued = sms_result.prefetches_issued
        out[f"sms.useful_prefetch_ratio.{app}"] = (
            sms_result.l1_read_covered / issued if issued else 0.0
        )


def _predictor_micro(ctx: Context, probes: ProbeSizes, out: Dict[str, float]) -> None:
    """AGT and PHT public calls on seeded keys (dict backend, 16k entries)."""
    from repro.core.agt import ActiveGenerationTable
    from repro.core.pht import PatternHistoryTable
    from repro.core.region import RegionGeometry

    rng = random.Random(ctx.seed)
    geometry = RegionGeometry()
    calls = probes.micro_calls
    accesses = [
        (0x4000 + 4 * rng.randrange(64),
         rng.randrange(256) * geometry.region_size + rng.randrange(32) * geometry.block_size)
        for _ in range(calls)
    ]
    agt = ActiveGenerationTable(geometry)
    out["agt.observe_access_us"] = _per_call_us(
        calls, lambda i: agt.observe_access(*accesses[i]))
    keys = [("pc+off", 0x4000 + 4 * rng.randrange(4096), rng.randrange(32)) for _ in range(calls)]
    bits = [rng.getrandbits(32) for _ in range(calls)]
    pht = PatternHistoryTable(num_blocks=32, num_entries=16384, associativity=16)
    out["pht.store_us"] = _per_call_us(calls, lambda i: pht.store_bits(keys[i], bits[i]))
    out["pht.lookup_us"] = _per_call_us(calls, lambda i: pht.lookup_bits(keys[i]))


def _experiments_layers(ctx: Context, out: Dict[str, float]) -> None:
    """``representative_trace`` x 4 cold (generate + store) and warm (boxed
    ``.strc`` decode), then which engine path an in-process fig10 takes."""
    from repro import obs
    from repro.experiments import common, fig10_region_size

    def build_all() -> None:
        for category in common.CATEGORY_REPRESENTATIVE:
            common.representative_trace(
                category, num_cpus=ctx.sizes.fig10_cpus, scale=ctx.sizes.fig10_scale
            )

    def engine_runs() -> Dict[str, float]:
        family = obs.render_json()["metrics"].get("repro_engine_runs_total", {})
        return {s["labels"]["path"]: s["value"] for s in family.get("samples", [])}

    ambient_cache_dir = os.environ["REPRO_CACHE_DIR"]
    os.environ["REPRO_CACHE_DIR"] = str(ctx.fresh_dir("layers-trace-cache"))
    previous = common.set_trace_cache(True)
    try:
        common._cached_trace.cache_clear()
        out["experiments.build_trace_cold_s"] = _median_seconds(1, build_all)
        common._cached_trace.cache_clear()
        out["experiments.build_trace_warm_s"] = _median_seconds(1, build_all)
        before = engine_runs()
        with ctx.recorder.span("fig10_region_size.run", "layers-fig10-inprocess"), \
                ctx.recorder.wrapping(common, "representative_trace", "simulate"):
            # Only the runs are counted, and their number does not depend on the scale.
            fig10_region_size.run(scale=QUICK.fig10_scale, num_cpus=QUICK.fig10_cpus)
        after = engine_runs()
    finally:
        common.set_trace_cache(previous)
        common._cached_trace.cache_clear()
        os.environ["REPRO_CACHE_DIR"] = ambient_cache_dir
    for path in ("lanes", "reference"):
        out[f"engine.runs_{path}"] = after.get(path, 0) - before.get(path, 0)


def _cache_layers(ctx: Context, probes: ProbeSizes, fig10_cache: Path, ops: Ops,
                  out: Dict[str, float]) -> None:
    """``SweepResultCache`` and ``sweep_map`` on the entries a real cold fig10
    invocation stored."""
    from repro.experiments import common, fig10_region_size
    from repro.serve import jobs
    from repro.simulation.result_cache import SweepResultCache
    from repro.simulation.sweep import sweep_map

    code = ("import time; from repro.simulation import result_cache as r; "
            "t = time.perf_counter(); r.code_fingerprint(); "
            "print((time.perf_counter() - t) * 1e3)")
    first_calls = [
        float(ctx.spawner.run(["-c", code]).stdout)
        for _ in range(probes.child_repeats)
    ]
    out["result_cache.code_fingerprint_ms"] = statistics.median(first_calls)

    cache = SweepResultCache(directory=fig10_cache)
    sweep_kwargs = {"scale": ctx.sizes.fig10_scale, "num_cpus": ctx.sizes.fig10_cpus}
    job = jobs.job_for({"verb": "sweep", "figure": "fig10", "item": "OLTP", **sweep_kwargs})
    digest = cache.fingerprint(job.fn, job.args, job.kwargs)
    hit, value = cache.get(digest)
    ops.record([] if hit else ["the CLI's fig10 cache entry is not found under the serve digest"])
    calls = max(1, probes.micro_calls // 20)
    out["result_cache.fingerprint_us"] = _per_call_us(
        calls, lambda i: cache.fingerprint(job.fn, job.args, job.kwargs))
    out["result_cache.get_hit_us"] = _per_call_us(calls, lambda i: cache.get(digest))
    out["result_cache.get_miss_us"] = _per_call_us(calls, lambda i: cache.get("0" * 64))
    scratch_cache = SweepResultCache(directory=ctx.fresh_dir("layers-put"))
    out["result_cache.put_us"] = _per_call_us(
        probes.put_calls, lambda i: scratch_cache.put(f"{i:064x}", value))

    categories = list(common.CATEGORY_REPRESENTATIVE)
    misses_before = cache.stats.misses
    sweep_s = _median_seconds(5, lambda: sweep_map(
        fig10_region_size.run_category, categories, workers=1, cache=cache,
        region_sizes=fig10_region_size.REGION_SIZES, **sweep_kwargs,
    ))
    ops.record([] if cache.stats.misses == misses_before
               else ["sweep_map missed on a populated cache"])
    out["sweep.overhead_ms"] = (
        sweep_s * 1e3 - len(categories) * out["result_cache.get_hit_us"] / 1e3
    )


def _serve_micro(ctx: Context, probes: ProbeSizes, out: Dict[str, float]) -> None:
    """Protocol codec, request normalisation, digest, result conversion, the
    job itself in-process, and what a pool dispatch adds to it."""
    from repro.serve import WorkerPool, jobs
    from repro.serve.protocol import decode_line, encode, ok_response
    from repro.simulation.result_cache import SweepResultCache

    request = serve_request(ctx, ctx.seed)
    spec = jobs.normalize(request)
    samples = []
    for _ in range(2):
        start = time.perf_counter()
        with ctx.recorder.span("jobs.run_simulate", "layers-run-simulate"):
            raw = jobs.execute_spec(spec)
        samples.append(time.perf_counter() - start)
    out["serve.run_simulate_s"] = statistics.median(samples)

    reply = ok_response(jobs.jsonify(raw), cached=True)
    cache = SweepResultCache(directory=ctx.fresh_dir("layers-digest"))
    calls = max(1, probes.micro_calls // 20)
    out["serve.protocol_roundtrip_us"] = _per_call_us(
        calls, lambda i: (decode_line(encode(request)), decode_line(encode(reply))))
    out["serve.normalize_us"] = _per_call_us(calls, lambda i: jobs.normalize(request))
    out["serve.digest_us"] = _per_call_us(calls, lambda i: jobs.digest_for(spec, cache))
    out["serve.jsonify_us"] = _per_call_us(calls, lambda i: jobs.jsonify(raw))

    tiny = jobs.normalize({**request, "cpus": 1, "accesses_per_cpu": 1})
    pool = WorkerPool(workers=1, cache_dir=str(ctx.fresh_dir("layers-pool")))
    extra = []
    try:
        pool.start()
        pool.execute(tiny)  # the worker's first job pays its lazy imports
        for _ in range(probes.dispatch_calls):  # in pairs: the difference is small
            start = time.perf_counter()
            jobs.execute_spec(tiny)
            middle = time.perf_counter()
            with ctx.recorder.span("WorkerPool.execute", "layers-pool-dispatch"):
                pool.execute(tiny)
            extra.append((time.perf_counter() - middle) - (middle - start))
    finally:
        pool.shutdown()
    out["serve.pool_dispatch_ms"] = statistics.median(extra) * 1e3


def _serve_session(ctx: Context, probes: ProbeSizes, ops: Ops, out: Dict[str, float]) -> None:
    """A short serve session: status floor, executing requests, cache-hit
    requests alternately untraced and traced, two connections at once, one
    coalesced burst, and the server's counters."""
    untraced = dataclasses.replace(ctx, recorder=SpanRecorder(False))
    payloads = [serve_request(ctx, ctx.seed + i) for i in range(probes.serve_cold_requests)]
    with ServeSession(ctx, ctx.fresh_dir("layers-serve")) as session:
        with session.client() as client:
            round_trips = []
            for _ in range(probes.status_round_trips):
                start = time.perf_counter()
                client.request("status")
                round_trips.append(time.perf_counter() - start)
        out["serve.status_p50_us"] = statistics.median(round_trips) * 1e6
        _, _, results = cold_phase(ctx, session, payloads, ops)
        # Request by request, so host drift hits both sides alike: the spans'
        # cost is ~1 % of a request, far below what two separate runs resolve.
        latencies: Dict[bool, List[float]] = {False: [], True: []}
        with session.client() as client:
            for index in range(probes.warm_requests):
                traced = bool(index % 2)
                slot = (index // 2) % len(payloads)
                reply, latency = send(ctx if traced else untraced, client,
                                      f"layers-warm-{index}", payloads[slot])
                ops.record(reply_problems(reply, True, results[slot]))
                latencies[traced].append(latency)
        with session.client() as first, session.client() as second:
            both, wall = warm_slice(untraced, [first, second], payloads, results,
                                    probes.two_connections_s, ops, "layers-warm-2conn")
        out["serve.warm_2conn_requests_per_s"] = len(both) / wall
        coalesce_burst(ctx, session, serve_request(ctx, ctx.seed + len(payloads)), ops)
        status = session.status()
    ops.record(final_status_problems(status, len(payloads) + 1))
    plain = sorted(latencies[False])
    base = statistics.median(plain)
    out["serve.warm_request_p50_ms"] = base * 1e3
    out["serve.warm_request_p95_ms"] = plain[int(0.95 * (len(plain) - 1))] * 1e3
    out["bench.tracing_overhead_pct"] = (statistics.median(latencies[True]) - base) / base * 100.0
    for name in ("executed", "cache_hits", "coalesced", "retries", "errors", "busy_rejections"):
        out[f"serve.{name}"] = status["counters"][name]


def measure(ctx: Context, probes: ProbeSizes, ops: Ops) -> Dict[str, float]:
    out: Dict[str, float] = {}
    units = [calibrate(0.3)]
    fig10_cache = _cli_layer(ctx, probes, ops, out)
    paths, records = _trace_layers(ctx, probes, out)
    _engine_layers(ctx, probes, paths, records, out)
    _predictor_micro(ctx, probes, out)
    _experiments_layers(ctx, out)
    _cache_layers(ctx, probes, fig10_cache, ops, out)
    _serve_micro(ctx, probes, out)
    _serve_session(ctx, probes, ops, out)
    units.append(calibrate(0.3))
    # The budget is reported as the clock read it; this says how fast the host was.
    out["bench.calibration_unit_ms"] = statistics.mean(units) * 1e3
    return out
