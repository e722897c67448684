"""The four end-to-end workloads.

Each drives an unmodified user-facing entry point — ``repro.cli experiment``,
``repro.cli simulate --trace``, ``repro.cli serve`` + ``ServeClient`` — from a
single driver process with at most two concurrent connections, repeats its
operation until the run's time budget is spent, checks every output, and
returns the raw samples the four end-to-end metrics are computed from.

All times are host wall-clock, scaled to nominal host speed by the calibration
loop the driver runs between operations (``hostenv.HostClock``); the raw
medians are kept beside them.  Simulated statistics are never scored; they
are hashed into the workload's ``sim_digest``, which must not change under a
speed-only change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from hostenv import (
    ROOT,
    ChildResult,
    HostClock,
    Spawner,
    child_environment,
    child_pids,
    proc_status_field,
)
from spans import SpanRecorder

FIG10_REGION_SIZES = 7
FIG10_CATEGORIES = 4
REPLAY_APPS = ("oltp-db2", "ocean")
SERVE_CONNECTIONS = 2


@dataclass(frozen=True)
class Sizes:
    """Fixed input sizes.  ``FULL`` was sized by timing the unmodified code on
    a 2-core sandbox so that one run (set-up + ``run_seconds``) stays near
    25 s and every reported number is a median over several operations;
    ``QUICK`` only proves the plumbing."""

    fig10_scale: float
    fig10_cpus: int
    fig10_cold_min_ops: int
    fig10_warm_min_ops: int
    replay_cpus: int
    replay_accesses_per_cpu: int
    replay_min_pairs: int
    replay_check_prefix: int
    serve_cold_requests: int
    serve_accesses_per_cpu: int
    serve_warm_floor_s: float
    serve_warm_slice_s: float
    setup_repeats: int


FULL = Sizes(
    fig10_scale=0.1, fig10_cpus=2, fig10_cold_min_ops=3, fig10_warm_min_ops=10,
    replay_cpus=4, replay_accesses_per_cpu=12_500, replay_min_pairs=3,
    replay_check_prefix=10_000,
    serve_cold_requests=12, serve_accesses_per_cpu=1_500, serve_warm_floor_s=3.0,
    serve_warm_slice_s=1.0,
    setup_repeats=3,
)
#: A traced run wants spans of each kind of operation, not statistics.
TRACED = dataclasses.replace(
    FULL, fig10_cold_min_ops=1, fig10_warm_min_ops=1, replay_min_pairs=1,
    serve_cold_requests=3, setup_repeats=1,
)
QUICK = Sizes(
    fig10_scale=0.01, fig10_cpus=1, fig10_cold_min_ops=1, fig10_warm_min_ops=2,
    replay_cpus=1, replay_accesses_per_cpu=1_000, replay_min_pairs=1,
    replay_check_prefix=1_000,
    serve_cold_requests=2, serve_accesses_per_cpu=150, serve_warm_floor_s=0.3,
    serve_warm_slice_s=0.15,
    setup_repeats=1,
)


@dataclass
class Context:
    seed: int
    seconds: float
    sizes: Sizes
    recorder: SpanRecorder
    scratch: Path
    spawner: Spawner
    clock: HostClock = field(default_factory=HostClock)
    _dirs: "itertools.count[int]" = field(default_factory=itertools.count)

    def fresh_dir(self, prefix: str) -> Path:
        path = self.scratch / f"{prefix}-{next(self._dirs)}"
        path.mkdir(parents=True)
        return path


class Ops:
    """Operations attempted and failed; an operation that exits non-zero,
    is refused, or fails any output check is one failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self._lock = threading.Lock()

    def record(self, problems: List[str]) -> None:
        with self._lock:
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.extend(problems[:3])


@dataclass
class Outcome:
    """Times are at nominal host speed; ``raw_op_walls_s`` is what the clock read."""

    setup_s: float
    op_walls_s: List[float]
    raw_op_walls_s: List[float]
    throughput_per_s: float
    peak_rss_mb: float
    ops: Ops
    sim_digest: str
    info: dict


def _sha256(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _cli(ctx: Context, label: str, op: str, args: List[str]) -> ChildResult:
    with ctx.recorder.span(label, op):
        return ctx.spawner.run(["-m", "repro.cli", *args])


def _timed_loop(ctx: Context, min_ops: int, operation: Callable[[int], None]) -> None:
    """Repeat ``operation`` (and the calibration that follows it) until the
    time budget is spent, and at least ``min_ops`` times."""
    start = time.perf_counter()
    for index in itertools.count():
        if index >= min_ops and time.perf_counter() - start >= ctx.seconds:
            break
        operation(index)


# --------------------------------------------------------------------------- #
# fig10 through ``repro.cli experiment``
# --------------------------------------------------------------------------- #
def fig10_records(sizes: Sizes) -> int:
    """Records fed to the engine by one cold fig10 invocation."""
    from repro.experiments import common

    per_cpu = sum(
        max(1000, int(common.ACCESSES_PER_CPU[app] * sizes.fig10_scale))
        for app in common.CATEGORY_REPRESENTATIVE.values()
    )
    return per_cpu * sizes.fig10_cpus * FIG10_REGION_SIZES


def fig10_invoke(ctx: Context, op: str, cache_dir: Path) -> ChildResult:
    return _cli(ctx, "cli.experiment", op, [
        "experiment", "--figure", "fig10", "--scale", str(ctx.sizes.fig10_scale),
        "--cpus", str(ctx.sizes.fig10_cpus), "--workers", "1", "--cache-dir", str(cache_dir),
    ])


def _split_fig10(stdout: str) -> Tuple[str, str]:
    """``(table text, sweep-cache summary line)`` of one invocation."""
    table, _, summary = stdout.partition("sweep cache: ")
    return table, summary.strip()


def check_fig10(result: ChildResult, expect_summary: str) -> List[str]:
    problems = []
    if result.returncode != 0:
        return [f"fig10 exited {result.returncode}: {result.stderr[-300:]}"]
    table, summary = _split_fig10(result.stdout)
    rows = table.splitlines()[3:]
    coverages = []
    for row in rows:
        try:
            coverages.append(float(row.split()[2]))
        except (IndexError, ValueError):
            problems.append(f"fig10 row unreadable: {row!r}")
    if len(rows) != FIG10_CATEGORIES * FIG10_REGION_SIZES:
        problems.append(f"fig10 printed {len(rows)} rows, expected 28")
    if any(not 0.0 <= value <= 1.0 for value in coverages):
        problems.append("fig10 coverage outside [0, 1]")
    if not summary.startswith(expect_summary):
        problems.append(f"fig10 summary {summary!r} does not start with {expect_summary!r}")
    return problems


def _warm_bytecode(ctx: Context) -> float:
    """Median wall of a trivial CLI child: fills the bytecode and page caches
    every later invocation relies on, as a user's second run would find them."""
    samples = []
    for _ in range(ctx.sizes.setup_repeats):
        result = ctx.spawner.run(["-m", "repro.cli", "--version"])
        samples.append(ctx.clock.scaled(result.wall_s))
    return statistics.median(samples)


def run_fig10_cold(ctx: Context) -> Outcome:
    ops = Ops()
    setup_s = _warm_bytecode(ctx)
    records = fig10_records(ctx.sizes)
    walls: List[float] = []
    raw_walls: List[float] = []
    rss: List[float] = []
    tables = set()

    def operation(index: int) -> None:
        cache_dir = ctx.fresh_dir("fig10-cold")  # created outside the child's wall
        with ctx.recorder.span("op.fig10_cold", f"cold-{index}"):
            result = fig10_invoke(ctx, f"cold-{index}", cache_dir)
        ops.record(check_fig10(result, "0 hit(s), 4 miss(es), 4 stored"))
        raw_walls.append(result.wall_s)
        walls.append(ctx.clock.scaled(result.wall_s))
        rss.append(result.maxrss_mb)
        tables.add(_split_fig10(result.stdout)[0])

    _timed_loop(ctx, ctx.sizes.fig10_cold_min_ops, operation)
    if len(tables) != 1:
        ops.record([f"fig10 printed {len(tables)} different tables across cold runs"])
    return Outcome(
        setup_s=setup_s,
        op_walls_s=walls,
        raw_op_walls_s=raw_walls,
        throughput_per_s=statistics.median(records / wall for wall in walls),
        peak_rss_mb=max(rss),
        ops=ops,
        sim_digest=_sha256(*sorted(tables)),
        info={"operation": "cold CLI invocation", "throughput_unit": "simulated records",
              "records_per_op": records},
    )


def run_fig10_warm(ctx: Context) -> Outcome:
    ops = Ops()
    setup_samples = []
    for _ in range(ctx.sizes.setup_repeats):
        cache_dir = ctx.fresh_dir("fig10-warm")
        with ctx.recorder.span("setup.fig10_populate", "setup"):
            populate = fig10_invoke(ctx, "setup", cache_dir)
        setup_samples.append(ctx.clock.scaled(populate.wall_s))
        problems = check_fig10(populate, "0 hit(s), 4 miss(es), 4 stored")
        if problems:
            raise RuntimeError(f"fig10_warm set-up failed: {problems}")
    reference_table = _split_fig10(populate.stdout)[0]
    walls: List[float] = []
    raw_walls: List[float] = []
    rss: List[float] = []

    def operation(index: int) -> None:
        with ctx.recorder.span("op.fig10_warm", f"warm-{index}"):
            result = fig10_invoke(ctx, f"warm-{index}", cache_dir)
        problems = check_fig10(result, "4 hit(s), 0 miss(es)")
        if _split_fig10(result.stdout)[0] != reference_table:
            problems.append("warm fig10 table differs from the populating run's")
        ops.record(problems)
        raw_walls.append(result.wall_s)
        walls.append(ctx.clock.scaled(result.wall_s))
        rss.append(result.maxrss_mb)

    _timed_loop(ctx, ctx.sizes.fig10_warm_min_ops, operation)
    return Outcome(
        setup_s=statistics.median(setup_samples),
        op_walls_s=walls,
        raw_op_walls_s=raw_walls,
        throughput_per_s=len(walls) / sum(walls),
        peak_rss_mb=max(rss),
        ops=ops,
        sim_digest=_sha256(reference_table),
        info={"operation": "warm CLI invocation", "throughput_unit": "invocations"},
    )


# --------------------------------------------------------------------------- #
# ``repro.cli simulate --trace``
# --------------------------------------------------------------------------- #
def write_replay_traces(ctx: Context, directory: Path) -> Dict[str, Path]:
    """Generate the two replay traces from the run's seed and write them as
    ``.strc``: sparse miss-heavy ``oltp-db2`` and dense streaming ``ocean``."""
    from repro.trace.binary import write_trace_binary
    from repro.workloads.suite import make_workload

    paths = {}
    for app in REPLAY_APPS:
        stream = make_workload(
            app, num_cpus=ctx.sizes.replay_cpus,
            accesses_per_cpu=ctx.sizes.replay_accesses_per_cpu, seed=ctx.seed,
        )
        paths[app] = directory / f"{app}.strc"
        write_trace_binary(paths[app], stream)
    return paths


def _check_lane_equivalence(ctx: Context, path: Path) -> List[str]:
    """Lane path == reference path on a prefix, and no record was dropped."""
    from repro.core import SMSConfig, SpatialMemoryStreaming
    from repro.simulation import SimulationConfig, SimulationEngine
    from repro.trace.reader import stream_trace

    config = SimulationConfig.small(num_cpus=ctx.sizes.replay_cpus)
    results = []
    for lanes in (True, False):
        engine = SimulationEngine(
            config, lambda cpu: SpatialMemoryStreaming(SMSConfig.paper_practical())
        )
        results.append(
            engine.run(stream_trace(path), limit=ctx.sizes.replay_check_prefix, lanes=lanes)
        )
    problems = []
    if results[0].as_dict() != results[1].as_dict():
        problems.append(f"{path.name}: lane and reference results differ")
    if results[0].reads + results[0].writes != results[0].accesses:
        problems.append(f"{path.name}: reads + writes != accesses")
    return problems


def run_trace_replay(ctx: Context) -> Outcome:
    ops = Ops()
    setup_samples = []
    for _ in range(ctx.sizes.setup_repeats):
        trace_dir = ctx.fresh_dir("traces")
        start = time.perf_counter()
        with ctx.recorder.span("setup.write_replay_traces", "setup"):
            paths = write_replay_traces(ctx, trace_dir)
        setup_samples.append(ctx.clock.scaled(time.perf_counter() - start))
    records_per_pair = 2 * len(REPLAY_APPS) * (  # baseline + SMS engine run per app
        ctx.sizes.replay_cpus * ctx.sizes.replay_accesses_per_cpu
    )
    walls: List[float] = []
    raw_walls: List[float] = []
    rss: List[float] = []
    tables: Dict[str, set] = {app: set() for app in REPLAY_APPS}

    def operation(index: int) -> None:
        problems = []
        wall = raw_wall = 0.0
        with ctx.recorder.span("op.trace_replay", f"pair-{index}"):
            for app in REPLAY_APPS:
                result = _cli(ctx, f"cli.simulate.{app}", f"pair-{index}", [
                    "simulate", "--trace", str(paths[app]), "--prefetcher", "sms",
                    "--cpus", str(ctx.sizes.replay_cpus),
                ])
                raw_wall += result.wall_s
                wall += ctx.clock.scaled(result.wall_s)
                rss.append(result.maxrss_mb)
                if result.returncode != 0:
                    problems.append(f"simulate {app} exited {result.returncode}: "
                                    f"{result.stderr[-300:]}")
                elif "estimated speedup" not in result.stdout:
                    problems.append(f"simulate {app} printed no result table")
                tables[app].add(result.stdout)
        ops.record(problems)
        walls.append(wall)
        raw_walls.append(raw_wall)

    _timed_loop(ctx, ctx.sizes.replay_min_pairs, operation)
    for app in REPLAY_APPS:
        problems = _check_lane_equivalence(ctx, paths[app])
        if len(tables[app]) != 1:
            problems.append(f"simulate {app} printed {len(tables[app])} different tables")
        ops.record(problems)
    return Outcome(
        setup_s=statistics.median(setup_samples),
        op_walls_s=walls,
        raw_op_walls_s=raw_walls,
        throughput_per_s=statistics.median(records_per_pair / wall for wall in walls),
        peak_rss_mb=max(rss),
        ops=ops,
        sim_digest=_sha256(*(table for app in REPLAY_APPS for table in sorted(tables[app]))),
        info={"operation": "oltp-db2 + ocean replay pair", "throughput_unit": "simulated records",
              "records_per_op": records_per_pair},
    )


# --------------------------------------------------------------------------- #
# ``repro.cli serve`` + ``ServeClient``
# --------------------------------------------------------------------------- #
class ServeSession:
    """A ``repro.cli serve --workers 1`` child on a Unix socket.

    The socket path is kept relative to the checkout root (the child's cwd
    and, after ``bench.main``'s chdir, the driver's) so it fits ``sun_path``
    however deep the checkout lives.
    """

    def __init__(self, ctx: Context, directory: Path) -> None:
        self.ctx = ctx
        self.directory = directory
        self.socket_path = str((directory / "s.sock").relative_to(ROOT))
        self.process: Optional[subprocess.Popen] = None
        self.boot_s = 0.0

    def start(self) -> "ServeSession":
        log = (self.directory / "server.log").open("wb")
        start = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--socket", self.socket_path,
                 "--workers", "1", "--cache-dir", str(self.directory / "cache")],
                stdout=log, stderr=subprocess.STDOUT, env=child_environment(), cwd=str(ROOT),
            )
        finally:
            log.close()
        with self.client() as client:
            if not client.request("status").get("ok"):
                raise RuntimeError("server refused its first status request")
        self.boot_s = time.perf_counter() - start
        return self

    def client(self):
        from repro.serve import ServeClient

        # 10 ms polling: the default backoff would quantise the boot time.
        return ServeClient(socket_path=self.socket_path, timeout=120.0).connect(
            retry_for=60.0, interval=0.01, max_interval=0.01
        )

    def status(self) -> dict:
        with self.client() as client:
            return client.call("status")

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and its worker."""
        assert self.process is not None
        pids = [self.process.pid, *child_pids(self.process.pid)]
        return sum((proc_status_field(pid, "VmHWM") or 0) for pid in pids) / 1024.0

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None
        socket_file = ROOT / self.socket_path
        if socket_file.exists():
            socket_file.unlink()

    def __enter__(self) -> "ServeSession":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_request(ctx: Context, seed: int) -> dict:
    return {
        "verb": "simulate", "workload": "oltp-db2", "cpus": 4,
        "accesses_per_cpu": ctx.sizes.serve_accesses_per_cpu, "seed": seed,
    }


def send(ctx: Context, client, op: str, payload: dict) -> Tuple[dict, float]:
    """One closed-loop request; client-observed latency in seconds.  A
    transport failure is returned as an ``ok: false`` reply so it is counted
    as a failed operation instead of ending the run."""
    from repro.serve import ServeError

    start = time.perf_counter()
    try:
        # The request is the whole operation: one span serves as root and layer call.
        with ctx.recorder.span("ServeClient.request_raw", op):
            reply = client.request_raw(payload)
    except ServeError as exc:
        reply = {"ok": False, "error": f"transport: {exc}"}
    return reply, time.perf_counter() - start


def reply_problems(reply: dict, cached: bool, expected: Optional[dict]) -> List[str]:
    if not reply.get("ok"):
        return [f"request failed: {reply.get('code')} {reply.get('error')}"]
    problems = []
    if bool(reply.get("cached")) != cached:
        problems.append(f"reply cached={reply.get('cached')}, expected {cached}")
    if expected is not None and reply.get("result") != expected:
        problems.append("cache-hit result differs from the executed reply")
    return problems


def warm_slice(
    ctx: Context, clients: list, payloads: List[dict], expected: List[dict],
    duration_s: float, ops: Ops, label: str,
) -> Tuple[List[float], float]:
    """Closed loop for ``duration_s`` over the given open connections, one
    thread each, cycling through the already-cached requests; returns
    (latencies, wall seconds)."""
    barrier = threading.Barrier(len(clients) + 1)
    latencies: List[List[float]] = [[] for _ in clients]

    def connection(slot: int) -> None:
        barrier.wait()
        deadline = time.perf_counter() + duration_s
        for count in itertools.count(slot * len(payloads) // len(clients)):
            index = count % len(payloads)
            reply, latency = send(ctx, clients[slot], f"{label}-{slot}-{count}", payloads[index])
            ops.record(reply_problems(reply, True, expected[index]))
            latencies[slot].append(latency)
            if time.perf_counter() >= deadline:
                break

    threads = [
        threading.Thread(target=connection, args=(slot,)) for slot in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return [latency for per_slot in latencies for latency in per_slot], wall


def coalesce_burst(ctx: Context, session: ServeSession, payload: dict, ops: Ops) -> None:
    """The same unseen request on two connections at once must execute once."""
    executed_before = session.status()["pool"]["executed"]
    barrier = threading.Barrier(SERVE_CONNECTIONS)
    replies: List[dict] = []

    def connection(slot: int) -> None:
        with session.client() as client:
            barrier.wait()
            replies.append(send(ctx, client, f"coalesce-{slot}", payload)[0])

    threads = [
        threading.Thread(target=connection, args=(slot,)) for slot in range(SERVE_CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    problems = [
        problem for reply in replies
        for problem in reply_problems(reply, bool(reply.get("cached")), None)
    ]
    if len(replies) != SERVE_CONNECTIONS:
        problems.append("a coalesce-burst connection failed")
    elif replies[0].get("result") != replies[1].get("result"):
        problems.append("coalesced replies differ")
    executed = session.status()["pool"]["executed"] - executed_before
    if executed != 1:
        problems.append(f"coalesce burst executed {executed} job(s), expected exactly 1")
    ops.record(problems)


def cold_phase(ctx: Context, session: ServeSession, payloads: List[dict], ops: Ops):
    """Distinct requests, closed loop on one connection: each executes on the
    pool worker.  Returns (raw latencies, latencies at nominal host speed,
    result dicts)."""
    raw, scaled, results = [], [], []
    with session.client() as client:
        for index, payload in enumerate(payloads):
            reply, latency = send(ctx, client, f"cold-{index}", payload)
            ops.record(reply_problems(reply, False, None))
            raw.append(latency)
            scaled.append(ctx.clock.scaled(latency))
            results.append(reply.get("result"))
    return raw, scaled, results


def final_status_problems(status: dict, executed: int) -> List[str]:
    counters = status["counters"]
    problems = []
    if counters["executed"] != executed:
        problems.append(f"server executed {counters['executed']} job(s), expected {executed}")
    for name in ("errors", "busy_rejections"):
        if counters[name] != 0:
            problems.append(f"server reports {counters[name]} {name}")
    return problems


def run_serve_mix(ctx: Context) -> Outcome:
    from repro.serve import jobs

    ops = Ops()
    sizes = ctx.sizes
    boots = []
    session = None
    try:
        for _ in range(sizes.setup_repeats):
            if session is not None:
                session.stop()
            session = ServeSession(ctx, ctx.fresh_dir("serve"))
            with ctx.recorder.span("setup.serve_boot", "setup"):
                session.start()
            boots.append(ctx.clock.scaled(session.boot_s))

        payloads = [serve_request(ctx, ctx.seed + i) for i in range(sizes.serve_cold_requests)]
        start = time.perf_counter()
        raw_cold, cold_latencies, results = cold_phase(ctx, session, payloads, ops)
        # The rest of the budget, in slices with a calibration after each.
        warm_deadline = start + max(ctx.seconds - 1.0, time.perf_counter() - start
                                    + sizes.serve_warm_floor_s)
        warm_latencies: List[float] = []
        warm_rates: List[float] = []
        raw_rates: List[float] = []
        with session.client() as client:
            while time.perf_counter() < warm_deadline:
                latencies, wall = warm_slice(
                    ctx, [client], payloads, results, sizes.serve_warm_slice_s, ops, "warm"
                )
                warm_latencies.extend(latencies)
                warm_rates.append(len(latencies) / ctx.clock.scaled(wall))
                raw_rates.append(len(latencies) / wall)
        coalesce_burst(ctx, session, serve_request(ctx, ctx.seed + len(payloads)), ops)

        # Untimed: one executed reply must equal the job run in this process.
        direct = jobs.jsonify(jobs.execute_spec(jobs.normalize(payloads[0])))
        same = json.dumps(direct, sort_keys=True) == json.dumps(results[0], sort_keys=True)
        ops.record([] if same else ["served result differs from jobs.run_simulate in the driver"])
        status = session.status()
        ops.record(final_status_problems(status, len(payloads) + 1))
        rss = session.peak_rss_mb()
    finally:
        if session is not None:
            session.stop()
    return Outcome(
        setup_s=statistics.median(boots),
        op_walls_s=cold_latencies,
        raw_op_walls_s=raw_cold,
        throughput_per_s=statistics.median(warm_rates),
        peak_rss_mb=rss,
        ops=ops,
        sim_digest=_sha256(*(json.dumps(result, sort_keys=True) for result in results)),
        info={
            "operation": "executing simulate request", "throughput_unit": "cache-hit requests",
            "warm_requests": len(warm_latencies),
            "warm_slices": len(warm_rates),
            "warm_rates": warm_rates,
            "warm_raw_rates": raw_rates,
            "warm_request_p50_raw_ms": statistics.median(warm_latencies) * 1e3,
            "server_counters": status["counters"],
        },
    )


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "fig10_cold": run_fig10_cold,
    "fig10_warm": run_fig10_warm,
    "trace_replay": run_trace_replay,
    "serve_mix": run_serve_mix,
}
