"""Command-line interface.

Three subcommands cover the common workflows without writing any Python:

``simulate``
    Run one workload under a chosen prefetcher and print miss/coverage
    statistics and the estimated speedup over the no-prefetch baseline::

        python -m repro.cli simulate --workload oltp-db2 --prefetcher sms

``trace``
    Generate a synthetic workload trace and write it to a text trace file
    (readable by :func:`repro.trace.reader.read_trace`)::

        python -m repro.cli trace --workload sparse --output sparse.trace

``experiment``
    Regenerate one of the paper's figures/tables and print its rows.  Sweeps
    fan out over ``--workers`` processes, and per-task results are memoized
    in an on-disk cache (disable with ``--no-cache``) so repeated sweeps
    over the same configuration are nearly free::

        python -m repro.cli experiment --figure fig11 --scale 0.3

``convert``
    Convert a trace between the text and binary (``.strc``) formats, in
    either direction — the target format follows the output file name::

        python -m repro.cli convert --input sparse.trace --output sparse.strc.gz

``serve`` / ``submit``
    Run the persistent simulation service (warm worker pool, request
    coalescing — see :mod:`repro.serve`) and talk to it; ``--http PORT``
    attaches the observability gateway (``GET /metrics``, ``/healthz``,
    ``/status`` — see :mod:`repro.obs.gateway`)::

        python -m repro.cli serve --socket /tmp/repro.sock --workers 4 --http 9100
        python -m repro.cli submit --socket /tmp/repro.sock \
            --verb simulate --arg workload=oltp-db2 --arg cpus=2

``cache``
    Inspect or prune the on-disk sweep-result and trace caches::

        python -m repro.cli cache stats
        python -m repro.cli cache prune

``trace-report``
    Render one recorded span tree (``REPRO_TRACE=on``) as a text + SVG
    waterfall with critical path, slow-span table, and simulation-time
    telemetry (:mod:`repro.analysis.trace_report`)::

        python -m repro.cli trace-report            # newest trace file
        python -m repro.cli trace-report --json     # machine-readable tree
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

# Start-up is proportional to the command: everything beyond the argument
# parser's own needs is imported inside the ``_command_*`` that runs it.  The
# three imports below are data-only (names, the figure table, and factories
# that import their prefetcher's class or their figure's module when called).
from repro.figures import FIGURES, figure_module
from repro.prefetch.registry import PREFETCHER_CHOICES
from repro.workloads.names import APPLICATION_NAMES


def _nonnegative_int(value: str) -> int:
    workers = int(value)
    if workers < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {workers}")
    return workers


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {parsed}")
    return parsed


def build_parser() -> argparse.ArgumentParser:
    import repro

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spatial Memory Streaming (ISCA 2006) reproduction tools",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser("simulate", help="run one workload under a prefetcher")
    source = simulate.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", choices=APPLICATION_NAMES)
    source.add_argument("--trace", metavar="PATH",
                        help="simulate a trace file (text or .strc) instead of a "
                             "generated workload; binary traces decode straight into lanes")
    simulate.add_argument("--prefetcher", choices=sorted(PREFETCHER_CHOICES), default="sms")
    simulate.add_argument("--cpus", type=int, default=4)
    simulate.add_argument("--accesses-per-cpu", type=int, default=10_000)
    simulate.add_argument("--seed", type=int, default=1)

    trace = subparsers.add_parser("trace", help="generate a workload trace file")
    trace.add_argument("--workload", choices=APPLICATION_NAMES, required=True)
    trace.add_argument("--output", required=True)
    trace.add_argument("--cpus", type=int, default=4)
    trace.add_argument("--accesses-per-cpu", type=int, default=10_000)
    trace.add_argument("--seed", type=int, default=1)

    experiment = subparsers.add_parser("experiment", help="regenerate a paper figure/table")
    experiment.add_argument("--figure", choices=list(FIGURES), required=True)
    experiment.add_argument("--scale", type=float, default=0.5)
    experiment.add_argument("--cpus", type=int, default=4)
    experiment.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=None,
        help="fan the sweep out over N worker processes (default: serial)",
    )
    experiment.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every sweep task instead of reusing cached results",
    )
    experiment.add_argument(
        "--cache-dir",
        default=None,
        help="sweep result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-sms)",
    )
    experiment.add_argument(
        "--no-trace-cache",
        action="store_true",
        help="regenerate synthetic traces instead of replaying cached .strc files",
    )
    experiment.add_argument(
        "--max-retries",
        type=_nonnegative_int,
        default=0,
        help="re-execute a failing sweep point up to N times with exponential "
        "backoff (default: 0)",
    )

    convert = subparsers.add_parser(
        "convert", help="convert a trace between the text and binary formats"
    )
    convert.add_argument("--input", required=True, help="source trace (text or binary)")
    convert.add_argument(
        "--output",
        required=True,
        help="destination trace; .strc/.strc.gz selects the binary format",
    )

    serve = subparsers.add_parser(
        "serve", help="run the persistent simulation service (see repro.serve)"
    )
    _add_endpoint_arguments(serve)
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="persistent worker processes kept warm between requests",
    )
    serve.add_argument(
        "--max-queue",
        type=_positive_int,
        default=8,
        help="distinct in-flight jobs before requests get 'busy' replies",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="sweep/trace cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-sms)",
    )
    serve.add_argument(
        "--no-trace-cache",
        action="store_true",
        help="regenerate synthetic traces in workers instead of replaying cached .strc files",
    )
    serve.add_argument(
        "--max-retries",
        type=_nonnegative_int,
        default=2,
        help="retry a job whose worker crashed or timed out up to N times "
        "before reporting the failure",
    )
    serve.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-task deadline in seconds; a job past it gets its worker "
        "killed and is retried/reported as 504 (default: no deadline)",
    )
    serve.add_argument(
        "--quarantine-after",
        type=_positive_int,
        default=3,
        help="quarantine a job as a poison task (422, no more retries) after "
        "it kills or wedges workers this many times",
    )
    serve.add_argument(
        "--http",
        type=_nonnegative_int,
        default=None,
        metavar="PORT",
        help="also serve the HTTP observability gateway on this port "
        "(GET /metrics, /healthz, /status; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--http-host",
        default="127.0.0.1",
        help="bind address for the HTTP gateway (default: loopback only)",
    )

    submit = subparsers.add_parser(
        "submit", help="send one request to a running service and print the reply"
    )
    _add_endpoint_arguments(submit)
    submit.add_argument(
        "--verb",
        choices=["simulate", "sweep", "experiment", "status", "cache_stats"],
        help="request verb (or pass a full request with --request)",
    )
    submit.add_argument(
        "--arg",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="request parameter; VALUE is parsed as JSON when possible "
        "(repeatable, e.g. --arg workload=oltp-db2 --arg cpus=2)",
    )
    submit.add_argument(
        "--request", default=None, help="raw JSON request object (overrides --verb/--arg)"
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0, help="per-request socket timeout (seconds)"
    )
    submit.add_argument(
        "--retry-for",
        type=float,
        default=0.0,
        help="keep retrying the initial connection for this many seconds",
    )

    cache = subparsers.add_parser(
        "cache", help="inspect or prune the on-disk sweep/trace caches"
    )
    cache.add_argument("action", choices=["stats", "prune"])
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-sms)",
    )
    cache.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead of a table"
    )

    trace_report = subparsers.add_parser(
        "trace-report",
        help="render one recorded span tree as a waterfall "
        "(see repro.analysis.trace_report)",
    )
    trace_report.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="trace ndjson file (default: the newest trace-*.ndjson in the "
        "cache trace directory)",
    )
    trace_report.add_argument(
        "--out",
        default=None,
        help="output directory for trace_report.md and the SVGs "
        "(default: benchmarks/trace_report)",
    )
    trace_report.add_argument(
        "--json",
        action="store_true",
        help="print the span tree and telemetry as JSON to stdout "
        "instead of writing report files",
    )

    return parser


def _add_endpoint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket", default=None, help="Unix socket path (overrides --host/--port)"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=_nonnegative_int, default=8642)


# --------------------------------------------------------------------------- #
def _command_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.coverage import coverage_from_result
    from repro.analysis.reporting import ResultTable, format_percentage
    from repro.coherence.multiprocessor import CpuOutOfRangeError
    from repro.simulation.config import SimulationConfig
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.timing import TimingModel

    if args.trace:
        from repro.trace.reader import stream_trace

        # Trace files and generated workloads are both replayable streams;
        # the engine walks either as integer lanes (binary traces decode
        # straight into them, the rest transpose per chunk).
        workload = stream_trace(args.trace)
        try:
            # Sizes the warm-up phase: free from a .strc header, one counting
            # pass over a text trace (which carries no count).
            workload.count_records()
        except OSError as exc:
            print(f"error: cannot read trace {args.trace}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
        metadata = None
        source = workload.name
    else:
        from repro.workloads.suite import make_workload

        workload = make_workload(
            args.workload,
            num_cpus=args.cpus,
            accesses_per_cpu=args.accesses_per_cpu,
            seed=args.seed,
        )
        metadata = workload.metadata
        source = args.workload
    config = SimulationConfig.small(num_cpus=args.cpus)

    # The workload is a replayable stream: each run regenerates (or re-reads)
    # it lazily, so arbitrarily long traces are simulated without ever
    # materializing them.
    factory = PREFETCHER_CHOICES[args.prefetcher]()
    engine = SimulationEngine(config, factory, name=args.prefetcher)
    try:
        baseline = SimulationEngine(config, name="baseline").run(workload)
        result = engine.run(workload)
    except CpuOutOfRangeError as exc:
        print(
            f"error: {args.trace or source} holds a record for CPU {exc.cpu} but the simulated system "
            f"has {exc.num_cpus} CPUs; pass --cpus {exc.cpu + 1} (or more)",
            file=sys.stderr,
        )
        return 2
    baseline.workload = metadata
    result.workload = metadata

    table = ResultTable(
        title=(
            f"{source} under {args.prefetcher} "
            f"({result.accesses} accesses, {args.cpus} CPUs)"
        ),
        headers=["metric", "value"],
    )
    table.add_row("baseline L1 read misses", baseline.l1_read_misses)
    table.add_row("L1 read misses", result.l1_read_misses)
    table.add_row("baseline off-chip read misses", baseline.offchip_read_misses)
    table.add_row("off-chip read misses", result.offchip_read_misses)
    l1 = coverage_from_result(result, level="L1")
    l2 = coverage_from_result(result, level="L2")
    table.add_row("L1 coverage", format_percentage(l1.coverage))
    table.add_row("off-chip coverage", format_percentage(l2.coverage))
    table.add_row("overpredictions", format_percentage(l1.overprediction_fraction))
    speedup = TimingModel().speedup(baseline, result, metadata)
    table.add_row("estimated speedup", f"{speedup:.2f}x")
    print(table.to_text())
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.trace.reader import write_trace
    from repro.workloads.suite import make_workload

    workload = make_workload(
        args.workload, num_cpus=args.cpus, accesses_per_cpu=args.accesses_per_cpu, seed=args.seed
    )
    count = write_trace(args.output, workload)
    print(f"wrote {count} accesses to {args.output}")
    return 0


def _command_convert(args: argparse.Namespace) -> int:
    import os
    import time
    from pathlib import Path

    from repro.trace.reader import stream_trace, write_trace

    if Path(args.input).resolve() == Path(args.output).resolve():
        # write_trace truncates the output before the lazy reader ever runs,
        # so converting in place would destroy the source.
        print("error: --input and --output are the same file", file=sys.stderr)
        return 1
    out_path = Path(args.output)
    # Convert into a sibling temp file and move it into place only on
    # success, so a missing input or a malformed record mid-file never
    # destroys an existing output trace.  The temp name keeps the output's
    # suffixes (prefixed stem) so format/gzip detection is unchanged.
    tmp_path = out_path.with_name(f".tmp-{out_path.name}")
    start = time.perf_counter()  # repro: ignore[OBS002] -- the numeric delta feeds the user-facing records/s display, not a metric
    try:
        count = write_trace(tmp_path, stream_trace(args.input))
        os.replace(tmp_path, out_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if tmp_path.exists():
            tmp_path.unlink()
    elapsed = time.perf_counter() - start
    in_size = Path(args.input).stat().st_size
    out_size = out_path.stat().st_size
    rate = count / elapsed if elapsed > 0 else float("inf")
    print(
        f"converted {count} records in {elapsed:.2f}s ({rate:,.0f} records/s): "
        f"{args.input} ({in_size:,} B) -> {args.output} ({out_size:,} B)"
    )
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    # Only the requested figure's module: an all-hits run never loads the engine.
    figure = figure_module(args.figure)
    if args.figure == "tab01":
        system, applications = figure.run()
        print(system.to_text())
        print()
        print(applications.to_text())
        return 0

    from repro._env import scoped_env
    from repro.experiments import common as experiments_common
    from repro.simulation.census import engine_path_counts, format_engine_path_counts
    from repro.simulation.result_cache import CACHE_DIR_ENV, SweepResultCache, set_default_cache
    from repro.simulation.sweep import set_default_max_retries

    cache = None if args.no_cache else SweepResultCache(directory=args.cache_dir)
    previous = set_default_cache(cache)
    # The figure runner builds its own sweep runners, in this process.
    previous_retries = set_default_max_retries(args.max_retries)
    # Trace caching is on by default for CLI sweeps (--no-trace-cache to
    # disable); parallel sweep workers follow this process's switch.
    previous_trace = experiments_common.set_trace_cache(not args.no_trace_cache)
    engine_before = engine_path_counts()
    # The cache directory is exported for the (scoped, restored-on-exit)
    # run, so the trace cache, which reads it from the environment, writes
    # its .strc files next to this sweep's result cache.
    env_updates = {CACHE_DIR_ENV: str(args.cache_dir)} if args.cache_dir else {}
    try:
        with scoped_env(env_updates):
            table = figure.run(scale=args.scale, num_cpus=args.cpus, workers=args.workers)
    finally:
        set_default_cache(previous)
        set_default_max_retries(previous_retries)
        experiments_common.set_trace_cache(previous_trace)
    print(table.to_text())
    # Which engine loop the figure's runs took (pool workers report theirs
    # back to this process), so a reference-loop run shows on every invocation.
    engine_note = format_engine_path_counts(engine_path_counts(since=engine_before))
    if cache is not None:
        stats = cache.stats
        print(
            f"sweep cache: {stats.hits} hit(s), {stats.misses} miss(es), "
            f"{stats.stores} stored ({cache.directory}); {engine_note}"
        )
    else:
        print(engine_note)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # Importing the server imports ``repro.serve.jobs`` — the engine, the
    # workload generators and every prefetcher — before the pool forks, so
    # no worker pays an import on its first request.
    from repro.serve.pool import WorkerPool
    from repro.serve.server import SimulationServer
    from repro.simulation.result_cache import SweepResultCache

    pool = WorkerPool(
        workers=args.workers,
        cache_dir=args.cache_dir,
        trace_cache=not args.no_trace_cache,
    )
    server = SimulationServer(
        pool,
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        max_queue=args.max_queue,
        cache=SweepResultCache(directory=args.cache_dir),
        max_retries=args.max_retries,
        task_timeout=args.task_timeout,
        quarantine_after=args.quarantine_after,
        http_host=args.http_host,
        http_port=args.http,
    )
    http_note = (
        f", http gateway on {args.http_host}:{args.http}" if args.http is not None else ""
    )
    print(
        f"repro serve: listening on {server.address} "
        f"({args.workers} worker(s), max_queue={args.max_queue}, "
        f"cache {server.cache.directory}{http_note})",
        flush=True,
    )
    server.run()
    print("repro serve: shut down cleanly")
    return 0


def _parse_submit_args(pairs: List[str]) -> dict:
    import json

    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--arg expects KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value  # bare strings need no quoting
    return params


def _command_submit(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import ServeClient, ServeError

    if args.request is not None:
        try:
            payload = json.loads(args.request)
        except json.JSONDecodeError as exc:
            print(f"error: --request is not valid JSON: {exc}", file=sys.stderr)
            return 1
        if not isinstance(payload, dict):
            print("error: --request must be a JSON object", file=sys.stderr)
            return 1
    elif args.verb is not None:
        try:
            payload = {"verb": args.verb, **_parse_submit_args(args.arg)}
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        print("error: pass --verb or --request", file=sys.stderr)
        return 1

    import time

    from repro.serve.protocol import BUSY

    client = ServeClient(
        socket_path=args.socket, host=args.host, port=args.port, timeout=args.timeout
    )
    try:
        deadline = time.monotonic() + args.retry_for
        client.connect(retry_for=args.retry_for)
        try:
            # A busy (429) reply is explicit backpressure: retry with capped
            # exponential backoff while the --retry-for budget lasts, the
            # same budget that covered the initial connection race.
            delay = 0.05
            while True:
                reply = client.request_raw(payload)
                if reply.get("ok") or reply.get("code") != BUSY:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                time.sleep(min(delay, 2.0, remaining))
                delay = min(delay * 2, 2.0)
        finally:
            client.close()
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(reply, indent=2, sort_keys=True))
    return 0 if reply.get("ok") else 1


def _command_cache(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.reporting import ResultTable
    from repro.simulation.result_cache import cache_overview, prune_cache

    if args.action == "stats":
        overview = cache_overview(args.cache_dir)
        if args.json:
            print(json.dumps(overview, indent=2, sort_keys=True))
            return 0
        table = ResultTable(
            title=f"cache statistics ({overview['directory']})",
            headers=["cache", "entries", "bytes", "stale_entries", "stale_bytes", "temp_files"],
        )
        for name in ("sweep", "traces"):
            section = overview[name]
            table.add_row(
                name,
                section["entries"],
                section["bytes"],
                section["stale_entries"],
                section["stale_bytes"],
                section["temp_files"],
            )
        # Corrupt entries moved aside on read: neither stale nor staging.
        quarantine = overview["quarantine"]
        table.add_row("quarantine", quarantine["entries"], quarantine["bytes"], "-", "-", "-")
        print(table.to_text())
        return 0
    removed = prune_cache(args.cache_dir)
    if args.json:
        print(json.dumps(removed, indent=2, sort_keys=True))
        return 0
    print(
        f"pruned {removed['sweep_entries']} stale sweep entr(ies), "
        f"{removed['trace_entries']} stale trace(s), "
        f"{removed['temp_files']} temp file(s), "
        f"{removed['quarantined']} quarantined entr(ies)"
    )
    return 0


def _command_trace_report(args: argparse.Namespace) -> int:
    from repro.analysis import trace_report

    try:
        if args.json:
            from repro.obs import trace as obs_trace

            source = args.trace
            if source is None:
                candidates = obs_trace.list_trace_files()
                if not candidates:
                    raise FileNotFoundError(
                        f"no trace files under {obs_trace.trace_dir()} "
                        "(record one with REPRO_TRACE=on)"
                    )
                source = candidates[-1]
            spans, telemetry = trace_report.load_trace(source)
            roots = trace_report.build_tree(spans)
            print(trace_report.render_json_report(source, roots, telemetry))
            return 0
        paths = trace_report.write_report(trace_file=args.trace, out_dir=args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "simulate": _command_simulate,
    "trace": _command_trace,
    "experiment": _command_experiment,
    "convert": _command_convert,
    "serve": _command_serve,
    "submit": _command_submit,
    "cache": _command_cache,
    "trace-report": _command_trace_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
