"""Asyncio front-end of the simulation service.

One :class:`SimulationServer` owns a listening TCP or Unix stream socket,
a parent-side :class:`~repro.simulation.result_cache.SweepResultCache`
view, and a :class:`~repro.serve.pool.WorkerPool`.  Per request the flow
is:

1. **Validate** the decoded JSON against the verb registries
   (:func:`repro.serve.jobs.normalize`); malformed requests get a 400
   reply without touching the pool.
2. **Cache fast path** — the request's content digest (the same
   canonical-args + code-fingerprint key the sweep cache uses) is looked
   up in the on-disk result cache.  A warm repeat is answered directly by
   the front-end, on the event loop thread, marked ``"cached": true``,
   without entering the pool or any executor.
3. **Coalesce** — if an identical request is already executing, the new
   one awaits the same in-flight task and is marked ``"coalesced": true``;
   N concurrent identical requests cost exactly one execution.
4. **Backpressure** — if the number of distinct in-flight jobs has reached
   ``max_queue``, the request is refused with a 429 ``busy`` reply rather
   than queued without bound.
5. **Dispatch** — otherwise the job runs on the worker pool (via an
   executor thread, since pool calls block); the raw result is stored in
   the result cache by the front-end and jsonified for the wire.

Dispatched jobs are fault-tolerant: a worker crash (503) or missed
per-task deadline (504, when ``task_timeout`` is set) is retried up to
``max_retries`` times with exponential backoff before the error reaches
the client.  A job that kills or wedges workers on ``quarantine_after``
distinct dispatches is *quarantined* as a poison task: further identical
requests get an immediate 422 instead of taking down more workers — the
graceful-degradation contract that lets a driving sweep return partial
results plus a failure manifest instead of aborting.

What runs where.  The event loop thread validates, computes the digest,
probes the cache, coalesces, applies backpressure and writes the reply, so
all of that bookkeeping (and the cache's hit / miss tallies) has one
writer.  Exactly three calls leave it: the blocking pool call (dispatch
executor, one thread per possible in-flight job), and, on the default
executor, ``cache.put`` (stages and renames a file, once per executed job)
and the ``cache_stats`` verb (scans the cache directory).  In-flight tasks
are shielded from client disconnects: once started, a job always runs to
completion and its result is cached, so an impatient client cannot waste
the work of the patient ones coalesced behind it.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import time
from typing import Any, Dict, Mapping, Optional

from repro import obs
from repro.obs import trace
from repro.obs.gateway import MetricsGateway
from repro.serve import jobs
from repro.serve.protocol import (
    BUSY,
    MAX_LINE,
    POISONED,
    TASK_TIMEOUT,
    TRACE_FIELD,
    WORKER_LOST,
    ProtocolError,
    decode_line,
    encode,
    error_response,
    ok_response,
)
from repro.serve.pool import WorkerPool
from repro.simulation.census import engine_path_counts
from repro.simulation.result_cache import SweepResultCache


class SimulationServer:
    """Long-lived ndjson simulation service over TCP or a Unix socket."""

    def __init__(
        self,
        pool: WorkerPool,
        host: str = "127.0.0.1",
        port: int = 8642,
        socket_path: Optional[str] = None,
        max_queue: int = 8,
        cache: Optional[SweepResultCache] = None,
        max_retries: int = 2,
        task_timeout: Optional[float] = None,
        retry_backoff: float = 0.1,
        quarantine_after: int = 3,
        http_host: str = "127.0.0.1",
        http_port: Optional[int] = None,
    ) -> None:
        if max_queue <= 0:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {max_retries}")
        if quarantine_after < 1:
            raise ValueError(f"quarantine_after must be positive, got {quarantine_after}")
        self.pool = pool
        self.host = host
        self.port = port
        self.socket_path = str(socket_path) if socket_path else None
        self.max_queue = max_queue
        self.cache = cache if cache is not None else SweepResultCache()
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.retry_backoff = retry_backoff
        self.quarantine_after = quarantine_after
        self.counters: Dict[str, int] = {
            "requests": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "executed": 0,
            "busy_rejections": 0,
            "errors": 0,
            "retries": 0,
            "quarantined": 0,
        }
        # Poison-task tracking: per-digest count of worker-lost/timeout
        # failures (500s are deterministic job errors and do not count),
        # and the set of digests quarantined once that count reaches
        # quarantine_after.  Both live on the event-loop thread.
        self._failure_counts: Dict[str, int] = {}
        self._quarantined: set = set()
        # asyncio primitives are created inside the running loop (start()),
        # not here: on Python 3.9 building them without a loop is an error.
        self._server: Optional[asyncio.AbstractServer] = None
        self._inflight: Dict[str, "asyncio.Task[Any]"] = {}
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._started_at = 0.0
        # The census is per process; ``status`` reports this server's share.
        self._engine_before = engine_path_counts()
        # Observability: the per-verb families are bound now (against the
        # registry active at construction) so every request costs two O(1)
        # child lookups.  Levels and outcome tallies live in ``status()``.
        self.gateway: Optional[MetricsGateway] = (
            MetricsGateway(host=http_host, port=http_port, status_provider=self.status)
            if http_port is not None
            else None
        )
        self._m_requests = obs.counter(
            "repro_serve_requests_total",
            "ndjson requests received, by verb (invalid = unparseable).",
            labels=("verb",),
        )
        self._m_latency = obs.histogram(
            "repro_serve_request_seconds",
            "Request service latency from receipt to reply-ready, by verb.",
            labels=("verb",),
        )

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        if self.socket_path:
            return f"unix:{self.socket_path}"
        return f"tcp:{self.host}:{self.port}"

    async def start(self) -> None:
        """Fork the pool (if needed) and open the listening socket."""
        self.pool.start()
        # One executor thread per possible in-flight job: every dispatched
        # job parks one thread on the blocking pool call.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_queue, thread_name_prefix="repro-serve-dispatch"
        )
        self._started_at = time.monotonic()
        if self.socket_path:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)  # stale socket from a dead server
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.socket_path, limit=MAX_LINE
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port, limit=MAX_LINE
            )
            # Reflect an ephemeral port (port=0) back for clients/tests.
            sockets = self._server.sockets or []
            if sockets:
                self.port = sockets[0].getsockname()[1]
        if self.gateway is not None:
            await self.gateway.start()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the socket, drain in-flight jobs, stop the pool."""
        if self.gateway is not None:
            await self.gateway.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        inflight = list(self._inflight.values())
        if inflight:
            await asyncio.gather(*inflight, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.pool.shutdown()
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        pending = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # line longer than MAX_LINE
                    await self._reply(
                        writer, write_lock,
                        error_response(400, f"request line exceeds {MAX_LINE} bytes"),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # Each request is processed as its own task so several
                # requests on one connection — and across connections —
                # can coalesce and complete out of order.
                task = asyncio.ensure_future(
                    self._process_request(line, writer, write_lock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        except asyncio.CancelledError:
            # Loop shutdown while parked on readline; in-flight jobs are
            # drained by stop(), so the connection just goes away quietly.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _reply(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, payload: Mapping
    ) -> None:
        async with write_lock:
            try:
                writer.write(encode(payload))
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; the job (if any) still completes

    async def _process_request(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        self.counters["requests"] += 1
        started = time.perf_counter()  # repro: ignore[OBS002] -- the verb label is unknown until the line parses; the delta feeds the obs histogram below
        verb = "invalid"
        request_id = None
        trace_payload = None
        try:
            request = decode_line(line)
            request_id = request.get("id")
            trace_payload = request.get(TRACE_FIELD)
            trace_ctx = trace.SpanContext.from_dict(trace_payload)
            spec = jobs.normalize(request)
            verb = spec["verb"]
            # The request span lives on the event loop across awaits, so it
            # must not join the thread-ambient stack (attach=False); child
            # work gets the context explicitly.  root=False: the server
            # only records when a client propagated a trace.
            with trace.span("serve.request", {"verb": verb}, parent=trace_ctx,
                            attach=False, root=False) as sp:
                if verb == "status":
                    reply = ok_response(self.status(), request_id)
                elif verb == "cache_stats":
                    # The directory scan stats the whole cache; keep it off
                    # the loop thread (default executor: the dispatch
                    # executor's threads may all be parked on pool calls).
                    overview = await asyncio.get_running_loop().run_in_executor(
                        None, self.cache_stats
                    )
                    reply = ok_response(overview, request_id)
                else:
                    raw, cached, coalesced = await self._dispatch(spec, sp.context)
                    sp.set("cached", cached)
                    sp.set("coalesced", coalesced)
                    reply = ok_response(
                        jobs.jsonify(raw), request_id, cached=cached, coalesced=coalesced
                    )
        except ProtocolError as exc:
            if exc.code == BUSY:
                self.counters["busy_rejections"] += 1
            else:
                self.counters["errors"] += 1
            reply = error_response(exc.code, exc.message, request_id)
        except Exception as exc:  # repro: ignore[EXC001] -- service boundary: an error reply beats a hung client
            self.counters["errors"] += 1
            reply = error_response(500, f"{type(exc).__name__}: {exc}", request_id)
        if trace_payload is not None:
            reply[TRACE_FIELD] = trace_payload  # echoed for client correlation
        self._m_requests.labels(verb).inc()
        self._m_latency.labels(verb).observe(time.perf_counter() - started)
        await self._reply(writer, write_lock, reply)

    # ------------------------------------------------------------------ #
    async def _dispatch(
        self, spec: Mapping[str, Any], ctx: Optional[trace.SpanContext] = None
    ):
        """Serve one pool-verb spec; returns ``(raw_result, cached, coalesced)``."""
        digest = jobs.digest_for(spec, self.cache)
        if digest is not None and digest in self._quarantined:
            raise ProtocolError(
                POISONED,
                f"job quarantined after {self.quarantine_after} worker-fatal "
                "attempts; not retrying",
            )
        if digest is not None:
            # The probe runs here, on the loop thread: one small file read and
            # a checksum + unpickle of a few hundred bytes (the figures' sweep
            # entries measure 121-424 B, a simulate result 285 B, the largest
            # experiment table 2,359 B;
            # tests/test_serve_jobs.py::test_cacheable_results_are_small holds
            # every verb under 16 KiB) costs less than the thread hop it would
            # take to move it.  With no await between here and the _inflight
            # registration below, probe, coalescing check and registration
            # are one uninterrupted section, and cache.stats.hits / misses
            # have a single writer.
            hit, value = self._with_trace(ctx, self.cache.get, digest)
            if hit:
                self.counters["cache_hits"] += 1
                return value, True, False
            running = self._inflight.get(digest)
            if running is not None:
                self.counters["coalesced"] += 1
                # shield: a coalesced client disconnecting must not cancel
                # the shared execution.
                return await asyncio.shield(running), False, True
        if len(self._inflight) >= self.max_queue:
            raise ProtocolError(
                BUSY,
                f"busy: {len(self._inflight)} job(s) in flight (max_queue={self.max_queue})",
            )
        task = asyncio.ensure_future(self._execute(spec, digest, ctx))
        if digest is not None:
            self._inflight[digest] = task
        return await asyncio.shield(task), False, False

    def _with_trace(self, ctx: Optional[trace.SpanContext], fn, *args) -> Any:
        """Run ``fn`` under the request's trace context on the calling thread
        (the loop thread for the probe, an executor thread for the store), so
        spans created inside (cache get/put) nest under the request."""
        with trace.activate(ctx):
            return fn(*args)

    def _pool_call(
        self, ctx: Optional[trace.SpanContext], spec: Dict[str, Any], attempt: int
    ) -> Any:
        """One blocking pool dispatch, wrapped in a ``serve.execute`` span
        whose context rides to the worker beside the job's task."""
        with trace.span("serve.execute", {"verb": spec.get("verb"), "attempt": attempt},
                        parent=ctx, attach=False, root=False) as sp:
            if sp.recording:
                spec[TRACE_FIELD] = sp.context.as_dict()
            return self.pool.execute(spec, task_timeout=self.task_timeout)

    async def _execute(
        self,
        spec: Mapping[str, Any],
        digest: Optional[str],
        ctx: Optional[trace.SpanContext] = None,
    ) -> Any:
        loop = asyncio.get_running_loop()
        try:
            raw = await self._execute_with_retries(loop, spec, digest, ctx)
            self.counters["executed"] += 1
            if digest is not None:
                # The front-end stores the raw result (same convention as
                # SweepRunner: the parent writes, workers never do), so the
                # entry is shared with command-line sweeps.  The pickle dump
                # runs off-loop; the job stays in _inflight until the entry
                # is durable, so an identical request arriving meanwhile
                # coalesces instead of re-executing.
                await loop.run_in_executor(
                    None, self._with_trace, ctx, self.cache.put, digest, raw
                )
            return raw
        finally:
            if digest is not None:
                self._inflight.pop(digest, None)

    async def _execute_with_retries(
        self,
        loop: asyncio.AbstractEventLoop,
        spec: Mapping[str, Any],
        digest: Optional[str],
        ctx: Optional[trace.SpanContext] = None,
    ) -> Any:
        """Run the blocking pool call, absorbing transient worker faults.

        Worker-lost (503) and deadline (504) failures are retried up to
        ``max_retries`` times with exponential backoff; each such failure
        also counts toward the digest's poison score, and a digest that
        reaches ``quarantine_after`` worker-fatal attempts is quarantined —
        the current request, and every later identical one, gets 422.
        Deterministic job errors (500) pass straight through: a task that
        raises cleanly will raise again, so retrying it is pure waste.
        """
        attempts = 0
        while True:
            attempts += 1
            try:
                return await loop.run_in_executor(
                    self._executor,
                    lambda attempt=attempts: self._pool_call(ctx, dict(spec), attempt),
                )
            except ProtocolError as exc:
                if exc.code not in (WORKER_LOST, TASK_TIMEOUT):
                    raise
                if digest is not None:
                    count = self._failure_counts.get(digest, 0) + 1
                    self._failure_counts[digest] = count
                    if count >= self.quarantine_after:
                        self._quarantined.add(digest)
                        self.counters["quarantined"] += 1
                        raise ProtocolError(
                            POISONED,
                            f"job quarantined after {count} worker-fatal attempts "
                            f"(last: {exc.message})",
                        ) from exc
                if attempts > self.max_retries:
                    raise
                self.counters["retries"] += 1
                await asyncio.sleep(self.retry_backoff * (2 ** (attempts - 1)))

    # ------------------------------------------------------------------ #
    def status(self) -> Dict[str, Any]:
        cache_stats = self.cache.stats.as_dict()
        lookups = cache_stats["hits"] + cache_stats["misses"]
        cache_stats["hit_ratio"] = (
            round(cache_stats["hits"] / lookups, 6) if lookups else None
        )
        return {
            "address": self.address,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "max_queue": self.max_queue,
            "inflight": len(self._inflight),
            "max_retries": self.max_retries,
            "task_timeout": self.task_timeout,
            "quarantine_after": self.quarantine_after,
            "quarantined_jobs": len(self._quarantined),
            "counters": dict(self.counters),
            "cache": cache_stats,
            # Engine runs by path, as the pool workers reported them with
            # each job: how many took the lane loop, how many fell back, why.
            "engine": engine_path_counts(since=self._engine_before),
            "pool": self.pool.stats(),
            "http": self.gateway.address if self.gateway is not None else None,
        }

    def cache_stats(self) -> Dict[str, Any]:
        from repro.simulation.result_cache import cache_overview

        overview = cache_overview(self.cache.directory)
        overview["server_cache"] = self.cache.stats.as_dict()
        return overview

    # ------------------------------------------------------------------ #
    def run(self) -> None:
        """Blocking entry point: serve until SIGINT/SIGTERM, then shut down
        gracefully (drain in-flight jobs, stop workers, remove the socket)."""
        asyncio.run(self._run_until_signal())

    async def _run_until_signal(self) -> None:
        import signal as _signal

        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        for signum in (_signal.SIGINT, _signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                _signal.signal(signum, lambda *_: stop_event.set())
        await self.start()
        try:
            await stop_event.wait()
        finally:
            await self.stop()
