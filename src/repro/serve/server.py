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
   up in the result cache.  A warm repeat is answered directly by the
   front-end, on the event loop thread, marked ``"cached": true``,
   without entering the pool or any executor.  A request this server
   already answered from an entry the cache verified is sent as the
   encoded result it was sent as then: no digest, file or unpickle.
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
writer.  Each line is decoded, validated and probed exactly once, in a
pass that does not await: a cache hit, ``status`` and every 4xx/5xx the
front-end decides itself are answered in that pass, with no task of their
own.  Only pool work and ``cache_stats`` continue in an async tail.  The write lock and ``drain()`` are taken only when the
transport's buffer is backed up.  Exactly three calls leave the loop
thread: the blocking pool call (dispatch executor, one thread per possible
in-flight job), and, on the default executor, ``cache.put`` (stages and
renames a file, once per executed job) and the ``cache_stats`` verb (scans
the cache directory).  As repeats are answered from what was sent
before, ``repro.cli cache prune`` and quarantine of an entry the server
already answered take effect in the next process.  In-flight tasks are
shielded from client disconnects: once started, a job always runs to
completion and its result is cached, so an impatient client cannot waste
the work of the patient ones coalesced behind it.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import os
import time
from typing import Any, Awaitable, Dict, Mapping, Optional, Tuple, Union

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
    cached_reply,
    decode_line,
    encode,
    error_response,
    ok_response,
)
from repro.serve.pool import WorkerPool
from repro.simulation.census import engine_path_counts
from repro.simulation.result_cache import SweepResultCache

#: Seconds before the first retry of a job whose worker was lost; each
#: further retry of the same job waits twice as long.
RETRY_BACKOFF = 0.1

#: Requests one server remembers the answered result of, so a repeat skips
#: the digest, the file and the encoding; past this many the one answered
#: first is dropped.  Served results are summaries (under 16 KiB each).
ANSWERED_REPLIES = 256


class _Request:
    """Bookkeeping of one request line, from receipt to its written reply."""

    __slots__ = ("started", "id", "trace", "verb", "span")

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.id: Any = None
        self.trace: Any = None
        self.verb = "invalid"
        self.span: Any = None


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
        # Normalized spec (built in a fixed key order; the code fingerprint
        # is fixed for the process) -> (digest, result JSON) of each request
        # answered from a verified entry.  Loop thread only.
        self._answered: Dict[tuple, Tuple[str, str]] = {}
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
                    writer.write(encode(
                        error_response(400, f"request line exceeds {MAX_LINE} bytes")
                    ))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # Only pool work and cache_stats come back as a tail, run as
                # its own task so several requests on one connection — and
                # across connections — can coalesce and complete out of order.
                tail = self._answer(line, writer, write_lock)
                if tail is not None:
                    task = asyncio.ensure_future(tail)
                    pending.add(task)
                    task.add_done_callback(pending.discard)
                if writer.transport.get_write_buffer_size():
                    await self._drain(writer, write_lock)
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

    @staticmethod
    async def _drain(writer: asyncio.StreamWriter, write_lock: asyncio.Lock) -> None:
        """Wait out a backed-up transport buffer, one drainer at a time."""
        async with write_lock:
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; the job (if any) still completes

    def _answer(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> Optional[Awaitable[None]]:
        """Front half of one request line, run without an await.

        Decodes, validates and probes the line exactly once.  A
        cache hit, ``status`` and every error the front-end decides itself
        are replied to here and ``None`` is returned; pool work (a miss, or
        one coalesced onto an identical in-flight job) and ``cache_stats``
        return the async tail that awaits it and writes the reply.
        """
        self.counters["requests"] += 1
        request = _Request()
        try:
            payload = decode_line(line)
            request.id = payload.get("id")
            request.trace = payload.get(TRACE_FIELD)
            trace_ctx = trace.SpanContext.from_dict(request.trace)
            spec = jobs.normalize(payload)
            verb = request.verb = spec["verb"]
            # The request span stays open across the tail's awaits, so it
            # must not join the thread-ambient stack (attach=False); child
            # work gets the context explicitly.  root=False: the server
            # only records when a client propagated a trace.
            sp = request.span = trace.span(
                "serve.request", {"verb": verb}, parent=trace_ctx, attach=False, root=False
            ).__enter__()
            if verb == "status":
                reply = ok_response(self.status(), request.id)
            elif verb == "cache_stats":
                # The directory scan stats the whole cache; keep it off
                # the loop thread (default executor: the dispatch
                # executor's threads may all be parked on pool calls).
                scan = asyncio.get_running_loop().run_in_executor(None, self.cache_stats)
                return self._reply_when_done(request, scan, False, writer, write_lock)
            else:
                digest, result = self._probe(spec, sp.context)
                sp.set("cached", result is not None)
                if result is None:
                    job, coalesced = self._dispatch(spec, digest, sp.context)
                    sp.set("coalesced", coalesced)
                    return self._reply_when_done(request, job, coalesced, writer, write_lock)
                sp.set("coalesced", False)
                reply = cached_reply(result, request.id, request.trace)
        except Exception as exc:  # repro: ignore[EXC001] -- service boundary: an error reply beats a hung client
            self._finish(request, self._error_reply(exc, request.id), writer, exc)
            return None
        self._finish(request, reply, writer)
        return None

    async def _reply_when_done(
        self,
        request: "_Request",
        job: "asyncio.Future[Any]",
        coalesced: bool,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        """Async tail: await a pool job (or the cache_stats scan) and reply."""
        exc = None
        try:
            # shield: a client disconnecting must not cancel an execution
            # that coalesced requests share.
            raw = await asyncio.shield(job)
            reply = ok_response(jobs.jsonify(raw), request.id, coalesced=coalesced)
        except Exception as error:  # repro: ignore[EXC001] -- service boundary: an error reply beats a hung client
            exc = error
            reply = self._error_reply(error, request.id)
        self._finish(request, reply, writer, exc)
        if writer.transport.get_write_buffer_size():
            await self._drain(writer, write_lock)

    def _error_reply(self, exc: Exception, request_id: Any) -> dict:
        if not isinstance(exc, ProtocolError):
            self.counters["errors"] += 1
            return error_response(500, f"{type(exc).__name__}: {exc}", request_id)
        if exc.code == BUSY:
            self.counters["busy_rejections"] += 1
        else:
            self.counters["errors"] += 1
        return error_response(exc.code, exc.message, request_id)

    def _finish(
        self,
        request: "_Request",
        reply: Union[dict, bytes],
        writer: asyncio.StreamWriter,
        exc: Optional[Exception] = None,
    ) -> None:
        """Close the request's span, count it and write its reply line.

        ``reply`` is a reply object, or a cache hit's finished line.  The
        write only buffers; whoever calls this drains when the transport's
        buffer is backed up.
        """
        if isinstance(reply, dict):
            if request.trace is not None:
                reply[TRACE_FIELD] = request.trace  # echoed for client correlation
            reply = encode(reply)
        if request.span is not None:
            request.span.__exit__(None if exc is None else type(exc), exc, None)
        self._m_requests.labels(request.verb).inc()
        # The verb label is unknown until the line parses, so the latency is
        # a raw clock delta fed to the obs histogram rather than a span.
        self._m_latency.labels(request.verb).observe(time.perf_counter() - request.started)
        writer.write(reply)

    # ------------------------------------------------------------------ #
    def _probe(
        self, spec: Mapping[str, Any], ctx: Optional[trace.SpanContext]
    ) -> Tuple[Optional[str], Optional[str]]:
        """Digest a pool-verb spec and look it up in the result cache, once.

        Returns ``(digest, result JSON)``, the result ``None`` on a miss;
        ``digest`` is ``None`` for a request with no stable key, which
        always misses.  A spec this server answered before is neither
        digested nor read again: its hit is counted as the cache counts one.
        """
        key = tuple(spec.items())
        answered = self._answered.get(key)
        digest = answered[0] if answered else jobs.digest_for(spec, self.cache)
        if digest is None:
            return None, None
        if digest in self._quarantined:
            raise ProtocolError(
                POISONED,
                f"job quarantined after {self.quarantine_after} worker-fatal "
                "attempts; not retrying",
            )
        if answered:
            result = answered[1]
            self.cache.count_hit()
        else:
            # The read runs here, on the loop thread: one small file read
            # plus a checksum and unpickle (a simulate result is 285 B, the
            # largest experiment table 2,359 B; test_cacheable_results_are_small
            # holds every verb under 16 KiB) costs less than a thread hop,
            # and the hit / miss tallies keep a single writer.  Only a
            # verified read fills the map, never an execution's put.
            hit, raw = self._with_trace(ctx, self.cache.get, digest)
            if not hit:
                return digest, None
            result = json.dumps(jobs.jsonify(raw), sort_keys=True)
            if len(self._answered) >= ANSWERED_REPLIES:
                del self._answered[next(iter(self._answered))]
            self._answered[key] = digest, result
        self.counters["cache_hits"] += 1
        return digest, result

    def _dispatch(
        self,
        spec: Mapping[str, Any],
        digest: Optional[str],
        ctx: Optional[trace.SpanContext] = None,
    ) -> Tuple["asyncio.Future[Any]", bool]:
        """Route a probed miss to the pool; returns ``(job, coalesced)``.

        Called by the front half straight after :meth:`_probe`.  With no
        await between the probe and the ``_inflight`` registration below,
        probe, coalescing check and registration are one uninterrupted
        section: an identical request read meanwhile coalesces.
        """
        if digest is not None:
            running = self._inflight.get(digest)
            if running is not None:
                self.counters["coalesced"] += 1
                return running, True
        if len(self._inflight) >= self.max_queue:
            raise ProtocolError(
                BUSY,
                f"busy: {len(self._inflight)} job(s) in flight (max_queue={self.max_queue})",
            )
        task = asyncio.ensure_future(self._execute(spec, digest, ctx))
        if digest is not None:
            self._inflight[digest] = task
        return task, False

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
                # sweep_map: the parent writes, workers never do), so the
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
                await asyncio.sleep(RETRY_BACKOFF * (2 ** (attempts - 1)))

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
