"""Persistent multiprocess worker pool with warm per-worker state.

Workers are forked once when the pool starts and stay resident between
requests, so everything a cold ``repro.cli`` invocation pays for on every
run is paid once per worker:

* the imported package and its warmed ``lru_cache`` state — most
  importantly :func:`repro.experiments.common._cached_trace`, which keeps
  recently-used experiment traces resident as lanes;
* the on-disk :class:`~repro.simulation.result_cache.SweepResultCache`
  (installed as the worker's ambient default, so figure runners memoize
  their per-item results) and the ``.strc`` trace cache.

Each worker is paired with the parent over its own duplex
:func:`multiprocessing.Pipe`.  A shared queue is deliberately avoided: a
worker killed while holding a shared queue's feeder lock wedges every
sibling, whereas a broken pipe is detected by exactly one
:meth:`WorkerPool.execute` call, which respawns that worker and reports
the loss to its caller alone.

:meth:`WorkerPool.execute` is thread-safe and blocking — the asyncio
front-end calls it from executor threads — and jobs queue implicitly:
a call blocks until a worker is idle.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro import _env, faults, obs
from repro.obs import trace
from repro.serve.protocol import (
    JOB_FAILED,
    TASK_TIMEOUT,
    TRACE_FIELD,
    WORKER_LOST,
    ProtocolError,
)
from repro.simulation.census import absorb_engine_path_counts, engine_path_counts


@dataclass(frozen=True)
class WorkerSettings:
    """Picklable worker configuration (survives spawn as well as fork)."""

    cache_dir: Optional[str] = None
    trace_cache: bool = True
    #: Raw ``REPRO_TRACE`` value captured at pool construction; exported
    #: into each worker's environment so sampling survives a spawn start
    #: (and anything the worker forks in turn inherits it).
    trace_mode: Optional[str] = None


def _worker_main(conn, index: int, settings: WorkerSettings) -> None:
    """Worker loop: receive a normalized spec, execute, send
    ``(ok, payload, engine_runs)`` — the job's engine-path census rides
    along because this process's metrics registry is invisible to the server.

    Runs until the shutdown sentinel (``None``) or EOF on the pipe.  SIGINT
    is ignored — a Ctrl-C in the foreground server delivers SIGINT to the
    whole process group, and shutdown must stay coordinated by the parent
    so results in flight are not lost.  SIGTERM is reset to its default:
    the fork may have inherited the server's asyncio signal handler (or a
    sweep's raising handler), and :meth:`WorkerPool.shutdown` must be able
    to terminate a wedged worker with a plain SIGTERM.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    from repro._env import export as export_env
    from repro.experiments.common import set_trace_cache
    from repro.serve import jobs
    from repro.simulation.result_cache import (
        CACHE_DIR_ENV,
        SweepResultCache,
        remove_temp_files,
        set_default_cache,
    )

    if settings.cache_dir:
        # The worker configures itself for its whole lifetime (inherited by
        # anything it forks in turn), so this is an export, not a scope.
        export_env(CACHE_DIR_ENV, settings.cache_dir)
    if settings.trace_mode is not None:
        export_env(trace.TRACE_ENV_VAR, settings.trace_mode)
    # Ambient per-item memoization for experiment-verb figure runs.
    set_default_cache(SweepResultCache())
    set_trace_cache(settings.trace_cache)

    while True:
        try:
            # Blocking by design: an idle worker has nothing to do but wait
            # for its next job, and the parent health-checks/terminates it.
            message = conn.recv()  # repro: ignore[ROB001] -- idle worker loop; the parent owns this worker's lifetime
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message is None:
            break
        # Per-request trace context rides the job message (workers fork
        # once, so the environment cannot carry per-request ids); popped
        # before execution so the spec stays exactly what was normalized.
        trace_ctx = trace.SpanContext.from_dict(message.pop(TRACE_FIELD, None))
        engine_before = engine_path_counts()
        try:
            faults.fire("pool.worker")
            with trace.activate(trace_ctx):
                with trace.span(
                    "worker.execute",
                    {"verb": message.get("verb"), "worker": index},
                    root=False,
                ):
                    result = jobs.execute_spec(message)
            ok, payload = True, result
        except Exception as exc:  # repro: ignore[EXC001] -- any job failure is reported to the caller; the warm worker must survive it
            ok, payload = False, f"{type(exc).__name__}: {exc}"
        engine_runs = engine_path_counts(since=engine_before)
        try:
            conn.send((ok, payload, engine_runs))
        except (OSError, ValueError, TypeError) as exc:
            # Unpicklable result or a vanished parent; report what we can.
            try:
                conn.send((False, f"could not return result: {exc}", engine_runs))
            except OSError:
                break
    remove_temp_files(pids={os.getpid()})  # this worker's own staging files, on clean exit
    conn.close()


class _WorkerHandle:
    """Parent-side record of one worker process and its pipe end."""

    def __init__(self, process, conn, index: int) -> None:
        self.process = process
        self.conn = conn
        self.index = index
        self.jobs_done = 0


class WorkerPool:
    """A fixed-size pool of persistent, warm simulation workers."""

    def __init__(
        self,
        workers: int = 2,
        cache_dir: Optional[str] = None,
        trace_cache: bool = True,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.num_workers = workers
        self.settings = WorkerSettings(
            cache_dir=str(cache_dir) if cache_dir else None,
            trace_cache=trace_cache,
            trace_mode=_env.read(trace.TRACE_ENV_VAR),
        )
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self._handles: Dict[int, _WorkerHandle] = {}
        self._idle: "queue.Queue[_WorkerHandle]" = queue.Queue()
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self.executed = 0
        self.failures = 0
        self.crashes = 0
        self.timeouts = 0
        self.idle_respawns = 0

    # ------------------------------------------------------------------ #
    def start(self) -> "WorkerPool":
        """Fork the workers.  Call before the server opens its socket, so
        children do not inherit listening descriptors."""
        if self._started:
            return self
        self._started = True
        # What a worker runs — the job registry, and with it the engine, the
        # workload generators and every prefetcher — is imported here, before
        # the fork, so no worker pays an import on its first request.
        from repro.serve import jobs  # noqa: F401

        for index in range(self.num_workers):
            self._spawn(index)
        return self

    def _spawn(self, index: int) -> None:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, index, self.settings),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps only its own end
        handle = _WorkerHandle(process, parent_conn, index)
        self._handles[index] = handle
        self._idle.put(handle)

    # ------------------------------------------------------------------ #
    def execute(
        self,
        spec: Mapping[str, Any],
        timeout: Optional[float] = None,
        task_timeout: Optional[float] = None,
    ) -> Any:
        """Run one normalized spec on an idle worker; blocks until done.

        Raises :class:`ProtocolError` with code 500 when the job raised,
        503 when the worker process died mid-job, and 504 when
        ``task_timeout`` (seconds) elapsed without a result — the hung
        worker is killed.  In the 503/504 cases the worker is respawned
        before the error is raised, so the pool never shrinks.
        """
        if not self._started or self._closed:
            raise RuntimeError("pool is not running")
        handle = self._checkout(timeout)
        try:
            handle.conn.send(dict(spec))
            if task_timeout is not None and not handle.conn.poll(task_timeout):
                # A wedged task never returns on its own; kill the worker
                # (SIGTERM would suffice for a sleeping task, but a spinning
                # one only dies to SIGKILL) and give the caller the
                # retryable deadline code.
                with self._lock:
                    self.timeouts += 1
                self._replace(handle, kill=True)
                raise ProtocolError(
                    TASK_TIMEOUT,
                    f"worker {handle.index} missed the {task_timeout}s task "
                    "deadline (killed and respawned)",
                )
            ok, payload, engine_runs = handle.conn.recv()  # repro: ignore[ROB001] -- guarded by conn.poll(task_timeout) above; without a deadline, blocking is the contract
        except (EOFError, OSError, BrokenPipeError) as exc:
            with self._lock:
                self.crashes += 1
            self._replace(handle)
            raise ProtocolError(
                WORKER_LOST,
                f"worker {handle.index} died while executing (respawned): {exc}",
            ) from exc
        handle.jobs_done += 1
        self._idle.put(handle)
        absorb_engine_path_counts(engine_runs)
        with self._lock:
            if ok:
                self.executed += 1
            else:
                self.failures += 1
        if not ok:
            raise ProtocolError(JOB_FAILED, str(payload))
        return payload

    def _checkout(self, timeout: Optional[float]) -> _WorkerHandle:
        """Take an idle worker, health-checking it before dispatch.

        A worker can die while idle (OOM kill, operator ``kill -9``); its
        handle still sits in the idle queue.  Without this check the next
        request would burn itself discovering the corpse (send succeeds
        into the pipe buffer, recv raises EOF → a needless 503).  Dead
        idle workers are respawned and the fresh worker is used instead.
        """
        while True:
            handle = self._idle.get(timeout=timeout)
            if handle.process.is_alive() and not handle.conn.closed:
                # An idle worker's pipe should be silent; readable means
                # EOF from a worker that died after is_alive() or stray
                # data — either way, not a worker to trust with a job.
                if not handle.conn.poll(0):
                    return handle
            with self._lock:
                self.idle_respawns += 1
            self._replace(handle)
            # _replace put the respawned worker on the idle queue; loop to
            # take it (or any other idle worker) with the same timeout.

    def _replace(self, handle: _WorkerHandle, kill: bool = False) -> None:
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.process.is_alive():
            if kill:
                handle.process.kill()
            else:
                handle.process.terminate()
        handle.process.join(timeout=1.0)
        if handle.process.is_alive():  # pragma: no cover - terminate ignored
            handle.process.kill()
            handle.process.join(timeout=1.0)
        if not self._closed:
            self._spawn(handle.index)
            obs.counter(
                "repro_serve_pool_respawns_total",
                "Workers respawned after a crash, kill, or idle death.",
            ).inc()

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            counters = {
                "executed": self.executed,
                "failures": self.failures,
                "crashes": self.crashes,
                "timeouts": self.timeouts,
                "idle_respawns": self.idle_respawns,
            }
        return {
            "workers": self.num_workers,
            "idle_workers": self._idle.qsize(),
            "jobs_per_worker": {
                str(index): handle.jobs_done for index, handle in sorted(self._handles.items())
            },
            **counters,
        }

    # ------------------------------------------------------------------ #
    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every worker and sweep temp cache files they may have left.

        Idle workers exit on the sentinel; busy or wedged ones are
        terminated (then killed) after ``timeout``.  Safe to call more than
        once.
        """
        if not self._started or self._closed:
            self._closed = True
            return
        self._closed = True
        worker_pids = {
            handle.process.pid
            for handle in self._handles.values()
            if handle.process.pid is not None
        }
        for handle in self._handles.values():
            try:
                handle.conn.send(None)
            except (OSError, BrokenPipeError, ValueError):
                pass
        for handle in self._handles.values():
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        # Killed workers cannot run their own cleanup; sweep both cache
        # directories for temp files those specific pids left behind
        # (atomic-write staging only — completed entries are never touched,
        # and other processes sharing the directory are not raced).
        from repro.simulation.result_cache import remove_temp_files

        remove_temp_files(
            Path(self.settings.cache_dir) if self.settings.cache_dir else None,
            pids=worker_pids | {os.getpid()},
        )

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
