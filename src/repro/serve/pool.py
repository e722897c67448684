"""The package's one process pool, shared by parallel sweeps and the service.

Workers are forked when the pool starts and stay resident until it shuts
down.  ``repro.cli serve`` keeps one pool for its whole life, so what a cold
``repro.cli`` invocation pays on every run is paid once per worker: the
imported package, warmed ``lru_cache`` state (above all
:func:`repro.experiments.common._cached_trace`, recent traces as lanes), the
ambient :class:`~repro.simulation.result_cache.SweepResultCache` and the
``.strc`` trace cache.  A parallel :func:`~repro.simulation.sweep.sweep_map`
starts a short-lived pool for the pending points of one sweep.

The unit of work is a :class:`~repro.simulation.sweep.SweepTask`.  A worker
that dies mid-task, or misses its deadline and is killed, is respawned and
its caller gets a 503 / 504 :class:`ProtocolError`; what follows is the
caller's policy (the sweep runs the point in the parent, the server retries
and quarantines).  Each worker has its own duplex :func:`multiprocessing.Pipe`
rather than a shared queue: a worker killed while holding a shared queue's
feeder lock wedges every sibling, whereas a broken pipe is seen by exactly
one caller.  :meth:`WorkerPool.run` is thread-safe and blocking (both owners
call it from their own threads); a call waits until a worker is idle.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import signal
import threading
import time
from pathlib import Path
from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple

from repro import _env, faults
from repro.obs import trace
from repro.serve.protocol import (
    JOB_FAILED,
    TASK_TIMEOUT,
    TRACE_FIELD,
    WORKER_LOST,
    ProtocolError,
)
from repro.simulation.census import absorb_engine_path_counts, engine_path_counts
from repro.simulation.sweep import SweepTask

#: What pickling an object that cannot cross a pipe raises (a lambda, a
#: closure, a lock).  It happens before the first byte is written, so the
#: pipe stays usable.
UNPICKLABLE = (pickle.PicklingError, TypeError, AttributeError)


class WorkerSettings(NamedTuple):
    """Picklable worker configuration (survives spawn as well as fork)."""

    cache_dir: Optional[str] = None
    trace_cache: bool = True
    #: Raw ``REPRO_TRACE`` value captured at pool construction; exported
    #: into each worker's environment so sampling survives a spawn start
    #: (and anything the worker forks in turn inherits it).
    trace_mode: Optional[str] = None


def _worker_main(conn, index: int, settings: WorkerSettings) -> None:
    """Worker loop: receive ``(task, trace context)``, execute, send
    ``(ok, result or exception, engine_runs)`` — the task's engine-path
    census rides along because this process's metrics registry is
    invisible to the parent.  Runs until the ``None`` sentinel or EOF.

    SIGINT is ignored: a Ctrl-C reaches the whole process group, and
    shutdown stays coordinated by the parent.  SIGTERM is reset to its
    default — the fork may have inherited the server's asyncio handler or a
    sweep's raising one — so :meth:`WorkerPool.shutdown` can terminate a
    wedged worker.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    from repro._env import export as export_env
    from repro.experiments.common import set_trace_cache
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
        # The per-request trace context rides beside the task (workers fork
        # once, so the environment cannot carry per-request ids).
        task, trace_fields = message
        engine_before = engine_path_counts()
        try:
            faults.fire("pool.worker")
            with trace.activate(trace.SpanContext.from_dict(trace_fields)):
                with trace.span(
                    "worker.execute", {"key": str(task.key), "worker": index}, root=False,
                ):
                    ok, value = True, task.execute()
        except Exception as exc:  # repro: ignore[EXC001] -- returned to the caller, whose policy handles it; the worker must survive it
            ok, value = False, exc
        engine_runs = engine_path_counts(since=engine_before)
        try:
            conn.send((ok, value, engine_runs))
        except (OSError, ValueError, *UNPICKLABLE) as exc:
            # Unpicklable result or a vanished parent; report what we can.
            try:
                conn.send((False, RuntimeError(f"could not return result: {exc}"), engine_runs))
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
        self._idle: "queue.Queue[Optional[_WorkerHandle]]" = queue.Queue()
        #: Guards the counters, and orders respawns against shutdown so a
        #: worker is never forked after the pool has stopped its siblings.
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
        """Start worker ``index`` and park it on the idle queue — the
        package's one place that starts a worker process."""
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, index, self.settings),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps only its own end
        handle = _WorkerHandle(process, parent_conn, index)
        self._handles[index] = handle
        self._idle.put(handle)

    # ------------------------------------------------------------------ #
    def run(
        self,
        task: SweepTask,
        timeout: Optional[float] = None,
        task_timeout: Optional[float] = None,
        trace_context: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[bool, Any]:
        """Run ``task`` on an idle worker; return ``(True, result)``, or
        ``(False, exception)`` when the task raised.

        ``timeout`` bounds the wait for an idle worker (``queue.Empty``).
        Raises :class:`ProtocolError` 503 when the worker died mid-task (or
        the pool shut down under it) and 504 when ``task_timeout`` seconds
        passed without a result; a lost worker is respawned first, so the
        pool never shrinks.  A task that does not pickle raises the pickling
        error, and its worker stays idle.
        """
        if not self._started or self._closed:
            raise RuntimeError("pool is not running")
        handle = self._checkout(timeout)
        try:
            handle.conn.send((task, trace_context))
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
            ok, value, engine_runs = handle.conn.recv()  # repro: ignore[ROB001] -- guarded by conn.poll(task_timeout) above; without a deadline, blocking is the contract
        except UNPICKLABLE:
            # (Un)pickling happens off the wire, so the pipe is still in step.
            self._idle.put(handle)
            raise
        except (EOFError, OSError) as exc:
            if self._closed:
                raise ProtocolError(
                    WORKER_LOST, f"pool shut down while worker {handle.index} was executing"
                ) from exc
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
        return ok, value

    def execute(
        self,
        spec: Mapping[str, Any],
        timeout: Optional[float] = None,
        task_timeout: Optional[float] = None,
    ) -> Any:
        """The service's entry point: :meth:`run` the job of a normalized
        spec (its ``trace`` field becomes the trace context); a job that
        raised is a 500 :class:`ProtocolError`."""
        from repro.serve import jobs

        try:
            task = jobs.job_for(spec)
        except (KeyError, ValueError) as exc:  # a spec with no pool job
            ok, value = False, exc
        else:
            ok, value = self.run(task, timeout, task_timeout, spec.get(TRACE_FIELD))
        with self._lock:
            if ok:
                self.executed += 1
            else:
                self.failures += 1
        if not ok:
            raise ProtocolError(JOB_FAILED, f"{type(value).__name__}: {value}")
        return value

    def _checkout(self, timeout: Optional[float]) -> _WorkerHandle:
        """Take an idle worker, health-checking it before dispatch.

        A worker that died while idle (OOM kill, ``kill -9``) is respawned
        here, instead of burning the next request on a needless 503.
        """
        while True:
            handle = self._idle.get(timeout=timeout)
            if handle is None:
                # Shutdown's wake-up call: pass it on to the next waiter.
                self._idle.put(None)
                raise RuntimeError("pool is not running")
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
        with self._lock:
            if self._closed:
                return
            self._spawn(handle.index)

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

        Idle workers exit on the sentinel.  Busy or wedged ones get until
        ``timeout`` seconds from now — one deadline for the whole pool — and
        are then terminated (then killed); their callers get a 503 saying
        the pool shut down.  Safe to call more than once.
        """
        with self._lock:
            if self._closed or not self._started:
                self._closed = True
                return
            self._closed = True
            handles = list(self._handles.values())
        for handle in handles:
            try:
                handle.conn.send(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout
        for handle in handles:
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for handle in handles:
            if handle.process.is_alive():
                handle.process.terminate()
        for handle in handles:
            handle.process.join(timeout=1.0)
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._idle.put(None)  # wakes any caller still waiting for a worker
        # Killed workers cannot run their own cleanup; sweep both cache
        # directories for temp files those specific pids left behind
        # (atomic-write staging only — completed entries are never touched,
        # and other processes sharing the directory are not raced).
        from repro.simulation.result_cache import remove_temp_files

        remove_temp_files(
            Path(self.settings.cache_dir) if self.settings.cache_dir else None,
            pids={handle.process.pid for handle in handles} | {os.getpid()},
        )

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
