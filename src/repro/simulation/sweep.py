"""Parallel, fault-tolerant sweep runner for experiment configurations.

Every figure of the paper is a *sweep*: the same per-item function (one
application, one category, one block size, ...) evaluated over a list of
items.  :class:`SweepRunner` runs such sweeps serially, or fans them out
over the workers of a short-lived :class:`repro.serve.pool.WorkerPool` —
the package's one process pool, which the service keeps resident — while
preserving item order.  It degrades gracefully to serial execution when
parallelism is unavailable (restricted containers, unpicklable tasks) or
not requested.

Because each worker is a separate process, the per-item functions must be
importable module-level callables with picklable arguments and results — the
experiment runners in :mod:`repro.experiments` are written that way.  Workers
are forked from the sweeping process, so they inherit its imported engine,
its in-process trace cache and its trace-cache switch.

A :class:`~repro.simulation.result_cache.SweepResultCache` can be attached to
memoize completed task results on disk: cached tasks are answered before any
worker is spawned, only the misses fan out, and fresh results are stored by
the parent process *as each point completes* — not after the whole sweep —
so an interrupted run keeps everything it finished, and a rerun over the
same cache directory re-executes only the missing points.

A failing point is re-executed up to ``max_retries`` times with exponential
backoff before its exception propagates, and a parallel run can be given a
per-point deadline.  The retry budget of runners built without one is set
in-process with :func:`set_default_max_retries` (the CLI's ``--max-retries``).
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
import warnings
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro import faults
from repro.obs import trace
from repro.simulation.result_cache import SweepResultCache, default_cache, remove_temp_files

#: Retry budget of runners built without ``max_retries=`` (see
#: :func:`set_default_max_retries`).
_default_max_retries = 0


def set_default_max_retries(max_retries: int) -> int:
    """Set the retry budget of every runner not handed one explicitly.

    Returns the previous budget so scoped callers (the CLI, tests) can
    restore it — the figure runners build their own :class:`SweepRunner`,
    so this is how ``experiment --max-retries`` reaches them.
    """
    global _default_max_retries
    previous = _default_max_retries
    _default_max_retries = max_retries
    return previous


class SweepTask(NamedTuple):
    """One unit of work — a sweep point, and what a
    :class:`~repro.serve.pool.WorkerPool` worker runs: ``fn(*args, **kwargs)``
    identified by ``key``.

    A ``NamedTuple``, not a dataclass: an all-hits figure defines it and must
    not pay for ``dataclasses`` + ``inspect``.
    """

    key: Any
    fn: Callable[..., Any]
    args: Tuple = ()
    #: ``None`` stands for "no keyword arguments": a tuple field cannot
    #: default to a fresh dict, and a shared ``{}`` would be mutable state.
    kwargs: Optional[Mapping[str, Any]] = None

    def execute(self) -> Any:
        return self.fn(*self.args, **(self.kwargs or {}))


def _run_task(task: SweepTask) -> Any:
    """Execute one task through the ``sweep.point`` fault-injection site."""
    faults.fire("sweep.point")
    return task.execute()


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Deliver SIGTERM as KeyboardInterrupt for the duration of a sweep.

    ``kill <pid>`` of a parallel sweep then takes the same orderly path as
    Ctrl-C: the runner stops its pool's workers at once and sweeps up its
    temp cache files, instead of the parent dying mid-sweep and leaking
    both.  Signal handlers can only be installed from the main thread;
    elsewhere (e.g. a serve worker's job) this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    def _raise(signum, frame):  # noqa: ARG001 - signal handler signature
        raise KeyboardInterrupt
    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except ValueError:  # pragma: no cover - non-main interpreter thread
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


class SweepRunner:
    """Runs sweep tasks serially or across a short-lived worker pool.

    ``max_workers=None``, ``0``, or ``1`` selects serial execution (the
    default — deterministic, no process overhead, right for small sweeps).
    Larger values fan tasks out over that many worker processes.  If the pool
    cannot be started or a task cannot be pickled, that work runs serially
    in the parent rather than failing the sweep.

    A failing point is re-executed up to ``max_retries`` times (``None``:
    the budget set by :func:`set_default_max_retries`, 0 unless set), the
    first retry after ``backoff_base`` seconds, doubling per attempt; then
    its exception propagates.  ``point_timeout`` is the parallel-mode
    deadline per point (``None`` waits forever): a point that misses it has
    its worker killed and respawned and runs in the parent, as does a point
    whose worker dies, while the other points keep running in the pool — so
    one lost worker cannot hang the sweep.  After :meth:`run`,
    ``self.report`` holds the reuse/failure accounting.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[SweepResultCache] = None,
        max_retries: Optional[int] = None,
        backoff_base: float = 0.05,
        point_timeout: Optional[float] = None,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            raise ValueError(f"max_workers must be non-negative, got {max_workers}")
        self.max_workers = max_workers
        self.cache = cache if cache is not None else default_cache()
        self.max_retries = _default_max_retries if max_retries is None else max_retries
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        self.backoff_base = backoff_base
        self.point_timeout = point_timeout
        self.report: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def run(self, tasks: Sequence[SweepTask]) -> List[Any]:
        """Execute ``tasks`` and return their results in task order.

        With a cache attached, previously completed tasks are answered from
        disk and only the remainder is executed (serially or in parallel);
        fresh results are stored by the parent process — one by one, as
        points complete — never by workers.
        """
        tasks = list(tasks)
        report = {"total": len(tasks), "cached": 0, "executed": 0, "failed": 0, "retries": 0}
        self.report = report
        # The sweep span is the trace parent of every point and cache op
        # below (all on this thread, so ambient nesting works); in a serve
        # worker it nests under the worker's span.
        with trace.span("sweep.run", {"total": len(tasks)}) as sweep_span:
            if not tasks:
                return []
            cache = self.cache
            results: List[Any] = [None] * len(tasks)
            digests: List[Optional[str]] = [None] * len(tasks)
            pending: List[int] = []
            if cache is None:
                pending = list(range(len(tasks)))
            else:
                for index, task in enumerate(tasks):
                    digest = cache.fingerprint(task.fn, task.args, task.kwargs or {})
                    digests[index] = digest
                    if digest is not None:
                        hit, value = cache.get(digest)
                        if hit:
                            results[index] = value
                            report["cached"] += 1
                            continue
                    pending.append(index)
            if pending:
                try:
                    if (self.max_workers or 0) > 1 and len(pending) > 1:
                        pending = self._execute_parallel(tasks, pending, digests, results, report)
                    with _sigterm_as_interrupt():
                        for index in pending:
                            self._run_point(tasks[index], index, digests[index], results, report)
                except KeyboardInterrupt:
                    # Scoped to this process's own staging files: a sibling
                    # sweep or a serve daemon sharing the cache directory may
                    # have atomic writes in flight that must not be yanked
                    # from under it.  Completed points are already cached, so a
                    # rerun resumes where this one stopped.
                    remove_temp_files(
                        cache.directory if cache is not None else None,
                        pids={os.getpid()},
                    )
                    raise
            for outcome in ("cached", "executed", "failed", "retries"):
                sweep_span.set(outcome, report[outcome])
            return results

    # ------------------------------------------------------------------ #
    def _execute_parallel(
        self,
        tasks: Sequence[SweepTask],
        pending: List[int],
        digests: List[Optional[str]],
        results: List[Any],
        report: Dict[str, int],
    ) -> List[int]:
        """Run the pending points on a short-lived worker pool, storing each
        as it completes.  A point the pool cannot finish — its worker died,
        it missed ``point_timeout``, or its task does not pickle — runs in
        the parent right away while the others keep running in the pool; a
        failed point with retries left is retried there too.  Returns the
        points for the caller to run serially: all of them when the pool
        cannot start."""
        from concurrent.futures import ThreadPoolExecutor, as_completed

        from repro.experiments.common import trace_cache_enabled
        from repro.serve.pool import UNPICKLABLE, WorkerPool
        from repro.serve.protocol import TASK_TIMEOUT, ProtocolError

        workers = min(self.max_workers, len(pending))
        # The workers follow this process's trace-cache switch, whatever
        # set it (``--no-trace-cache``, the environment, a test).
        pool = WorkerPool(workers=workers, trace_cache=trace_cache_enabled())
        try:
            pool.start()
        except OSError as exc:  # sandboxes may forbid fork or pipes
            pool.shutdown(timeout=0.0)  # any worker it did start
            _warn_serial(exc)
            return pending
        # One dispatch thread per worker, each blocking in WorkerPool.run;
        # this thread stores results and runs the points the pool gave back.
        dispatch = ThreadPoolExecutor(workers)
        finished = False
        try:
            # The SIGTERM handler goes in only after the workers have forked.
            with _sigterm_as_interrupt():
                futures = {
                    dispatch.submit(pool.run, SweepTask(tasks[i].key, _run_task, (tasks[i],)),
                                    task_timeout=self.point_timeout): i
                    for i in pending
                }
                for future in as_completed(futures):
                    index = futures[future]
                    prior_attempts = 0
                    try:
                        ok, value = future.result()
                    except ProtocolError as exc:
                        lost = (
                            f"missed its {self.point_timeout}s deadline"
                            if exc.code == TASK_TIMEOUT else "lost its worker"
                        )
                        warnings.warn(
                            f"parallel sweep point (task {index}) {lost}; "
                            "running it in the parent",
                            RuntimeWarning,
                            stacklevel=3,
                        )
                    except UNPICKLABLE as exc:
                        # Shown once per message, so once per unpicklable fn.
                        _warn_serial(exc)
                    else:
                        if ok:
                            self._complete(
                                index, digests[index], value, results, report, attempts=1
                            )
                            continue
                        if self.max_retries == 0:
                            _count_failure(report, attempts=1)
                            raise value
                        prior_attempts = 1
                    self._run_point(
                        tasks[index], index, digests[index], results, report,
                        prior_attempts=prior_attempts,
                    )
            finished = True
        finally:
            # Idle workers exit on their own; after an error or an
            # interrupt the busy ones are stopped at once.
            pool.shutdown(timeout=5.0 if finished else 0.0)
            dispatch.shutdown(cancel_futures=True)
        return []

    def _run_point(
        self,
        task: SweepTask,
        index: int,
        digest: Optional[str],
        results: List[Any],
        report: Dict[str, int],
        prior_attempts: int = 0,
    ) -> None:
        """Execute one point serially with the runner's retry budget.

        ``prior_attempts`` credits failures already burned by the parallel
        stage, so a point retried here still gets ``max_retries`` total
        re-executions, each preceded by exponential backoff.
        """
        attempts = prior_attempts
        while True:
            if attempts > 0:
                # Every attempt after a failure backs off exponentially.
                delay = self.backoff_base * (2 ** (attempts - 1))
                if delay > 0:
                    time.sleep(delay)
            attempts += 1
            try:
                # One span per attempt, so a retried point shows as sibling
                # sweep.point spans with increasing attempt numbers.
                with trace.span(
                    "sweep.point", {"key": str(task.key), "attempt": attempts},
                    root=False,
                ):
                    value = _run_task(task)
            except Exception:  # repro: ignore[EXC001] -- retried, then re-raised
                if attempts <= self.max_retries:
                    continue
                _count_failure(report, attempts)
                raise
            self._complete(index, digest, value, results, report, attempts)
            return

    # ------------------------------------------------------------------ #
    def _complete(
        self,
        index: int,
        digest: Optional[str],
        value: Any,
        results: List[Any],
        report: Dict[str, int],
        attempts: int,
    ) -> None:
        """Record one finished point: result slot and cache entry."""
        results[index] = value
        report["executed"] += 1
        report["retries"] += max(0, attempts - 1)
        if digest is not None and self.cache is not None:
            self.cache.put(digest, value)

    # ------------------------------------------------------------------ #
    def map(
        self,
        fn: Callable[..., Any],
        items: Iterable[Any],
        **fixed_kwargs: Any,
    ) -> List[Any]:
        """Apply ``fn(item, **fixed_kwargs)`` to every item, preserving order."""
        tasks = [
            SweepTask(key=item, fn=fn, args=(item,), kwargs=dict(fixed_kwargs))
            for item in items
        ]
        return self.run(tasks)


def sweep_map(
    fn: Callable[..., Any],
    items: Iterable[Any],
    workers: Optional[int] = None,
    cache: Optional[SweepResultCache] = None,
    **fixed_kwargs: Any,
) -> List[Any]:
    """One-shot convenience wrapper around :meth:`SweepRunner.map`."""
    return SweepRunner(max_workers=workers, cache=cache).map(fn, items, **fixed_kwargs)


def _warn_serial(exc: BaseException) -> None:
    warnings.warn(
        f"parallel sweep unavailable ({type(exc).__name__}: {exc}); "
        "falling back to serial execution",
        RuntimeWarning,
        stacklevel=4,
    )


def _count_failure(report: Dict[str, int], attempts: int) -> None:
    """Account for a point that exhausted its retries (the caller raises)."""
    report["failed"] += 1
    report["retries"] += max(0, attempts - 1)
