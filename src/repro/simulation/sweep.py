"""Parallel, fault-tolerant sweep runner for experiment configurations.

Every figure of the paper is a *sweep*: the same per-item function (one
application, one category, one block size, ...) evaluated over a list of
items.  :class:`SweepRunner` fans such sweeps out over ``multiprocessing``
workers while preserving item order, and degrades gracefully to serial
execution when parallelism is unavailable (restricted containers, unpicklable
tasks) or not requested.

Because each worker is a separate process, the per-item functions must be
importable module-level callables with picklable arguments and results — the
experiment runners in :mod:`repro.experiments` are written that way.  Workers
rebuild their own traces (the in-process trace cache is per-worker), trading
redundant generation for fully independent, deterministic runs.

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
import pickle
import signal
import threading
import time
import warnings
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro import faults, obs
from repro.obs import trace
from repro.simulation.census import absorb_engine_path_counts, engine_path_counts
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
    """One unit of sweep work: ``fn(*args, **kwargs)`` identified by ``key``.

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


def _execute_task_guarded(task: SweepTask) -> Tuple[bool, Any, Dict[str, int]]:
    """Top-level trampoline so tasks can be dispatched through a Pool.

    Task exceptions are returned rather than raised so the caller can tell a
    failing task (retry or re-raise it) apart from failing pool
    infrastructure (fall back to serial execution).  The third element is
    the engine-path census of this task, which the parent absorbs: a worker's
    metrics registry dies with it.
    """
    before = engine_path_counts()
    try:
        ok, value = True, _run_task(task)
    except Exception as exc:  # repro: ignore[EXC001] -- returned to the parent, which retries or re-raises task failures
        ok, value = False, exc
    return ok, value, engine_path_counts(since=before)


def default_worker_count() -> int:
    """Worker count used when a parallel sweep does not specify one."""
    return max(1, os.cpu_count() or 1)


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Deliver SIGTERM as KeyboardInterrupt for the duration of a sweep.

    ``kill <pid>`` of a parallel sweep then takes the same orderly path as
    Ctrl-C: the ``multiprocessing.Pool`` context manager terminates the
    child processes and the runner sweeps up its temp cache files, instead
    of the parent dying mid-``map`` and leaking both.  Signal handlers can
    only be installed from the main thread; elsewhere (e.g. the serve
    pool's executor threads) this is a no-op.
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
    """Runs sweep tasks serially or across a ``multiprocessing`` pool.

    ``max_workers=None``, ``0``, or ``1`` selects serial execution (the
    default — deterministic, no process overhead, right for small sweeps).
    Larger values fan tasks out over that many worker processes.  If the pool
    cannot be created or the tasks cannot be pickled, the runner falls back
    to serial execution rather than failing the sweep.

    A failing point is re-executed up to ``max_retries`` times (``None``:
    the budget set by :func:`set_default_max_retries`, 0 unless set), the
    first retry after ``backoff_base`` seconds, doubling per attempt; then
    its exception propagates.  ``point_timeout`` is the parallel-mode
    deadline per point result (``None`` waits forever): on expiry the pool is
    abandoned and the rest of the sweep runs serially in the parent, so one
    lost worker cannot hang the sweep.  After :meth:`run`, ``self.report``
    holds the reuse/failure accounting.
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

    @property
    def parallel(self) -> bool:
        return (self.max_workers or 0) > 1

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
                _note_report(report)
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
                    self._execute_pending(tasks, pending, digests, results, report)
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
                    _note_report(report)
                    raise
            _note_report(report)
            for outcome in ("cached", "executed", "failed", "retries"):
                sweep_span.set(outcome, report[outcome])
            return results

    # ------------------------------------------------------------------ #
    def _execute_pending(
        self,
        tasks: Sequence[SweepTask],
        pending: List[int],
        digests: List[Optional[str]],
        results: List[Any],
        report: Dict[str, int],
    ) -> None:
        """Execute the cache-miss points, storing each as it completes."""
        remaining: List[Tuple[int, int]] = [(index, 0) for index in pending]
        if self.parallel and len(remaining) > 1:
            remaining = self._execute_parallel(tasks, pending, digests, results, report)
        if remaining:
            with _sigterm_as_interrupt():
                for index, prior_attempts in remaining:
                    self._run_point(
                        tasks[index], index, digests[index], results, report,
                        prior_attempts=prior_attempts,
                    )

    def _execute_parallel(
        self,
        tasks: Sequence[SweepTask],
        pending: List[int],
        digests: List[Optional[str]],
        results: List[Any],
        report: Dict[str, int],
    ) -> List[Tuple[int, int]]:
        """Fan pending points over a Pool; return ``(index, attempts_used)``
        for every point the pool did not complete (failed first attempt with
        retries left, lost to a timed-out/hung worker, or never started
        because pool infrastructure failed) — the caller finishes them
        serially in the parent."""
        # Only a sweep with points left to fork for pays for multiprocessing,
        # and the workers inherit the engine instead of importing it once each.
        import multiprocessing

        from repro._lazy import preload_simulation

        preload_simulation()
        completed: set = set()
        retry: List[Tuple[int, int]] = []
        try:
            processes = min(self.max_workers, len(pending))
            with multiprocessing.Pool(processes=processes) as pool:
                # The SIGTERM handler goes in only *after* the workers have
                # forked: a child inheriting the raising handler would
                # survive Pool.terminate() (which relies on SIGTERM's
                # default disposition) and leak, wedged on the shared queue.
                with _sigterm_as_interrupt():
                    iterator = pool.imap(
                        _execute_task_guarded, [tasks[index] for index in pending]
                    )
                    for index in pending:
                        try:
                            if self.point_timeout is not None:
                                ok, value, engine_runs = iterator.next(self.point_timeout)
                            else:
                                ok, value, engine_runs = next(iterator)
                        except multiprocessing.TimeoutError:
                            # A worker died or hung mid-point: the pool can
                            # never deliver this (ordered) result.  Abandon
                            # the pool and finish in the parent.
                            warnings.warn(
                                f"parallel sweep point (task {index}) missed its "
                                f"{self.point_timeout}s deadline; abandoning the "
                                "pool and finishing serially",
                                RuntimeWarning,
                                stacklevel=3,
                            )
                            break
                        completed.add(index)
                        absorb_engine_path_counts(engine_runs)
                        if ok:
                            self._complete(
                                index, digests[index], value, results, report, attempts=1
                            )
                        elif self.max_retries > 0:
                            retry.append((index, 1))
                        else:
                            _count_failure(report, attempts=1)
                            raise value
        except (OSError, ValueError, AttributeError, pickle.PicklingError) as exc:
            # Pool infrastructure failed — sandboxed environments may lack
            # semaphores/fork, and ad-hoc callables (lambdas, closures) may
            # not pickle.  Task-level exceptions never reach here: workers
            # return them, and they are handled above.
            warnings.warn(
                f"parallel sweep unavailable ({type(exc).__name__}: {exc}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=3,
            )
        # Anything the pool never delivered (timeout break, infrastructure
        # failure) still has attempts=0 and runs serially via the caller.
        leftover = [(index, 0) for index in pending if index not in completed]
        return retry + leftover

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


def _count_failure(report: Dict[str, int], attempts: int) -> None:
    """Account for a point that exhausted its retries (the caller raises)."""
    report["failed"] += 1
    report["retries"] += max(0, attempts - 1)


def _note_report(report: Dict[str, int]) -> None:
    # One batched flush per sweep into the process metrics registry: the
    # per-point tallies already live in ``report``, so no counter is
    # touched inside the sweep loop itself.
    points = obs.counter(
        "repro_sweep_points_total",
        "Sweep points by outcome (cached answered from disk; executed ran fresh).",
        labels=("outcome",),
    )
    for outcome in ("cached", "executed", "failed"):
        count = report.get(outcome, 0)
        if count:
            points.labels(outcome).inc(count)
    retries = report.get("retries", 0)
    if retries:
        obs.counter(
            "repro_sweep_retries_total", "Per-point retry attempts across sweeps."
        ).inc(retries)
    obs.counter("repro_sweep_runs_total", "Completed SweepRunner.run invocations.").inc()
