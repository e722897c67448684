"""Parallel sweeps over experiment configurations, one attempt per point.

Every figure of the paper is a *sweep*: the same per-item function (one
application, one category, one block size, ...) evaluated over a list of
items.  :func:`sweep_map` runs such sweeps serially, or fans them out over
the workers of a short-lived :class:`repro.serve.pool.WorkerPool` — the
package's one process pool, which the service keeps resident — while
preserving item order.  It degrades gracefully to serial execution when
parallelism is unavailable (restricted containers, unpicklable tasks) or not
requested.

Because each worker is a separate process, the per-item functions must be
importable module-level callables with picklable arguments and results — the
experiment runners in :mod:`repro.experiments` are written that way.  Workers
are forked from the sweeping process, so they inherit its imported engine,
its in-process trace cache and its trace-cache switch.

A :class:`~repro.simulation.result_cache.SweepResultCache` memoizes completed
points on disk: cached points are answered before any worker is spawned, only
the misses fan out, and fresh results are stored by the parent process *as
each point completes* — not after the whole sweep — so an interrupted run
keeps everything it finished, and a rerun over the same cache directory
re-executes only the missing points.

Each point runs once.  A point is a pure function of its trace and
configuration, so one that raises would raise again: its exception
propagates.  Only a point whose worker dies under it runs again, in the
parent.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import warnings
from typing import Any, Callable, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro import faults
from repro.obs import trace
from repro.simulation.result_cache import SweepResultCache, default_cache, remove_temp_files


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


def _run_point(task: SweepTask) -> Any:
    """Execute one point in this process, under its ``sweep.point`` span."""
    with trace.span("sweep.point", {"key": str(task.key)}, root=False):
        return _run_task(task)


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Deliver SIGTERM as KeyboardInterrupt for the duration of a sweep.

    ``kill <pid>`` of a parallel sweep then takes the same orderly path as
    Ctrl-C: the sweep stops its pool's workers at once and sweeps up its
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


def sweep_map(
    fn: Callable[..., Any],
    items: Iterable[Any],
    workers: Optional[int] = None,
    cache: Optional[SweepResultCache] = None,
    **fixed_kwargs: Any,
) -> List[Any]:
    """Apply ``fn(item, **fixed_kwargs)`` to every item, preserving order.

    ``workers=None``, ``0`` or ``1`` runs serially (deterministic, no
    process overhead, right for small sweeps); larger values fan the points
    out over that many worker processes.  ``cache=None`` uses the ambient
    :func:`~repro.simulation.result_cache.default_cache`.  Each point is
    answered from the cache, or run once — in a pool worker or in this
    process — and stored by this process as it completes.  A point that
    raises propagates; the sweep's other points are not waited for.
    """
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    if cache is None:
        cache = default_cache()
    tasks = [
        SweepTask(key=item, fn=fn, args=(item,), kwargs=dict(fixed_kwargs))
        for item in items
    ]
    # The sweep span is the trace parent of every point and cache op below
    # (all on this thread, so ambient nesting works); in a serve worker it
    # nests under the worker's span.
    with trace.span("sweep.run", {"total": len(tasks)}) as sweep_span:
        results: List[Any] = [None] * len(tasks)
        digests: List[Optional[str]] = [None] * len(tasks)
        pending: List[int] = []
        for index, task in enumerate(tasks):
            digest = None if cache is None else cache.fingerprint(fn, task.args, task.kwargs)
            if digest is not None:
                hit, value = cache.get(digest)
                if hit:
                    results[index] = value
                    continue
            digests[index] = digest
            pending.append(index)

        def complete(index: int, value: Any) -> None:
            results[index] = value
            if digests[index] is not None:
                cache.put(digests[index], value)

        if pending:
            try:
                serial = pending
                if (workers or 0) > 1 and len(pending) > 1:
                    serial = _run_parallel(tasks, pending, workers, complete)
                with _sigterm_as_interrupt():
                    for index in serial:
                        complete(index, _run_point(tasks[index]))
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
        sweep_span.set("cached", len(tasks) - len(pending))
        sweep_span.set("executed", len(pending))
        return results


def _run_parallel(
    tasks: List[SweepTask],
    pending: List[int],
    workers: int,
    complete: Callable[[int, Any], None],
) -> List[int]:
    """Run the pending points on a short-lived worker pool, completing each
    as it finishes.  A point the pool cannot run — its worker died, or its
    task does not pickle — runs in the parent right away while the others
    keep running in the pool; a point that raised propagates.  Returns the
    points for the caller to run serially: all of them when the pool cannot
    start."""
    from concurrent.futures import ThreadPoolExecutor, as_completed

    from repro.experiments.common import trace_cache_enabled
    from repro.serve.pool import UNPICKLABLE, WorkerPool
    from repro.serve.protocol import ProtocolError

    workers = min(workers, len(pending))
    # The workers follow this process's trace-cache switch, whatever set it
    # (``--no-trace-cache``, the environment, a test).
    pool = WorkerPool(workers=workers, trace_cache=trace_cache_enabled())
    try:
        pool.start()
    except OSError as exc:  # sandboxes may forbid fork or pipes
        pool.shutdown(timeout=0.0)  # any worker it did start
        _warn_serial(exc)
        return pending
    # One dispatch thread per worker, each blocking in WorkerPool.run; this
    # thread stores results and runs the points the pool gave back.
    dispatch = ThreadPoolExecutor(workers)
    finished = False
    try:
        # The SIGTERM handler goes in only after the workers have forked.
        with _sigterm_as_interrupt():
            futures = {
                dispatch.submit(pool.run, SweepTask(tasks[i].key, _run_task, (tasks[i],))): i
                for i in pending
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    ok, value = future.result()
                except ProtocolError:
                    warnings.warn(
                        f"parallel sweep point (task {index}) lost its worker; "
                        "running it in the parent",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                except UNPICKLABLE as exc:
                    # Shown once per message, so once per unpicklable fn.
                    _warn_serial(exc)
                else:
                    if not ok:
                        raise value
                    complete(index, value)
                    continue
                complete(index, _run_point(tasks[index]))
        finished = True
    finally:
        # Idle workers exit on their own; after an error or an interrupt
        # the busy ones are stopped at once.
        pool.shutdown(timeout=5.0 if finished else 0.0)
        dispatch.shutdown(cancel_futures=True)
    return []


def _warn_serial(exc: BaseException) -> None:
    warnings.warn(
        f"parallel sweep unavailable ({type(exc).__name__}: {exc}); "
        "falling back to serial execution",
        RuntimeWarning,
        stacklevel=4,
    )
