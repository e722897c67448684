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
so an interrupted run keeps everything it finished.  Pair the cache with a
:class:`~repro.simulation.journal.SweepJournal` and the sweep becomes
resumable: each completion is journaled once its cache entry is durable, and
a restarted sweep re-executes only the missing points.

Fault tolerance is governed by a :class:`SweepPolicy` (per-point retries
with exponential backoff, an optional per-point timeout for parallel runs,
journaling, and *partial* mode, where a point that exhausts its retries
yields a :class:`FailedPoint` marker plus an entry in the runner's failure
manifest instead of aborting the sweep).  The policy can be set per runner,
ambiently via :func:`set_default_policy` (the CLI's ``--resume`` /
``--max-retries`` flags), or through the environment
(``REPRO_SWEEP_RESUME=1``, ``REPRO_SWEEP_RETRIES=N``) so nightly jobs opt
in without code changes.
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

from repro import _env, faults, obs
from repro.obs import trace
from repro.simulation.census import absorb_engine_path_counts, engine_path_counts
from repro.simulation.journal import SweepJournal
from repro.simulation.result_cache import SweepResultCache, default_cache, remove_temp_files

#: Environment variable enabling journaled, resumable sweeps ("1" to enable).
SWEEP_RESUME_ENV = "REPRO_SWEEP_RESUME"

#: Environment variable setting the default per-point retry budget.
SWEEP_RETRIES_ENV = "REPRO_SWEEP_RETRIES"


# The three value types below are ``NamedTuple``s, not dataclasses: an
# all-hits figure defines them and must not pay for ``dataclasses`` +
# ``inspect``.  None of them is ever a task *argument*, so the tuple encoding
# ``result_cache._canonical`` would give them never enters a cache key, and
# ``serve.jobs.jsonify`` sends them as field dicts (the wire format the
# dataclasses had), not as lists.


class SweepTask(NamedTuple):
    """One unit of sweep work: ``fn(*args, **kwargs)`` identified by ``key``."""

    key: Any
    fn: Callable[..., Any]
    args: Tuple = ()
    #: ``None`` stands for "no keyword arguments": a tuple field cannot
    #: default to a fresh dict, and a shared ``{}`` would be mutable state.
    kwargs: Optional[Mapping[str, Any]] = None

    def execute(self) -> Any:
        return self.fn(*self.args, **(self.kwargs or {}))


class FailedPoint(NamedTuple):
    """Partial-mode placeholder for a point that exhausted its retries."""

    key: Any
    error: str
    attempts: int


class SweepPolicy(NamedTuple):
    """Fault-tolerance knobs for a sweep (see module docstring)."""

    #: Re-executions granted to a failing point before it counts as failed.
    max_retries: int = 0
    #: First retry backoff in seconds; doubles per attempt.
    backoff_base: float = 0.05
    #: Parallel-mode deadline per point result; ``None`` waits forever.
    #: On expiry the pool is abandoned and the rest of the sweep runs
    #: serially in the parent, so one lost worker cannot hang the sweep.
    point_timeout: Optional[float] = None
    #: Failed points become :class:`FailedPoint` results instead of raising.
    partial: bool = False
    #: Journal per-point completions next to the result cache (resume).
    journal: bool = False


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

    Per-point fault tolerance (retries, timeouts, journaling, partial mode)
    follows the explicit constructor arguments, then the ambient
    :class:`SweepPolicy`.  After :meth:`run`, ``self.report`` holds the
    reuse/failure accounting and ``self.manifest`` the
    :class:`FailedPoint` list of a partial run.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Optional[SweepResultCache] = None,
        journal: Optional[SweepJournal] = None,
        max_retries: Optional[int] = None,
        backoff_base: Optional[float] = None,
        point_timeout: Optional[float] = None,
        partial: Optional[bool] = None,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            raise ValueError(f"max_workers must be non-negative, got {max_workers}")
        self.max_workers = max_workers
        self.cache = cache if cache is not None else default_cache()
        policy = default_policy()
        self.max_retries = policy.max_retries if max_retries is None else max_retries
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        self.backoff_base = policy.backoff_base if backoff_base is None else backoff_base
        self.point_timeout = policy.point_timeout if point_timeout is None else point_timeout
        self.partial = policy.partial if partial is None else partial
        if journal is None and policy.journal and self.cache is not None:
            journal = SweepJournal(self.cache.directory)
        self.journal = journal
        self.report: Dict[str, int] = {}
        self.manifest: List[FailedPoint] = []

    @property
    def parallel(self) -> bool:
        return (self.max_workers or 0) > 1

    # ------------------------------------------------------------------ #
    def run(self, tasks: Sequence[SweepTask]) -> List[Any]:
        """Execute ``tasks`` and return their results in task order.

        With a cache attached, previously completed tasks are answered from
        disk and only the remainder is executed (serially or in parallel);
        fresh results are stored by the parent process — one by one, as
        points complete — never by workers.  With a journal as well, points
        completed by an interrupted earlier run are counted as ``resumed``
        in ``self.report``.
        """
        tasks = list(tasks)
        self.manifest = []
        report = {
            "total": len(tasks), "cached": 0, "resumed": 0,
            "executed": 0, "failed": 0, "retries": 0,
        }
        self.report = report
        # The sweep span is the trace parent of every point, cache op, and
        # journal append below (all on this thread, so ambient nesting
        # works); in a serve worker it nests under the worker's span.
        with trace.span("sweep.run", {"total": len(tasks)}) as sweep_span:
            if not tasks:
                _note_report(report)
                return []
            cache = self.cache
            results: List[Any] = [None] * len(tasks)
            digests: List[Optional[str]] = [None] * len(tasks)
            pending: List[int] = []
            journal_done = (
                self.journal.completed()
                if (self.journal is not None and cache is not None)
                else set()
            )
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
                            if digest in journal_done:
                                report["resumed"] += 1
                            continue
                    pending.append(index)
            if pending:
                try:
                    self._execute_pending(tasks, pending, digests, results, report)
                except KeyboardInterrupt:
                    # Scoped to this process's own staging files: a sibling
                    # sweep or a serve daemon sharing the cache directory may
                    # have atomic writes in flight that must not be yanked
                    # from under it.  Completed points are already cached and
                    # journaled, so a rerun resumes where this one stopped.
                    remove_temp_files(
                        cache.directory if cache is not None else None,
                        pids={os.getpid()},
                    )
                    _note_report(report)
                    raise
            _note_report(report)
            for outcome in ("cached", "resumed", "executed", "failed", "retries"):
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
        timed_out = False
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
                            timed_out = True
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
                                tasks[index], index, digests[index], value,
                                results, report, attempts=1,
                            )
                        elif self.max_retries > 0:
                            retry.append((index, 1))
                        else:
                            self._fail(tasks[index], index, digests[index],
                                       value, results, report, attempts=1)
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
        """Execute one point serially with the policy's retry budget.

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
            except Exception as exc:  # repro: ignore[EXC001] -- retried, then re-raised or recorded in the failure manifest
                if attempts <= self.max_retries:
                    continue
                self._fail(task, index, digest, exc, results, report, attempts)
                return
            self._complete(task, index, digest, value, results, report, attempts)
            return

    # ------------------------------------------------------------------ #
    def _complete(
        self,
        task: SweepTask,
        index: int,
        digest: Optional[str],
        value: Any,
        results: List[Any],
        report: Dict[str, int],
        attempts: int,
    ) -> None:
        """Record one finished point: result slot, cache entry, journal line."""
        results[index] = value
        report["executed"] += 1
        report["retries"] += max(0, attempts - 1)
        if digest is not None and self.cache is not None:
            self.cache.put(digest, value)
            if self.journal is not None:
                # Journaled only after the cache entry is durable: the
                # journal indexes the cache, it never leads it.
                self.journal.record(
                    digest, "done",
                    fn=_task_identity(task), key=str(task.key), attempts=attempts,
                )

    def _fail(
        self,
        task: SweepTask,
        index: int,
        digest: Optional[str],
        error: BaseException,
        results: List[Any],
        report: Dict[str, int],
        attempts: int,
    ) -> None:
        """A point exhausted its retries: journal it, then degrade or raise."""
        report["failed"] += 1
        report["retries"] += max(0, attempts - 1)
        message = f"{type(error).__name__}: {error}"
        if digest is not None and self.journal is not None:
            self.journal.record(
                digest, "failed",
                fn=_task_identity(task), key=str(task.key),
                attempts=attempts, error=message,
            )
        if not self.partial:
            raise error
        failed = FailedPoint(key=task.key, error=message, attempts=attempts)
        results[index] = failed
        self.manifest.append(failed)

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


def _task_identity(task: SweepTask) -> str:
    module = getattr(task.fn, "__module__", "?")
    qualname = getattr(task.fn, "__qualname__", repr(task.fn))
    return f"{module}.{qualname}"


def sweep_map(
    fn: Callable[..., Any],
    items: Iterable[Any],
    workers: Optional[int] = None,
    cache: Optional[SweepResultCache] = None,
    **fixed_kwargs: Any,
) -> List[Any]:
    """One-shot convenience wrapper around :meth:`SweepRunner.map`."""
    return SweepRunner(max_workers=workers, cache=cache).map(fn, items, **fixed_kwargs)


# --------------------------------------------------------------------------- #
# Ambient policy and sweep reporting
# --------------------------------------------------------------------------- #
#: Sentinel distinguishing "never configured" from "explicitly disabled".
_POLICY_UNSET = object()
_ambient_policy: Any = _POLICY_UNSET

#: Reuse/failure accounting of the most recent sweep in this process, so
#: entry points (the CLI's ``--resume`` report) can surface it without
#: threading the runner through every figure module.
_last_report: Optional[Dict[str, int]] = None


def set_default_policy(policy: Optional[SweepPolicy]) -> Any:
    """Set (or, with ``None``, reset) the process-wide ambient sweep policy.

    Returns an opaque token for the previous setting; pass it back to
    restore whatever was configured before (the same save/restore contract
    as :func:`~repro.simulation.result_cache.set_default_cache`).
    """
    global _ambient_policy
    previous = _ambient_policy
    _ambient_policy = policy
    return previous


def default_policy() -> SweepPolicy:
    """The ambient policy for runners not handed explicit knobs.

    Resolution order: :func:`set_default_policy`'s setting, then the
    environment (``REPRO_SWEEP_RESUME=1`` enables journaling,
    ``REPRO_SWEEP_RETRIES=N`` sets the retry budget), then the defaults.
    """
    if _ambient_policy is not _POLICY_UNSET and _ambient_policy is not None:
        return _ambient_policy
    journal = _env.flag(SWEEP_RESUME_ENV)
    retries_text = _env.read(SWEEP_RETRIES_ENV)
    max_retries = 0
    if retries_text:
        try:
            max_retries = max(0, int(retries_text))
        except ValueError:
            warnings.warn(
                f"ignoring non-integer {SWEEP_RETRIES_ENV}={retries_text!r}",
                RuntimeWarning,
                stacklevel=2,
            )
    return SweepPolicy(max_retries=max_retries, journal=journal)


def _note_report(report: Dict[str, int]) -> None:
    global _last_report
    _last_report = dict(report)
    # One batched flush per sweep into the process metrics registry: the
    # per-point tallies already live in ``report``, so no counter is
    # touched inside the sweep loop itself.
    points = obs.counter(
        "repro_sweep_points_total",
        "Sweep points by outcome (cached includes resumed; executed ran fresh).",
        labels=("outcome",),
    )
    for outcome in ("cached", "resumed", "executed", "failed"):
        count = report.get(outcome, 0)
        if count:
            points.labels(outcome).inc(count)
    retries = report.get("retries", 0)
    if retries:
        obs.counter(
            "repro_sweep_retries_total", "Per-point retry attempts across sweeps."
        ).inc(retries)
    obs.counter("repro_sweep_runs_total", "Completed SweepRunner.run invocations.").inc()


def last_sweep_report() -> Optional[Dict[str, int]]:
    """Accounting of the most recent sweep run in this process (or None)."""
    return None if _last_report is None else dict(_last_report)
