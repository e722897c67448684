"""Shared infrastructure for the experiment runners.

Centralises trace construction (with per-application scaling chosen so the
synthetic traces exercise enough of the cache hierarchy to train SMS), the
prefetcher factories each experiment compares, trace caching so that one
benchmark module can run several configurations over the same trace without
regenerating it, and :class:`SweepFigure`, the one declaration of a figure's
sweep (per-item function, item domain, default kwargs).  Each fig04–fig13
module declares its sweep as ``SWEEP`` and its ``run()`` hands the tasks to
:func:`~repro.simulation.sweep.sweep_map`; the service's ``sweep`` verb
builds its task from the same value, so a figure run on the command line and
a service request for one of its items share cache entries by construction.

An experiment trace is a :class:`~repro.trace.binary.LaneTrace`: the whole
trace resident as five flat integer lanes, which the engine's lane loop
walks directly and which record consumers (density, opportunity, reference
path prefetchers) iterate boxed one chunk at a time.  No tuple of records is
kept beside the lanes.

Trace caching has two layers: an in-process ``lru_cache`` (always on), and
an opt-in on-disk layer that memoizes each generated trace as a binary
``.strc`` file keyed by (workload, cpus, accesses, seed) plus the package's
code fingerprint.  Decoding a record into lanes costs a small fraction of
generating it and boxes nothing (``bench.py --trace 1`` reports both, as
``trace.decode_lanes_us_per_record`` and
``workloads.generate_us_per_record.*``), so full-scale sweeps — and every
parallel worker, which otherwise regenerates its own traces — cut their
per-trace warmup on a warm cache.
Enable it with :func:`set_trace_cache` or ``REPRO_TRACE_CACHE=1`` (the CLI
turns it on by default; ``--no-trace-cache`` is the escape hatch); the files
live in a ``traces/`` directory next to the sweep result cache.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, Mapping, NamedTuple, Optional, Tuple,
)

# An all-hits figure run imports this module and never simulates: the engine,
# the predictor, the trace codecs and the workload generators are imported
# inside the functions that need them.
from repro import _env, obs
from repro.prefetch.registry import (  # noqa: F401 - the runners' ``common.*_factory`` helpers
    ghb_factory,
    null_factory,
    sms_factory,
    stride_factory,
)
from repro.simulation.result_cache import (
    TRACES_SUBDIR,
    atomic_store,
    code_fingerprint,
    default_cache_dir,
)
from repro.workloads.names import APPLICATION_NAMES, CATEGORIES, CATEGORY_REPRESENTATIVE

if TYPE_CHECKING:
    from repro.prefetch.base import Prefetcher
    from repro.simulation.config import SimulationConfig
    from repro.simulation.engine import SimulationResult
    from repro.trace.binary import LaneTrace
    from repro.trace.record import MemoryAccess
    from repro.workloads.base import WorkloadMetadata

#: Default number of processors for experiment traces.  The paper simulates
#: 16; the experiments default to 4 so that each processor sees enough of the
#: synthetic trace to warm its private L1 within a tractable trace length.
DEFAULT_NUM_CPUS = 4

#: Per-application accesses-per-CPU.  Streaming scientific workloads need
#: longer traces than the commercial ones because their spatial region
#: generations only end after a full L1 capacity of new data has streamed by.
ACCESSES_PER_CPU: Dict[str, int] = {
    "oltp-db2": 12000,
    "oltp-oracle": 12000,
    "dss-qry1": 12000,
    "dss-qry2": 12000,
    "dss-qry16": 12000,
    "dss-qry17": 12000,
    "web-apache": 12000,
    "web-zeus": 12000,
    "em3d": 20000,
    "ocean": 25000,
    "sparse": 25000,
}

#: Default seed for experiment traces.
DEFAULT_SEED = 7


def default_config(num_cpus: int = DEFAULT_NUM_CPUS) -> SimulationConfig:
    """Simulation configuration used by the experiments (paper L1, smaller L2)."""
    from repro.simulation.config import SimulationConfig

    return SimulationConfig.small(num_cpus=num_cpus)


# --------------------------------------------------------------------------- #
# On-disk trace memoization
# --------------------------------------------------------------------------- #
#: Environment variable enabling the on-disk trace cache ("1" to enable).
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

#: Explicit override of the environment default (None = follow the env).
_trace_cache_override: Optional[bool] = None


def set_trace_cache(enabled: Optional[bool]) -> Optional[bool]:
    """Enable/disable the on-disk trace cache for this process.

    ``None`` restores the ambient default (the ``REPRO_TRACE_CACHE``
    environment variable).  Returns the previous override so scoped callers
    (the CLI, tests) can restore it.
    """
    global _trace_cache_override
    previous = _trace_cache_override
    _trace_cache_override = enabled
    return previous


def trace_cache_enabled() -> bool:
    """True when generated traces are memoized as ``.strc`` files on disk."""
    if _trace_cache_override is not None:
        return _trace_cache_override
    return _env.flag(TRACE_CACHE_ENV)


def trace_cache_dir() -> Path:
    """Trace cache directory — ``traces/`` next to the sweep result cache."""
    return default_cache_dir() / TRACES_SUBDIR


def _trace_cache_path(name: str, num_cpus: int, accesses_per_cpu: int, seed: int) -> Path:
    # The code fingerprint keys the entry to the exact generator source, so
    # any change to the workload (or anything else in the package) regenerates
    # rather than silently replaying a stale trace.
    fingerprint = code_fingerprint()[:16]
    return trace_cache_dir() / (
        f"{name}-c{num_cpus}-a{accesses_per_cpu}-s{seed}-{fingerprint}.strc"
    )


def _load_or_generate(
    workload, name: str, num_cpus: int, accesses_per_cpu: int, seed: int
) -> LaneTrace:
    """Decode the trace from its ``.strc`` cache file, generating it on a miss."""
    from repro.trace.binary import LaneTrace, write_trace_binary

    path = _trace_cache_path(name, num_cpus, accesses_per_cpu, seed)
    try:
        if path.exists():
            trace = LaneTrace.from_file(path, workload.metadata, name=name)
            obs.note_cache_op("trace", "hit")
            return trace
    except (OSError, ValueError) as exc:  # bad header, torn tail, count mismatch: regenerate
        from repro.simulation.result_cache import quarantine_file

        # Quarantined next to the sweep cache's corrupt entries (same
        # side directory, same post-mortem workflow) rather than deleted.
        quarantine_file(path, trace_cache_dir().parent)
        obs.note_cache_op("trace", "error", "quarantine")
        warnings.warn(
            f"quarantining unreadable trace cache entry {path.name}: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
    generated = LaneTrace.from_records(workload, workload.metadata)
    obs.note_cache_op("trace", "miss")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Entries under other code fingerprints stay: another checkout sharing
        # this directory may still read them (``repro.cli cache prune``
        # removes them).  Concurrent sweep workers filling the same entry can
        # never expose a half-written trace.
        atomic_store(path, lambda staging: write_trace_binary(staging, generated, compress=False))
    except OSError as exc:
        obs.note_cache_op("trace", "error")
        warnings.warn(f"could not store trace cache entry: {exc}", RuntimeWarning, stacklevel=2)
        return generated
    obs.note_cache_op("trace", "store")
    return generated


@lru_cache(maxsize=32)
def _cached_trace(name: str, num_cpus: int, accesses_per_cpu: int, seed: int) -> LaneTrace:
    from repro.workloads.suite import make_workload

    workload = make_workload(
        name, num_cpus=num_cpus, accesses_per_cpu=accesses_per_cpu, seed=seed
    )
    if trace_cache_enabled():
        return _load_or_generate(workload, name, num_cpus, accesses_per_cpu, seed)
    from repro.trace.binary import LaneTrace

    return LaneTrace.from_records(workload, workload.metadata)


def build_trace(
    name: str,
    num_cpus: int = DEFAULT_NUM_CPUS,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
) -> Tuple[LaneTrace, WorkloadMetadata]:
    """Build (and cache) the experiment trace for application ``name``.

    ``scale`` multiplies the per-application default trace length; benchmark
    runs use ``scale<1`` to keep wall-clock time down, full runs use 1.0+.
    The returned trace is the cached instance, shared by every
    configuration of a figure — do not mutate its lanes.
    """
    accesses = max(1000, int(ACCESSES_PER_CPU[name] * scale))
    trace = _cached_trace(name, num_cpus, accesses, seed)
    return trace, trace.metadata


def representative_trace(
    category: str,
    num_cpus: int = DEFAULT_NUM_CPUS,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
) -> Tuple[LaneTrace, WorkloadMetadata]:
    """Trace of the representative application for ``category``."""
    if category not in CATEGORY_REPRESENTATIVE:
        raise ValueError(f"unknown category {category!r}; choose from {CATEGORIES}")
    return build_trace(CATEGORY_REPRESENTATIVE[category], num_cpus=num_cpus, scale=scale, seed=seed)


# --------------------------------------------------------------------------- #
# Simulation helpers
# --------------------------------------------------------------------------- #
def simulate(
    trace: Iterable[MemoryAccess],
    prefetcher_factory: Optional[Callable[[int], Prefetcher]] = None,
    config: Optional[SimulationConfig] = None,
    name: str = "",
    metadata: Optional[WorkloadMetadata] = None,
) -> SimulationResult:
    """Run one configuration over ``trace`` and return its result."""
    from repro.simulation.engine import SimulationEngine

    engine = SimulationEngine(
        config=config or default_config(),
        prefetcher_factory=prefetcher_factory or null_factory(),
        name=name,
    )
    result = engine.run(trace)
    if metadata is not None:
        result.workload = metadata
    return result


def simulate_pair(
    trace: Iterable[MemoryAccess],
    prefetcher_factory: Callable[[int], Prefetcher],
    config: Optional[SimulationConfig] = None,
    name: str = "",
    metadata: Optional[WorkloadMetadata] = None,
) -> Tuple[SimulationResult, SimulationResult]:
    """Run the no-prefetch baseline and the prefetching configuration on ``trace``."""
    base = simulate(trace, null_factory(), config=config, name=f"{name}-base", metadata=metadata)
    with_prefetcher = simulate(
        trace, prefetcher_factory, config=config, name=name, metadata=metadata
    )
    return base, with_prefetcher


# --------------------------------------------------------------------------- #
# Figure sweeps
# --------------------------------------------------------------------------- #
#: The two item domains a figure sweeps: workload categories (each run on its
#: representative application) and applications, in the paper's order.
CATEGORY_ITEMS: Tuple[str, ...] = tuple(CATEGORY_REPRESENTATIVE)
APPLICATION_ITEMS: Tuple[str, ...] = tuple(APPLICATION_NAMES)


class SweepFigure(NamedTuple):
    """One figure's sweep: ``fn(item, **kwargs)`` for every item of ``items``.

    Declared once, as ``SWEEP`` in the figure's module.  Its ``run()`` and the
    service's ``sweep`` verb both take the task kwargs from :meth:`kwargs`,
    so the two build the same ``(fn, (item,), kwargs)`` triple and with it
    the same result-cache digest.
    """

    fn: Callable[..., Any]
    items: Tuple[str, ...]
    #: Figure-default kwargs.  The objects themselves enter the cache digest,
    #: so a list stays a list.
    defaults: Mapping[str, Any]

    def kwargs(self, **given: Any) -> Dict[str, Any]:
        """The figure defaults, overridden by every given value that is not ``None``."""
        kwargs = dict(self.defaults)
        kwargs.update((key, value) for key, value in given.items() if value is not None)
        return kwargs
