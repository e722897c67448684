"""Trace-driven simulation engine.

The engine drives one :class:`~repro.coherence.multiprocessor.MultiprocessorMemorySystem`
and one prefetcher instance per processor through a multiprocessor trace.  It
is a functional (untimed) simulation in the spirit of the paper's trace-based
methodology (Section 4): the outputs are miss, coverage, and overprediction
counts; timing is layered on top by :mod:`repro.simulation.timing`.

Per access the engine:

1. performs the demand access (coherence actions + L1 + shared L2);
2. forwards the access and its outcome to the issuing CPU's prefetcher;
3. applies any forced evictions the prefetcher's training structure requires
   (decoupled-sectored training); and
4. applies the prefetcher's stream requests as fills into the L1 and/or L2.

Evictions and invalidations from each CPU's L1 are forwarded to that CPU's
prefetcher as they happen (this is how spatial region generations end).

The engine is *single-pass*: :meth:`SimulationEngine.run` consumes any
iterable of records lazily, chunk by chunk, and never materializes the
trace.  Peak engine-side memory is O(cache state + chunk), independent of
trace length, so billion-record streams are only a matter of wall-clock
time.  Cache state here is everything keyed by a resident block: the cache
sets, the directory (one packed word per L1-resident block, deleted when the
last copy leaves — ``tests/test_engine_directory.py`` holds it to the L1
contents), the set of prefetched blocks awaiting their first use, and the
prefetchers' fixed-size tables.  The one side table keyed by history rather
than residency is the false-sharing classifier's record of blocks a CPU lost
to a remote write and has not re-fetched yet; it exists only where false
sharing can (``classify_false_sharing`` and blocks larger than the 64-byte
coherence unit — Figure 4's sweep), so at the 64-byte block size of every
other figure, replay and served request there is no classifier at all.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro import _env, obs
from repro.obs import trace as obs_trace
from repro.coherence.directory import MODIFIED, sharer_bit
from repro.coherence.false_sharing import MissClassification
from repro.coherence.multiprocessor import (
    AccessOutcomeRecord,
    CpuOutOfRangeError,
    MultiprocessorMemorySystem,
)
from repro.interconnect.traffic import BandwidthAccountant, TrafficClass
from repro.memory.cache import (
    DIRTY,
    PREFETCHED,
    USED,
    AccessOutcome,
    AccessResult,
    EvictedLine,
)
from repro.memory.hierarchy import MemoryLevel
from repro.prefetch.base import NullPrefetcher, Prefetcher
from repro.simulation.census import (  # noqa: F401 - the census's long-standing import path
    absorb_engine_path_counts,
    engine_path_counts,
    format_engine_path_counts,
)
from repro.simulation.config import SimulationConfig
from repro.trace.record import ExecutionMode, MemoryAccess
from repro.trace.stream import (
    DEFAULT_CHUNK_SIZE,
    TraceStream,
    lane_chunk_iterator,
    resolve_warmup_count,
)
from repro.workloads.names import WorkloadMetadata

#: Environment variable enabling the simulation-time telemetry probe: a
#: positive integer N samples prediction quality every N measured records.
TELEMETRY_ENV_VAR = "REPRO_TRACE_TELEMETRY"


class _TelemetryProbe:
    """Samples prediction quality over trace position, once per interval.

    ``note`` is called at chunk boundaries only (the lane fast path stays
    batched; per-record work is untouched), and reads counters the engine
    already maintains — the probe never mutates simulation state, so
    results with and without it are byte-identical.
    """

    __slots__ = ("engine", "interval", "samples", "_next")

    def __init__(self, engine: "SimulationEngine", interval: int) -> None:
        self.engine = engine
        self.interval = interval
        self.samples: List[Dict[str, float]] = []
        self._next = interval

    def note(self, position: int) -> None:
        """Record one sample when ``position`` crossed the next boundary.

        A chunk spanning several boundaries yields one sample (the counters
        at its end), keeping sample cost proportional to chunks, not
        records.
        """
        if position < self._next:
            return
        self._next = (position // self.interval + 1) * self.interval
        result = self.engine.result
        occupancy = 0
        for prefetcher in self.engine.prefetchers:
            pht = getattr(prefetcher, "pht", None)
            if pht is not None:
                occupancy += getattr(pht, "occupancy", 0)
        self.samples.append({
            "position": position,
            "accesses": result.accesses,
            "l1_coverage": round(result.l1_coverage(), 6),
            "l2_coverage": round(result.l2_coverage(), 6),
            "l1_overprediction_rate": round(result.l1_overprediction_rate(), 6),
            "pht_occupancy": occupancy,
        })


def _flush_engine_metrics(path: str, records: int) -> None:
    """One batched census + metrics flush per engine run.

    Called after the chunk loop — mirroring the per-chunk stat tallies,
    nothing observable happens per record — so the lane loop pays a
    handful of dict operations per *run* for its instrumentation.
    """
    absorb_engine_path_counts({path: 1})
    if records:
        obs.counter(
            "repro_engine_records_total",
            "Trace records simulated (warmup + measurement), by path.",
            labels=("path",),
        ).labels(path).inc(records)


#: A factory building the prefetcher for one CPU.
PrefetcherFactory = Callable[[int], Prefetcher]


def _every_access(pc: int, address: int) -> bool:
    return True


#: Lane dispatch slot of a prefetcher without a ``lane_hook()``: something to
#: do on every access, and no block shift — which is how the lane loop tells
#: it from a lane hook's runs and boxes the access for ``on_access`` instead.
_BOXED_SLOT = (_every_access, None, None)


class SimulationResult:
    """Counters produced by one simulation run (measurement phase only).

    Besides the counters: ``traffic`` (bandwidth accounting), ``workload``
    (the trace's metadata), ``telemetry`` — simulation-time telemetry
    (``{"interval": N, "samples": [...]}``), populated only when the probe is
    enabled — and ``engine_path``, which loop produced these counters
    (``"lanes"``, or ``"reference"`` for a ``run(..., lanes=False)``).  The
    last two are run metadata, deliberately excluded from :meth:`as_dict`: the
    golden counters must stay byte-identical whether or not the probe ran.
    """

    __slots__ = (
        "name",
        "num_cpus",
        "accesses",
        "reads",
        "writes",
        "system_accesses",
        "instructions",
        # L1 behaviour (summed over all private L1s).
        "l1_read_misses",
        "l1_write_misses",
        "l1_read_covered",
        "l1_write_covered",
        "l1_overpredictions",
        # L2 / off-chip behaviour.
        "l2_demand_reads",
        "l2_read_hits",
        "offchip_read_misses",
        "offchip_write_misses",
        "l2_read_covered",
        "l2_overpredictions",
        # Sharing behaviour.
        "false_sharing_misses",
        "invalidations",
        # Prefetch activity.
        "prefetches_issued",
        "prefetch_fills_l1",
        "prefetch_fills_l2",
        "traffic",
        "workload",
        "telemetry",
        "engine_path",
    )

    def __init__(
        self,
        name: str = "",
        num_cpus: int = 1,
        accesses: int = 0,
        reads: int = 0,
        writes: int = 0,
        system_accesses: int = 0,
        instructions: int = 0,
        l1_read_misses: int = 0,
        l1_write_misses: int = 0,
        l1_read_covered: int = 0,
        l1_write_covered: int = 0,
        l1_overpredictions: int = 0,
        l2_demand_reads: int = 0,
        l2_read_hits: int = 0,
        offchip_read_misses: int = 0,
        offchip_write_misses: int = 0,
        l2_read_covered: int = 0,
        l2_overpredictions: int = 0,
        false_sharing_misses: int = 0,
        invalidations: int = 0,
        prefetches_issued: int = 0,
        prefetch_fills_l1: int = 0,
        prefetch_fills_l2: int = 0,
        traffic: Optional[BandwidthAccountant] = None,
        workload: Optional[WorkloadMetadata] = None,
        telemetry: Optional[Dict] = None,
        engine_path: str = "",
    ) -> None:
        self.name = name
        self.num_cpus = num_cpus
        self.accesses = accesses
        self.reads = reads
        self.writes = writes
        self.system_accesses = system_accesses
        self.instructions = instructions
        self.l1_read_misses = l1_read_misses
        self.l1_write_misses = l1_write_misses
        self.l1_read_covered = l1_read_covered
        self.l1_write_covered = l1_write_covered
        self.l1_overpredictions = l1_overpredictions
        self.l2_demand_reads = l2_demand_reads
        self.l2_read_hits = l2_read_hits
        self.offchip_read_misses = offchip_read_misses
        self.offchip_write_misses = offchip_write_misses
        self.l2_read_covered = l2_read_covered
        self.l2_overpredictions = l2_overpredictions
        self.false_sharing_misses = false_sharing_misses
        self.invalidations = invalidations
        self.prefetches_issued = prefetches_issued
        self.prefetch_fills_l1 = prefetch_fills_l1
        self.prefetch_fills_l2 = prefetch_fills_l2
        self.traffic = traffic
        self.workload = workload
        self.telemetry = telemetry
        self.engine_path = engine_path

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def l1_read_references(self) -> int:
        return self.reads

    @property
    def baseline_l1_read_misses(self) -> int:
        """Read misses the system would (approximately) incur without prefetching."""
        return self.l1_read_misses + self.l1_read_covered

    @property
    def baseline_offchip_read_misses(self) -> int:
        return self.offchip_read_misses + self.l2_read_covered

    def l1_coverage(self) -> float:
        """Fraction of L1 read misses eliminated by the prefetcher."""
        baseline = self.baseline_l1_read_misses
        return self.l1_read_covered / baseline if baseline else 0.0

    def l2_coverage(self) -> float:
        """Fraction of off-chip read misses eliminated by the prefetcher."""
        baseline = self.baseline_offchip_read_misses
        return self.l2_read_covered / baseline if baseline else 0.0

    def l1_overprediction_rate(self) -> float:
        baseline = self.baseline_l1_read_misses
        return self.l1_overpredictions / baseline if baseline else 0.0

    def l2_overprediction_rate(self) -> float:
        baseline = self.baseline_offchip_read_misses
        return self.l2_overpredictions / baseline if baseline else 0.0

    def l1_read_mpki(self) -> float:
        return 1000.0 * self.l1_read_misses / self.instructions if self.instructions else 0.0

    def offchip_read_mpki(self) -> float:
        return 1000.0 * self.offchip_read_misses / self.instructions if self.instructions else 0.0

    def false_sharing_fraction(self) -> float:
        total = self.l1_read_misses + self.l1_write_misses
        return self.false_sharing_misses / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "accesses": self.accesses,
            "instructions": self.instructions,
            "l1_read_misses": self.l1_read_misses,
            "l1_coverage": self.l1_coverage(),
            "l1_overprediction_rate": self.l1_overprediction_rate(),
            "offchip_read_misses": self.offchip_read_misses,
            "l2_coverage": self.l2_coverage(),
            "l2_overprediction_rate": self.l2_overprediction_rate(),
            "l1_read_mpki": self.l1_read_mpki(),
            "offchip_read_mpki": self.offchip_read_mpki(),
            "false_sharing_misses": self.false_sharing_misses,
        }


class SimulationEngine:
    """Couples the memory system with one prefetcher per processor."""

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        prefetcher_factory: Optional[PrefetcherFactory] = None,
        name: str = "",
    ) -> None:
        self.config = config or SimulationConfig()
        self.prefetcher_factory = prefetcher_factory or (lambda cpu: NullPrefetcher())
        self.name = name
        # Hot-path constants: per-record work must not re-derive these.
        self._block_size = self.config.block_size
        self._block_mask = ~(self.config.block_size - 1)
        self.memory = MultiprocessorMemorySystem(
            num_cpus=self.config.num_cpus,
            block_size=self.config.block_size,
            l1_capacity=self.config.l1_capacity,
            l1_associativity=self.config.l1_associativity,
            l2_capacity=self.config.l2_capacity,
            l2_associativity=self.config.l2_associativity,
            classify_false_sharing=self.config.classify_false_sharing,
        )
        self.prefetchers: List[Prefetcher] = [
            self.prefetcher_factory(cpu) for cpu in range(self.config.num_cpus)
        ]
        self._l1s = [self.memory.l1(cpu) for cpu in range(self.config.num_cpus)]
        # Forward L1 evictions/invalidations to the owning CPU's prefetcher.
        # Keep the listeners addressable so the lane fast path can verify the
        # listener lists are exactly the construction-time pair.
        self._l1_eviction_listeners = []
        for cpu in range(self.config.num_cpus):
            listener = self._make_eviction_listener(cpu)
            self._l1_eviction_listeners.append(listener)
            self.memory.l1(cpu).add_eviction_listener(listener)
        # Retire off-chip-coverage tracking for blocks that leave the chip, so
        # the side table stays O(cache state) on arbitrarily long traces.
        self._l2_eviction_listener = self._make_l2_eviction_listener()
        self.memory.l2.add_eviction_listener(self._l2_eviction_listener)
        self._measuring = True
        self.result = SimulationResult(name=name, num_cpus=self.config.num_cpus)
        self.result.traffic = BandwidthAccountant(block_size=self.config.block_size)
        self._instruction_baseline: Dict[int, int] = {}
        self._instruction_latest: Dict[int, int] = {}
        # Blocks the prefetcher brought on-chip whose first demand use is
        # still pending, plus a count of tracked blocks that left the chip
        # unused (definitive overpredictions).  Together these replace the
        # old unbounded block -> used dict.
        self._offchip_prefetched_unused: Set[int] = set()
        self._offchip_prefetched_wasted = 0
        self._l1_overprediction_baseline = 0

    # ------------------------------------------------------------------ #
    def _make_eviction_listener(self, cpu: int):
        # The caches this engine owns call back into it.  The listeners hold
        # the engine weakly: a strong reference would close the cycle engine
        # -> memory -> cache listeners -> engine, and every finished run (cache
        # sets, directory, PHT and all) would wait for the cycle collector
        # instead of being freed when the engine goes out of scope.  A memory
        # system kept past its engine has nobody left to tell.
        engine = weakref.ref(self)

        def _listener(evicted) -> None:
            self = engine()
            if self is None:
                return
            block = evicted.block_addr
            if (
                block in self._offchip_prefetched_unused
                and not self.memory.l2.contains(block)
                and not self._resident_in_any_l1(block)
            ):
                # The prefetched block left the chip without ever being
                # demand-used: a definitive overprediction.
                self._offchip_prefetched_unused.discard(block)
                self._offchip_prefetched_wasted += 1
            prefetcher = self.prefetchers[cpu]
            self._apply_response(
                cpu, prefetcher.on_eviction(block, invalidated=evicted.invalidated)
            )

        return _listener

    def _make_l2_eviction_listener(self):
        engine = weakref.ref(self)

        def _listener(evicted) -> None:
            self = engine()
            if self is not None:
                self._on_l2_eviction(evicted)

        return _listener

    def _on_l2_eviction(self, evicted) -> None:
        block = evicted.block_addr
        if block in self._offchip_prefetched_unused and not self._resident_in_any_l1(block):
            self._offchip_prefetched_unused.discard(block)
            self._offchip_prefetched_wasted += 1

    def _resident_in_any_l1(self, block: int) -> bool:
        return any(l1.contains(block) for l1 in self._l1s)

    def _apply_response(self, cpu: int, response) -> None:
        """Do what a prefetcher's response asks for, as :meth:`_step` does."""
        if response.forced_evictions:
            self._apply_forced_evictions(cpu, response.forced_evictions)
        if response.prefetches:
            self._apply_prefetches(cpu, response.prefetches)

    def _apply_forced_evictions(self, cpu: int, blocks: Iterable[int]) -> None:
        l1 = self.memory.l1(cpu)
        for block in blocks:
            l1.invalidate(block)

    def _apply_prefetches(self, cpu: int, prefetches) -> None:
        # Stream responses can carry many requests per access; bind the
        # loop-invariant lookups once.  Nothing here can change mid-call:
        # _measuring/result only change at the warmup boundary in run().
        block_mask = self._block_mask
        memory = self.memory
        l2_contains = memory.l2.contains
        prefetch_fill = memory.prefetch_fill
        tracked = self._offchip_prefetched_unused
        measuring = self._measuring
        result = self.result
        record_transfer = result.traffic.record_block_transfer
        for request in prefetches:
            block = request.address & block_mask
            was_offchip = not l2_contains(block)
            prefetch_fill(
                cpu,
                request.address,
                into_l1=request.target_l1,
                into_l2=True,
            )
            if was_offchip:
                # Track blocks the prefetcher brought on-chip; the first demand
                # access to one of them is an off-chip miss that was covered.
                tracked.add(block)
            if measuring:
                result.prefetches_issued += 1
                if request.target_l1:
                    result.prefetch_fills_l1 += 1
                result.prefetch_fills_l2 += 1
                record_transfer(TrafficClass.PREFETCH)

    # ------------------------------------------------------------------ #
    def _record_outcome(self, record: MemoryAccess, outcome: AccessOutcomeRecord) -> None:
        result = self.result
        is_read = record.is_read
        result.accesses += 1
        if is_read:
            result.reads += 1
        else:
            result.writes += 1
        if record.mode is ExecutionMode.SYSTEM:
            result.system_accesses += 1
        result.invalidations += outcome.invalidations_sent

        if outcome.l1_result.is_prefetch_hit:
            if is_read:
                result.l1_read_covered += 1
            else:
                result.l1_write_covered += 1

        # Off-chip coverage: the first demand use of a block the prefetcher
        # brought on-chip (and that has not been evicted everywhere since) is
        # an off-chip miss that the prefetcher eliminated.  Either way the
        # block's tracking entry is consumed, keeping the side table bounded.
        tracked = self._offchip_prefetched_unused
        if tracked:
            block = record.address & self._block_mask
            if block in tracked:
                tracked.discard(block)
                if outcome.level is MemoryLevel.MEMORY:
                    # The prefetched copy was lost before this use: wasted.
                    self._offchip_prefetched_wasted += 1
                elif is_read:
                    result.l2_read_covered += 1

        if outcome.l1_result.is_miss:
            if is_read:
                result.l1_read_misses += 1
            else:
                result.l1_write_misses += 1
            traffic = result.traffic
            traffic.record_block_transfer(TrafficClass.DEMAND_FETCH)
            traffic.record_useful_bytes(self._block_size)
            if outcome.false_sharing:
                result.false_sharing_misses += 1
            if is_read:
                result.l2_demand_reads += 1
                if outcome.level is MemoryLevel.L2:
                    result.l2_read_hits += 1
                else:
                    result.offchip_read_misses += 1
            elif outcome.level is MemoryLevel.MEMORY:
                result.offchip_write_misses += 1

    def _snapshot_overpredictions(self) -> None:
        """Copy prefetched-but-unused counters from the caches into the result."""
        l1_total = sum(l1.stats.prefetched_evicted_unused for l1 in self._l1s)
        self.result.l1_overpredictions = l1_total - self._l1_overprediction_baseline
        # Off-chip overpredictions: blocks the prefetcher brought on-chip during
        # the measurement phase that no demand access has used — the ones still
        # tracked plus the ones already retired as wasted.
        self.result.l2_overpredictions = (
            len(self._offchip_prefetched_unused) + self._offchip_prefetched_wasted
        )

    def _reset_measurement(self) -> None:
        """Begin the measurement phase: zero all counters, keep all state warm."""
        traffic = BandwidthAccountant(block_size=self.config.block_size)
        self.result = SimulationResult(
            name=self.name, num_cpus=self.config.num_cpus, traffic=traffic
        )
        self._l1_overprediction_baseline = sum(
            l1.stats.prefetched_evicted_unused for l1 in self._l1s
        )
        self._instruction_baseline = dict(self._instruction_latest)
        self._offchip_prefetched_unused = set()
        self._offchip_prefetched_wasted = 0

    # ------------------------------------------------------------------ #
    def _resolve_warmup_count(
        self,
        trace: Iterable[MemoryAccess],
        limit: Optional[int],
        warmup_accesses: Optional[int],
    ) -> int:
        """Warmup length: explicit argument, then ``config.warmup_accesses``,
        then ``config.warmup_fraction`` of the trace's length hint (see
        :func:`repro.trace.stream.resolve_warmup_count`)."""
        if warmup_accesses is None:
            warmup_accesses = self.config.warmup_accesses
        return resolve_warmup_count(
            trace,
            fraction=self.config.warmup_fraction,
            limit=limit,
            warmup_accesses=warmup_accesses,
        )

    def _lane_hooks(self):
        """Per-CPU dispatch table of the lane loop.

        Each slot is ``None`` (a :class:`NullPrefetcher`: skip the per-access
        prefetcher call entirely), ``(fn, target_l1, block_shift)`` where
        ``fn`` is the prefetcher's :meth:`~repro.prefetch.base.Prefetcher.lane_hook`,
        or :data:`_BOXED_SLOT` for a prefetcher without one (GHB,
        sectored-trainer SMS, ...), whose accesses the loop boxes for
        ``on_access`` — that CPU's only; the memory system around it stays
        fused, and CPUs may mix all three.
        """
        hooks = []
        for prefetcher in self.prefetchers:
            if type(prefetcher) is NullPrefetcher:
                hooks.append(None)
                continue
            fn = prefetcher.lane_hook()
            if fn is None:
                hooks.append(_BOXED_SLOT)
            else:
                hooks.append((fn, prefetcher.streams_into_l1, prefetcher.lane_block_shift))
        return hooks

    def _resolve_telemetry(self, telemetry_interval: Optional[int]) -> Optional[int]:
        """Probe interval: explicit argument, then ``REPRO_TRACE_TELEMETRY``."""
        if telemetry_interval is not None:
            return telemetry_interval if telemetry_interval > 0 else None
        value = _env.read(TELEMETRY_ENV_VAR)
        if not value:
            return None
        try:
            interval = int(value)
        except ValueError:
            return None
        return interval if interval > 0 else None

    def run(
        self,
        trace: Iterable[MemoryAccess],
        limit: Optional[int] = None,
        warmup_accesses: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        lanes: bool = True,
        telemetry_interval: Optional[int] = None,
    ) -> SimulationResult:
        """Run ``trace`` through the engine and return the measurement-phase result.

        The trace is consumed lazily in chunks of ``chunk_size`` records; it
        is never materialized, so arbitrarily long streams run in O(cache
        state + chunk) memory.  Streams that decode in chunks natively
        (:class:`~repro.trace.binary.BinaryTraceStream`) hand their decoded
        batches straight to the engine — no per-record generator hop.  The
        first ``warmup_accesses`` records (or ``config.warmup_fraction`` of
        the trace's length hint) warm caches and predictor state; counters
        are reset at the warmup boundary.  ``limit`` lazily truncates the
        trace, doing finite work even on an endless generator.

        The trace is walked as flat integer lanes by :meth:`_step_lanes`
        without boxing a :class:`MemoryAccess` per record.  Lane-native inputs
        (:class:`~repro.trace.binary.LaneTrace`, ``.strc`` streams, synthetic
        workloads) hand their lanes over as they are; every other input —
        text traces, record lists, generators — is transposed one chunk at a
        time.  Every configuration takes this loop: a prefetcher without a
        ``lane_hook()`` has its own accesses boxed for ``on_access`` inside
        it.  ``lanes=False`` steps the same chunks record by record through
        :meth:`_step` over ``memory.access`` instead — the reference the
        parity tests and the benchmark's probes compare the lane loop
        against, bit-identical by the golden-counter tests.  The result's
        ``engine_path`` and the ``engine.run`` span say which loop ran.

        ``telemetry_interval`` (or ``REPRO_TRACE_TELEMETRY=N``) enables the
        simulation-time probe: every N measured records — sampled at chunk
        boundaries, so the fast path stays batched — prediction quality
        (coverage, overprediction, PHT occupancy) is recorded and exposed
        as ``result.telemetry``.  The probe reads counters only; golden
        results are identical with and without it.
        """
        interval = self._resolve_telemetry(telemetry_interval)
        probe = _TelemetryProbe(self, interval) if interval else None
        with obs_trace.span(
            "engine.run", {"engine": self.name or "engine", "cpus": self.config.num_cpus}
        ) as span:
            result = self._run_impl(trace, limit, warmup_accesses, chunk_size, lanes, probe)
            if probe is not None:
                result.telemetry = {"interval": probe.interval, "samples": probe.samples}
                # When a trace is active, the time-series also lands in the
                # trace file so trace-report can plot it next to the spans.
                obs_trace.emit("telemetry", obs_trace.current(), {
                    "name": self.name or "engine",
                    "interval": probe.interval,
                    "samples": probe.samples,
                })
            span.set("accesses", result.accesses)
            span.set("engine_path", result.engine_path)
            return result

    def _run_impl(
        self,
        trace: Iterable[MemoryAccess],
        limit: Optional[int],
        warmup_accesses: Optional[int],
        chunk_size: int,
        lanes: bool,
        probe: Optional[_TelemetryProbe],
    ) -> SimulationResult:
        warmup_count = self._resolve_warmup_count(trace, limit, warmup_accesses)

        if lanes:
            engine_path = "lanes"
            hooks = self._lane_hooks()
            step_lanes = self._step_lanes

            def step_chunk(chunk) -> None:
                step_lanes(chunk, hooks)

        else:
            engine_path = "reference"
            step = self._step

            def step_chunk(chunk) -> None:
                for record in chunk.records():
                    step(record)

        self._measuring = warmup_count == 0
        if self._measuring:
            self._reset_measurement()
        remaining_warmup = warmup_count
        simulated = 0
        for chunk in lane_chunk_iterator(trace, chunk_size, limit):
            simulated += len(chunk)
            if not self._measuring:
                head = len(chunk)
                if remaining_warmup < head:
                    head = remaining_warmup
                    step_chunk(chunk.slice(0, head))
                    chunk = chunk.slice(head, None)
                    remaining_warmup = 0
                    self._reset_measurement()
                    self._measuring = True
                else:
                    step_chunk(chunk)
                    remaining_warmup -= head
                    continue
            step_chunk(chunk)
            if probe is not None:
                probe.note(simulated - warmup_count)

        _flush_engine_metrics(engine_path, simulated)
        if not self._measuring:
            # The stream ended inside the warmup phase (overestimated length
            # hint, or warmup_accesses/limit beyond the trace).  Reset so the
            # result is a clean, empty measurement phase rather than a
            # snapshot of warmup-phase tracking state.
            self._reset_measurement()
            self._measuring = True

        for prefetcher in self.prefetchers:
            prefetcher.finalize()
        self._snapshot_overpredictions()
        self._finalize_instructions()
        if isinstance(trace, TraceStream):
            metadata = getattr(trace, "metadata", None)
            if isinstance(metadata, WorkloadMetadata):
                self.result.workload = metadata
        self.result.engine_path = engine_path
        return self.result

    def _step(self, record: MemoryAccess) -> None:
        outcome = self.memory.access(record)
        cpu = record.cpu
        icount = record.instruction_count
        latest = self._instruction_latest
        if icount > latest.get(cpu, 0):
            latest[cpu] = icount
        if self._measuring:
            self._record_outcome(record, outcome)
        response = self.prefetchers[cpu].on_access(record, outcome)
        if response.forced_evictions:
            self._apply_forced_evictions(cpu, response.forced_evictions)
        if response.prefetches:
            self._apply_prefetches(cpu, response.prefetches)

    def _lane_inline_evictions(self) -> bool:
        """True when every eviction-listener list is exactly the pair that
        construction registered (the memory system's directory-evict listener
        plus the engine's prefetcher forwarder; only the engine's retirement
        hook on the L2).  Then :meth:`_step_lanes` may run that work inline
        per eviction instead of through the listener closures.  Any extra
        listener (tests, tooling) forces the generic dispatch, which stays
        correct for arbitrary listener lists."""
        memory = self.memory
        directory_listeners = getattr(memory, "_directory_listeners", None)
        if directory_listeners is None or len(directory_listeners) != len(memory._l1s):
            return False
        for cpu, l1 in enumerate(memory._l1s):
            expected = [directory_listeners[cpu], self._l1_eviction_listeners[cpu]]
            if l1._eviction_listeners != expected:
                return False
        return memory.l2._eviction_listeners == [self._l2_eviction_listener]

    def _lane_boxed_access(self):
        """The lane loop's adapter for prefetchers without a ``lane_hook()``.

        ``fn(cpu, pc, address, code, icount, l1_hit, flags, false_sharing,
        invalidations_sent)`` rebuilds the record and the outcome
        ``memory.access`` would have returned for an access the fused loop
        just performed — ``flags`` are the line's before the access, the L1's
        on a hit, else the L2's (``None``: off-chip) — hands them to that
        CPU's ``on_access`` and applies the response as :meth:`_step` does.
        The outcome carries what the loop knows: levels and hit / prefetch-hit
        / miss results are exact, the install victims (``evicted``) are not
        kept, and the miss classification is ``FALSE_SHARING`` or ``None``.
        """
        prefetchers = self.prefetchers
        apply_response = self._apply_response
        block_mask = self._block_mask
        unused_prefetch = PREFETCHED | USED  # mask; == PREFETCHED when unused
        hit = AccessOutcome.HIT
        prefetch_hit = AccessOutcome.PREFETCH_HIT
        miss = AccessOutcome.MISS

        def boxed_access(
            cpu, pc, address, code, icount, l1_hit, flags, false_sharing, invalidations_sent
        ) -> None:
            record = tuple.__new__(MemoryAccess, (pc, address, code, cpu, icount))  # repro: ignore[HOT004] -- the one boxing on the lane path: on_access of a prefetcher without a lane hook takes a record, and only that CPU's accesses pay for it
            block = address & block_mask
            if flags is None:
                served = miss
            else:
                served = prefetch_hit if flags & unused_prefetch == PREFETCHED else hit
            if l1_hit:
                outcome = AccessOutcomeRecord(
                    record, MemoryLevel.L1, AccessResult(served, block),
                    invalidations_sent=invalidations_sent,
                )
            else:
                outcome = AccessOutcomeRecord(
                    record,
                    MemoryLevel.MEMORY if flags is None else MemoryLevel.L2,
                    AccessResult(miss, block),
                    AccessResult(served, block),
                    MissClassification.FALSE_SHARING if false_sharing else None,
                    invalidations_sent,
                )
            apply_response(cpu, prefetchers[cpu].on_access(record, outcome))

        return boxed_access

    def _step_lanes(self, chunk, hooks) -> None:
        """Simulate one lane chunk with the same semantics as :meth:`_step`.

        One fused loop walks the flat integer lanes and inlines the work of
        ``memory.access`` (directory transaction, L1 lookup/install, miss
        classification, L2 lookup/install), ``_record_outcome``, and
        ``_apply_prefetches`` (a lane hook's ``(region, bits)`` runs are
        drained bit by bit in place).  No ``MemoryAccess`` / ``AccessResult``
        / ``AccessOutcomeRecord`` / ``CoherenceActions`` / ``DirectoryEntry``
        / ``CacheLine`` / address list is ever constructed — except for the
        accesses of a CPU whose prefetcher has no lane hook, which
        :meth:`_lane_boxed_access` boxes for its ``on_access``.  Counter effects
        are accumulated in locals and flushed once per chunk (all shared-object
        reads below are loop-invariant: ``result`` / ``_measuring`` / the
        tracked set only change at warmup boundaries between chunks).

        The cache sets are read and written in place, in the layout
        :mod:`repro.memory.cache` documents: one ``block -> flags`` dict per
        set, kept least- to most-recently used.  A lookup or residency probe
        is ``block in cache_set``, a hit pops the block and re-appends it
        with the demand bits or-ed in, a fill is one dict store, and the LRU
        victim is the first key.

        The directory is read and written in place too, in the layout
        :mod:`repro.coherence.directory` documents: one int per cached block,
        a sharer bit per CPU plus the MODIFIED mark.  A request is
        ``entries.get(block, 0)`` and an or / compare, a write walks the
        other sharer bits in ascending order to invalidate them, and a
        replacement clears the CPU's bit and deletes the word once empty.

        Bit-identity with the reference path is load-bearing and covered by
        the golden-counter tests; event *order* within a record mirrors the
        reference exactly (directory before L1, install before
        classification, classification before L2, eviction listeners fired
        mid-install in registration order).
        """
        memory = self.memory
        num_cpus = memory.num_cpus
        block_mask = self._block_mask

        # Directory words (block -> sharer bits | MODIFIED mark; a block nobody
        # caches has no entry), in the layout repro.coherence.directory documents.
        directory = memory.directory
        entries = directory._entries
        modified = MODIFIED
        cpu_bits = [sharer_bit(cpu) for cpu in range(num_cpus)]

        classifier = memory.classifier
        classify_block_miss = record_invalidation = record_remote_write = None
        if classifier is not None:
            classify_block_miss = classifier.classify_block_miss
            record_invalidation = classifier.record_invalidation
            record_remote_write = classifier.record_remote_write

        l1s = memory._l1s
        l1_sets = [l1._sets for l1 in l1s]
        l1_stats = [l1.stats for l1 in l1s]
        l1_listeners = [l1._eviction_listeners for l1 in l1s]
        l1_invalidate = [l1.invalidate for l1 in l1s]
        l1_assoc = l1s[0].associativity
        l1_shift = l1s[0]._index_shift
        l1_set_mask = l1s[0]._set_mask

        l2 = memory.l2
        l2_sets = l2._sets
        l2_stats = l2.stats
        l2_listeners = l2._eviction_listeners
        l2_assoc = l2.associativity
        l2_shift = l2._index_shift
        l2_set_mask = l2._set_mask

        # Line flags (the values of the set dicts; see repro.memory.cache).
        dirty = DIRTY
        prefetched = PREFETCHED
        used = USED
        used_dirty = USED | DIRTY
        unused_prefetch = PREFETCHED | USED  # mask; == prefetched when unused

        prefetchers = self.prefetchers
        apply_response = self._apply_response
        boxed_access = self._lane_boxed_access()
        inline_evictions = self._lane_inline_evictions()

        # Per-CPU eviction handlers for the inlined listener path: ``None``
        # skips the call (NullPrefetcher's on_eviction is a stateless no-op),
        # a lane eviction hook runs unboxed, anything else falls back to the
        # boxed on_eviction + response application.
        evict_hooks = []
        for hook_cpu, prefetcher in enumerate(prefetchers):
            if type(prefetcher) is NullPrefetcher:
                evict_hooks.append(None)
                continue
            fn = prefetcher.lane_eviction_hook()
            if fn is None:

                def fn(block, _cpu=hook_cpu, _prefetcher=prefetcher):
                    apply_response(_cpu, _prefetcher.on_eviction(block, invalidated=False))

            evict_hooks.append(fn)

        measuring = self._measuring
        tracked = self._offchip_prefetched_unused
        latest = self._instruction_latest
        inst_max = [latest.get(cpu, 0) for cpu in range(num_cpus)]
        total_inst = memory.total_instructions

        # Cache-statistics tallies, flushed per chunk.  Mid-chunk readers of
        # hit/access counters would see deferred values, but the only
        # mid-chunk code is the construction-time eviction listeners and the
        # prefetchers, which read none of these (eviction-side stats stay
        # live in the install helpers).
        zeros = [0] * num_cpus
        c1_reads = list(zeros)
        c1_writes = list(zeros)
        c1_hits = list(zeros)
        c1_pf_hits = list(zeros)
        c1_read_misses = list(zeros)
        c1_write_misses = list(zeros)
        c1_pf_fills = list(zeros)
        c2_reads = c2_writes = c2_hits = c2_pf_hits = 0
        c2_read_misses = c2_write_misses = c2_pf_fills = 0

        def evict_l1(cpu, cache_set):
            """Inlined replacement half of ``SetAssociativeCache._install`` for
            a full L1 set: drop the LRU victim, count it, then run the
            construction-time eviction listeners (directory evict, tracked-block
            retirement, prefetcher forwarding) — themselves inlined when
            verified safe, dispatched generically otherwise."""
            stats = l1_stats[cpu]
            for vblock in cache_set:  # first key = LRU victim
                break
            vflags = cache_set.pop(vblock)
            stats.evictions += 1
            if vflags & dirty:
                stats.dirty_evictions += 1
            if vflags & unused_prefetch == prefetched:
                stats.prefetched_evicted_unused += 1
            if inline_evictions:
                # Directory.evict(cpu, vblock): clear the sharer bit (and the
                # MODIFIED mark, which only its owner's bit carries).
                bit = cpu_bits[cpu]
                word = entries.get(vblock, 0)
                if word & bit:
                    word &= ~(bit | modified)
                    if word:
                        entries[vblock] = word
                    else:
                        del entries[vblock]
                # Engine listener: retire tracked blocks that left the chip
                # (residency probes inlined; vblock is block-aligned so
                # Cache.contains' masking is a no-op).
                if (
                    vblock in tracked
                    and vblock not in l2_sets[(vblock >> l2_shift) & l2_set_mask]
                ):
                    vindex = (vblock >> l1_shift) & l1_set_mask
                    for sets in l1_sets:
                        if vblock in sets[vindex]:
                            break
                    else:
                        tracked.discard(vblock)
                        self._offchip_prefetched_wasted += 1
                handler = evict_hooks[cpu]
                if handler is not None:
                    handler(vblock)
            else:
                evicted_line = EvictedLine(
                    vblock, bool(vflags & dirty), bool(vflags & prefetched),
                    bool(vflags & used), False,
                )
                for listener in l1_listeners[cpu]:
                    listener(evicted_line)

        def evict_l2(cache_set):
            """The same for a full L2 set (sole listener: the engine's
            tracked-block retirement hook)."""
            for vblock in cache_set:  # first key = LRU victim
                break
            vflags = cache_set.pop(vblock)
            l2_stats.evictions += 1
            if vflags & dirty:
                l2_stats.dirty_evictions += 1
            if vflags & unused_prefetch == prefetched:
                l2_stats.prefetched_evicted_unused += 1
            if inline_evictions:
                if vblock in tracked:
                    vindex = (vblock >> l1_shift) & l1_set_mask
                    for sets in l1_sets:
                        if vblock in sets[vindex]:
                            break
                    else:
                        tracked.discard(vblock)
                        self._offchip_prefetched_wasted += 1
            else:
                evicted_line = EvictedLine(
                    vblock, bool(vflags & dirty), bool(vflags & prefetched),
                    bool(vflags & used), False,
                )
                for listener in l2_listeners:
                    listener(evicted_line)

        # Per-chunk counter accumulators, flushed in the finally block (so a
        # mid-chunk ValueError leaves exactly the already-processed records
        # counted, as the per-record reference path would).
        n_done = 0
        dir_reads = dir_writes = dir_invals = dir_downgrades = 0
        m_reads = m_writes = m_system = m_invalidations = 0
        m_l1_read_cov = m_l1_write_cov = m_l2_read_cov = 0
        m_l1_read_miss = m_l1_write_miss = m_false_sharing = 0
        m_l2_demand_reads = m_l2_read_hits = 0
        m_offchip_reads = m_offchip_writes = 0
        m_pf_issued = m_pf_l1 = 0

        try:
            for pc, address, code, cpu, icount in zip(
                chunk.pc, chunk.address, chunk.code, chunk.cpu, chunk.instruction_count
            ):
                if cpu >= num_cpus:
                    raise CpuOutOfRangeError(cpu, num_cpus)
                n_done += 1
                if icount > inst_max[cpu]:
                    inst_max[cpu] = icount
                    if icount > total_inst:
                        total_inst = icount

                is_write = (code & 1) == 1
                block = address & block_mask

                # --- Directory transaction (before the local lookup). -------
                invalidations_sent = 0
                bit = cpu_bits[cpu]
                word = entries.get(block, 0)
                if is_write:
                    dir_writes += 1
                    mine = bit | modified
                    if word != mine:
                        entries[block] = mine
                        others = word & ~mine
                        while others:  # ascending scan of the other sharers
                            low = others & -others
                            others ^= low
                            other = low.bit_length() - 2
                            invalidations_sent += 1
                            evicted = l1_invalidate[other](block)
                            if evicted is not None:
                                if record_invalidation is not None:
                                    record_invalidation(other, block, address)
                            elif record_remote_write is not None:
                                record_remote_write(other, block, address)
                        dir_invals += invalidations_sent
                else:
                    dir_reads += 1
                    if not word & bit:
                        # A MODIFIED word without our bit is a remote owner's.
                        if word & modified:
                            dir_downgrades += 1
                            word ^= modified
                        entries[block] = word | bit

                # --- L1 lookup (install-on-miss inlined). -------------------
                cache_set = l1_sets[cpu][(address >> l1_shift) & l1_set_mask]
                if is_write:
                    c1_writes[cpu] += 1
                else:
                    c1_reads[cpu] += 1
                l1_prefetch_hit = l2_hit = False
                flags = cache_set.pop(block, None)
                l1_hit = flags is not None
                if l1_hit:
                    # Re-append: the block becomes most recently used.
                    if flags & unused_prefetch == prefetched:
                        l1_prefetch_hit = True
                        c1_pf_hits[cpu] += 1
                    c1_hits[cpu] += 1
                    cache_set[block] = flags | (used_dirty if is_write else used)
                else:
                    if is_write:
                        c1_write_misses[cpu] += 1
                    else:
                        c1_read_misses[cpu] += 1
                    if len(cache_set) >= l1_assoc:
                        evict_l1(cpu, cache_set)
                    cache_set[block] = used_dirty if is_write else used

                    # --- Miss classification, then shared L2. ---------------
                    was_false_sharing = (
                        classify_block_miss is not None and classify_block_miss(cpu, block)
                    )

                    l2_set = l2_sets[(address >> l2_shift) & l2_set_mask]
                    if is_write:
                        c2_writes += 1
                    else:
                        c2_reads += 1
                    flags = l2_set.pop(block, None)
                    l2_hit = flags is not None
                    if l2_hit:
                        if flags & unused_prefetch == prefetched:
                            c2_pf_hits += 1
                        c2_hits += 1
                        l2_set[block] = flags | (used_dirty if is_write else used)
                    else:
                        if is_write:
                            c2_write_misses += 1
                        else:
                            c2_read_misses += 1
                        if len(l2_set) >= l2_assoc:
                            evict_l2(l2_set)
                        l2_set[block] = used_dirty if is_write else used

                # --- Measurement counters (reference: _record_outcome). -----
                if measuring:
                    if is_write:
                        m_writes += 1
                    else:
                        m_reads += 1
                    if code & 2:
                        m_system += 1
                    m_invalidations += invalidations_sent
                    if l1_prefetch_hit:
                        if is_write:
                            m_l1_write_cov += 1
                        else:
                            m_l1_read_cov += 1
                    if tracked and block in tracked:
                        tracked.discard(block)
                        if not (l1_hit or l2_hit):
                            self._offchip_prefetched_wasted += 1
                        elif not is_write:
                            m_l2_read_cov += 1
                    if not l1_hit:
                        if is_write:
                            m_l1_write_miss += 1
                        else:
                            m_l1_read_miss += 1
                        if was_false_sharing:
                            m_false_sharing += 1
                        if is_write:
                            if not l2_hit:
                                m_offchip_writes += 1
                        else:
                            m_l2_demand_reads += 1
                            if l2_hit:
                                m_l2_read_hits += 1
                            else:
                                m_offchip_reads += 1

                # --- Prefetcher hook + stream fills (ref: _apply_prefetches).
                # The hook answers with (region, pattern bits) runs, streamed
                # lowest offset first by the directory's low-bit scan.
                hook = hooks[cpu]
                runs = hook and hook[0](pc, address)
                if runs:
                    _, target_l1, pshift = hook
                    if pshift is None:
                        # _BOXED_SLOT.  ``flags`` still holds what the last
                        # lookup of this access popped: the L1 line's on a
                        # hit, else the L2 line's (None: off-chip).
                        boxed_access(
                            cpu, pc, address, code, icount, l1_hit, flags,
                            not l1_hit and was_false_sharing, invalidations_sent,
                        )
                        continue
                    for pbase, pbits in runs:
                        count = bin(pbits).count("1")
                        dir_reads += count
                        if measuring:
                            m_pf_issued += count
                            if target_l1:
                                m_pf_l1 += count
                        while pbits:
                            low = pbits & -pbits
                            pbits ^= low
                            pblock = (pbase + ((low.bit_length() - 1) << pshift)) & block_mask
                            word = entries.get(pblock, 0)
                            if not word & bit:
                                if word & modified:
                                    dir_downgrades += 1
                                    word ^= modified
                                entries[pblock] = word | bit
                            # L2 fill.  A block the prefetch brought on-chip is
                            # tracked: its first demand use is a covered
                            # off-chip miss.
                            fset = l2_sets[(pblock >> l2_shift) & l2_set_mask]
                            if pblock not in fset:
                                c2_pf_fills += 1
                                if len(fset) >= l2_assoc:
                                    evict_l2(fset)
                                fset[pblock] = prefetched
                                tracked.add(pblock)
                            if target_l1:
                                fset = l1_sets[cpu][(pblock >> l1_shift) & l1_set_mask]
                                if pblock not in fset:
                                    c1_pf_fills[cpu] += 1
                                    if len(fset) >= l1_assoc:
                                        evict_l1(cpu, fset)
                                    fset[pblock] = prefetched
        finally:
            memory.total_accesses += n_done
            memory.total_instructions = total_inst
            for cpu in range(num_cpus):
                peak = inst_max[cpu]
                if peak > latest.get(cpu, 0):
                    latest[cpu] = peak
            directory.read_requests += dir_reads
            directory.write_requests += dir_writes
            directory.invalidations_sent += dir_invals
            directory.downgrades_sent += dir_downgrades
            for cpu in range(num_cpus):
                reads = c1_reads[cpu]
                writes = c1_writes[cpu]
                stats = l1_stats[cpu]
                if c1_pf_fills[cpu]:
                    stats.prefetch_fills += c1_pf_fills[cpu]
                if not (reads or writes):
                    continue
                stats.accesses += reads + writes
                stats.reads += reads
                stats.writes += writes
                stats.hits += c1_hits[cpu]
                rm = c1_read_misses[cpu]
                wm = c1_write_misses[cpu]
                stats.misses += rm + wm
                stats.read_misses += rm
                stats.write_misses += wm
                pf = c1_pf_hits[cpu]
                if pf:
                    stats.prefetch_hits += pf
                    stats.prefetched_used += pf
            if c2_pf_fills:
                l2_stats.prefetch_fills += c2_pf_fills
            if c2_reads or c2_writes:
                l2_stats.accesses += c2_reads + c2_writes
                l2_stats.reads += c2_reads
                l2_stats.writes += c2_writes
                l2_stats.hits += c2_hits
                l2_stats.misses += c2_read_misses + c2_write_misses
                l2_stats.read_misses += c2_read_misses
                l2_stats.write_misses += c2_write_misses
                if c2_pf_hits:
                    l2_stats.prefetch_hits += c2_pf_hits
                    l2_stats.prefetched_used += c2_pf_hits
            if measuring:
                result = self.result
                result.accesses += n_done
                result.reads += m_reads
                result.writes += m_writes
                result.system_accesses += m_system
                result.invalidations += m_invalidations
                result.l1_read_covered += m_l1_read_cov
                result.l1_write_covered += m_l1_write_cov
                result.l2_read_covered += m_l2_read_cov
                result.l1_read_misses += m_l1_read_miss
                result.l1_write_misses += m_l1_write_miss
                result.false_sharing_misses += m_false_sharing
                result.l2_demand_reads += m_l2_demand_reads
                result.l2_read_hits += m_l2_read_hits
                result.offchip_read_misses += m_offchip_reads
                result.offchip_write_misses += m_offchip_writes
                result.prefetches_issued += m_pf_issued
                result.prefetch_fills_l1 += m_pf_l1
                result.prefetch_fills_l2 += m_pf_issued
                traffic = result.traffic
                misses = m_l1_read_miss + m_l1_write_miss
                if misses:
                    traffic.record_block_transfer(TrafficClass.DEMAND_FETCH, misses)
                    traffic.record_useful_bytes(self._block_size * misses)
                if m_pf_issued:
                    traffic.record_block_transfer(TrafficClass.PREFETCH, m_pf_issued)

    def _finalize_instructions(self) -> None:
        total = 0
        for cpu, latest in self._instruction_latest.items():
            baseline = self._instruction_baseline.get(cpu, 0)
            total += max(0, latest - baseline)
        self.result.instructions = max(total, 1)


def run_simulation(
    trace: Iterable[MemoryAccess],
    config: Optional[SimulationConfig] = None,
    prefetcher_factory: Optional[PrefetcherFactory] = None,
    name: str = "",
    limit: Optional[int] = None,
    warmup_accesses: Optional[int] = None,
) -> SimulationResult:
    """Convenience wrapper: build an engine, run ``trace``, return the result."""
    engine = SimulationEngine(config=config, prefetcher_factory=prefetcher_factory, name=name)
    return engine.run(trace, limit=limit, warmup_accesses=warmup_accesses)
