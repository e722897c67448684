"""Memory access density (Figure 5) and generation tracking.

Figure 5 breaks down, for each application and cache level, the fraction of
read misses that occur in spatial region generations containing a given
number of missed blocks.  The same generation tracking also yields the
*opportunity* oracle of Figure 4 (one miss per generation), so the tracker
here is shared with :mod:`repro.analysis.opportunity`.

A generation is tracked per (cpu, region) at the L1 (private caches) and per
region at the shared L2; it ends when any block of the region leaves the
tracked cache (replacement or invalidation), matching the paper's definition.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # measure_density imports what it runs; histograms stay light
    from repro.core.region import RegionGeometry
    from repro.simulation.config import SimulationConfig
    from repro.trace.stream import TraceStream

#: Figure 5's density bins: (label, inclusive lower bound, inclusive upper bound).
DENSITY_BINS: List[Tuple[str, int, int]] = [
    ("1 block", 1, 1),
    ("2-3 blocks", 2, 3),
    ("4-7 blocks", 4, 7),
    ("8-15 blocks", 8, 15),
    ("16-23 blocks", 16, 23),
    ("24-31 blocks", 24, 31),
    ("32 blocks", 32, 10**9),
]


def bin_label_for(count: int) -> str:
    """Return the Figure-5 bin label for a generation with ``count`` missed blocks."""
    for label, low, high in DENSITY_BINS:
        if low <= count <= high:
            return label
    raise ValueError(f"count must be positive, got {count}")


class DensityHistogram:
    """Distribution of misses over generation densities for one cache level."""

    #: The fields; ``serve.jobs.jsonify`` sends them by these names.
    __slots__ = ("level", "region_size", "misses_by_bin", "generations", "total_misses")

    def __init__(
        self,
        level: str,
        region_size: int,
        misses_by_bin: Optional[Dict[str, int]] = None,
        generations: int = 0,
        total_misses: int = 0,
    ) -> None:
        self.level = level
        self.region_size = region_size
        self.misses_by_bin = {} if misses_by_bin is None else misses_by_bin
        self.generations = generations
        self.total_misses = total_misses

    def record_generation(self, missed_blocks: int) -> None:
        if missed_blocks <= 0:
            return
        label = bin_label_for(missed_blocks)
        self.misses_by_bin[label] = self.misses_by_bin.get(label, 0) + missed_blocks
        self.generations += 1
        self.total_misses += missed_blocks

    def fraction(self, label: str) -> float:
        return self.misses_by_bin.get(label, 0) / self.total_misses if self.total_misses else 0.0

    def fractions(self) -> Dict[str, float]:
        return {label: self.fraction(label) for label, _, _ in DENSITY_BINS}

    def mean_density(self) -> float:
        return self.total_misses / self.generations if self.generations else 0.0

    @property
    def oracle_misses(self) -> int:
        """Misses the Figure-4 oracle would incur: one per generation."""
        return self.generations

    def multi_block_fraction(self) -> float:
        """Fraction of misses in generations with more than one missed block."""
        single = self.misses_by_bin.get("1 block", 0)
        return (self.total_misses - single) / self.total_misses if self.total_misses else 0.0


class GenerationMissTracker:
    """Tracks missed-block footprints of spatial region generations at one level."""

    def __init__(self, level: str, geometry: RegionGeometry, per_cpu: bool) -> None:
        self.level = level
        self.geometry = geometry
        self.per_cpu = per_cpu
        self.histogram = DensityHistogram(level=level, region_size=geometry.region_size)
        self._active: Dict[Tuple[int, int], int] = {}

    def _key(self, cpu: int, address: int) -> Tuple[int, int]:
        region = self.geometry.region_base(address)
        return (cpu if self.per_cpu else 0, region)

    def on_miss(self, cpu: int, address: int) -> None:
        key = self._key(cpu, address)
        offset_bit = 1 << self.geometry.offset(address)
        self._active[key] = self._active.get(key, 0) | offset_bit

    def on_removal(self, cpu: int, block_address: int) -> None:
        key = self._key(cpu, block_address)
        bits = self._active.pop(key, None)
        if bits is not None:
            self.histogram.record_generation(bin(bits).count("1"))

    def close_all(self) -> None:
        for bits in self._active.values():
            self.histogram.record_generation(bin(bits).count("1"))
        self._active.clear()


def measure_density(
    trace: TraceStream,
    config: Optional[SimulationConfig] = None,
    region_size: int = 2048,
    reads_only: bool = True,
    limit: Optional[int] = None,
    warmup_fraction: Optional[float] = None,
) -> Dict[str, DensityHistogram]:
    """Measure L1 and L2 miss-density histograms for ``trace`` (no prefetching).

    The first ``warmup_fraction`` of the trace (defaulting to the simulation
    config's warmup) warms the caches: its misses are not recorded, so the
    histograms and oracle miss counts are directly comparable to a
    measurement-phase miss count from the simulation engine.
    """
    return measure_densities(
        trace, config, (region_size,), reads_only, limit, warmup_fraction
    )[region_size]


def measure_densities(
    trace: TraceStream,
    config: Optional[SimulationConfig],
    region_sizes: Sequence[int],
    reads_only: bool = True,
    limit: Optional[int] = None,
    warmup_fraction: Optional[float] = None,
) -> Dict[int, Dict[str, DensityHistogram]]:
    """:func:`measure_density` for every size of ``region_sizes`` in one pass.

    The hierarchy the trackers watch does not depend on the region size, so
    one simulation feeds a pair of trackers per size.
    """
    from repro.coherence.multiprocessor import MultiprocessorMemorySystem
    from repro.core.region import RegionGeometry
    from repro.simulation.config import SimulationConfig
    from repro.trace.stream import resolve_warmup_count

    config = config or SimulationConfig()
    if warmup_fraction is None:
        warmup_fraction = config.warmup_fraction
    memory = MultiprocessorMemorySystem(
        num_cpus=config.num_cpus,
        block_size=config.block_size,
        l1_capacity=config.l1_capacity,
        l1_associativity=config.l1_associativity,
        l2_capacity=config.l2_capacity,
        l2_associativity=config.l2_associativity,
        classify_false_sharing=False,
    )
    trackers = {}
    for size in region_sizes:
        geometry = RegionGeometry(region_size=size, block_size=config.block_size)
        l1_tracker = GenerationMissTracker("L1", geometry, per_cpu=True)
        l2_tracker = GenerationMissTracker("L2", geometry, per_cpu=False)
        trackers[size] = (l1_tracker, l2_tracker)
        # Forward evictions/invalidations from the caches to the trackers.
        for cpu in range(config.num_cpus):
            memory.l1(cpu).add_eviction_listener(
                lambda evicted, cpu=cpu, tracker=l1_tracker: tracker.on_removal(
                    cpu, evicted.block_addr
                )
            )
        memory.l2.add_eviction_listener(
            lambda evicted, tracker=l2_tracker: tracker.on_removal(0, evicted.block_addr)
        )
    l1_trackers = [l1 for l1, _ in trackers.values()]
    l2_trackers = [l2 for _, l2 in trackers.values()]

    # Stream the trace single-pass; the warmup boundary comes from a length
    # hint (len / TraceStream.length_hint / total_accesses), never from
    # materializing the stream.
    warmup_count = resolve_warmup_count(trace, fraction=warmup_fraction, limit=limit)
    records = iter(trace)
    if limit is not None:
        records = islice(records, limit)
    for index, record in enumerate(records):
        outcome = memory.access(record)
        if index < warmup_count:
            continue
        if reads_only and not record.is_read:
            continue
        if outcome.l1_miss:
            for tracker in l1_trackers:
                tracker.on_miss(record.cpu, record.address)
            if outcome.off_chip:
                for tracker in l2_trackers:
                    tracker.on_miss(record.cpu, record.address)

    histograms = {}
    for size, (l1_tracker, l2_tracker) in trackers.items():
        l1_tracker.close_all()
        l2_tracker.close_all()
        histograms[size] = {"L1": l1_tracker.histogram, "L2": l2_tracker.histogram}
    return histograms
