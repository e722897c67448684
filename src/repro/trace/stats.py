"""Trace-level statistics.

These summaries are used by tests (to validate that workload generators
produce traces with the intended structure) and by the analysis package.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Optional

from repro.trace.record import ExecutionMode, MemoryAccess


class TraceStatistics:
    """Aggregate statistics over a trace."""

    __slots__ = (
        "total_accesses",
        "reads",
        "writes",
        "system_accesses",
        "unique_pcs",
        "unique_regions",
        "accesses_per_cpu",
        "max_instruction_count",
    )

    def __init__(
        self,
        total_accesses: int = 0,
        reads: int = 0,
        writes: int = 0,
        system_accesses: int = 0,
        unique_pcs: int = 0,
        unique_regions: int = 0,
        accesses_per_cpu: Optional[Dict[int, int]] = None,
        max_instruction_count: int = 0,
    ) -> None:
        self.total_accesses = total_accesses
        self.reads = reads
        self.writes = writes
        self.system_accesses = system_accesses
        self.unique_pcs = unique_pcs
        self.unique_regions = unique_regions
        self.accesses_per_cpu = {} if accesses_per_cpu is None else accesses_per_cpu
        self.max_instruction_count = max_instruction_count

    @property
    def write_fraction(self) -> float:
        return self.writes / self.total_accesses if self.total_accesses else 0.0

    @property
    def system_fraction(self) -> float:
        return self.system_accesses / self.total_accesses if self.total_accesses else 0.0

    @property
    def num_cpus(self) -> int:
        return len(self.accesses_per_cpu)


def summarize_trace(
    records: Iterable[MemoryAccess],
    region_size: int = 2048,
) -> TraceStatistics:
    """Compute :class:`TraceStatistics` for ``records``."""
    stats = TraceStatistics()
    pcs = set()
    regions = set()
    per_cpu: Counter = Counter()
    for record in records:
        stats.total_accesses += 1
        if record.is_read:
            stats.reads += 1
        else:
            stats.writes += 1
        if record.mode is ExecutionMode.SYSTEM:
            stats.system_accesses += 1
        pcs.add(record.pc)
        regions.add(record.region_base(region_size))
        per_cpu[record.cpu] += 1
        if record.instruction_count > stats.max_instruction_count:
            stats.max_instruction_count = record.instruction_count
    stats.unique_pcs = len(pcs)
    stats.unique_regions = len(regions)
    stats.accesses_per_cpu = dict(per_cpu)
    return stats
