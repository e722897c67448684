"""Multiprocessor memory system.

Combines per-CPU private L1 caches, a shared L2, a directory, and the
false-sharing classifier into a single functional model with one entry point,
:meth:`MultiprocessorMemorySystem.access`.  The prefetcher-aware simulation
engine (:mod:`repro.simulation.engine`) drives this model and layers SMS /
GHB prefetching on top of it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.coherence.directory import Directory
from repro.coherence.false_sharing import FalseSharingClassifier, MissClassification
from repro.memory.cache import AccessOutcome, AccessResult, SetAssociativeCache
from repro.memory.hierarchy import MemoryLevel
from repro.trace.record import MemoryAccess


class CpuOutOfRangeError(ValueError):
    """A trace record names a CPU the simulated system does not have."""

    def __init__(self, cpu: int, num_cpus: int) -> None:
        super().__init__(f"record.cpu={cpu} out of range for {num_cpus} CPUs")
        self.cpu = cpu
        self.num_cpus = num_cpus


class AccessOutcomeRecord:
    """Everything the engine and timing model need to know about one access."""

    __slots__ = (
        "record",
        "level",
        "l1_result",
        "l2_result",
        "miss_classification",
        "invalidations_sent",
    )

    def __init__(
        self,
        record: MemoryAccess,
        level: MemoryLevel,
        l1_result: AccessResult,
        l2_result: Optional[AccessResult] = None,
        miss_classification: Optional[MissClassification] = None,
        invalidations_sent: int = 0,
    ) -> None:
        self.record = record
        self.level = level
        self.l1_result = l1_result
        self.l2_result = l2_result
        self.miss_classification = miss_classification
        self.invalidations_sent = invalidations_sent

    @property
    def l1_miss(self) -> bool:
        return self.l1_result.is_miss

    @property
    def l2_miss(self) -> bool:
        return self.l2_result is not None and self.l2_result.is_miss

    @property
    def off_chip(self) -> bool:
        return self.level is MemoryLevel.MEMORY

    @property
    def l1_covered_by_prefetch(self) -> bool:
        return self.l1_result.is_prefetch_hit

    @property
    def l2_covered_by_prefetch(self) -> bool:
        return self.l2_result is not None and self.l2_result.is_prefetch_hit

    @property
    def false_sharing(self) -> bool:
        return self.miss_classification is MissClassification.FALSE_SHARING


class MultiprocessorMemorySystem:
    """N private L1s + shared L2 + directory MSI coherence."""

    def __init__(
        self,
        num_cpus: int = 16,
        block_size: int = 64,
        l1_capacity: int = 64 * 1024,
        l1_associativity: int = 2,
        l2_capacity: int = 8 * 1024 * 1024,
        l2_associativity: int = 8,
        classify_false_sharing: bool = True,
    ) -> None:
        if num_cpus <= 0:
            raise ValueError(f"num_cpus must be positive, got {num_cpus}")
        self.num_cpus = num_cpus
        self.block_size = block_size
        # Power-of-two block mapping, precomputed for the per-access hot path.
        self._block_mask = ~(block_size - 1)
        self._l1s: List[SetAssociativeCache] = [
            SetAssociativeCache(
                capacity_bytes=l1_capacity,
                block_size=block_size,
                associativity=l1_associativity,
                name=f"L1[{cpu}]",
            )
            for cpu in range(num_cpus)
        ]
        self.l2 = SetAssociativeCache(
            capacity_bytes=l2_capacity,
            block_size=block_size,
            associativity=l2_associativity,
            name="L2",
        )
        self.directory = Directory(coherence_unit=block_size)
        # False sharing needs a block larger than the 64-byte coherence unit:
        # when the chunk is the block, every coherence miss is true sharing
        # and a classifier could only ever answer "not false sharing".
        self.classifier = (
            FalseSharingClassifier(block_size=block_size, sharing_granularity=64)
            if classify_false_sharing and block_size > 64
            else None
        )
        # Keep the directory's sharer lists consistent with L1 replacements.
        # The listeners are kept addressable so the engine's lane fast path
        # can verify a cache's listener list is exactly what construction
        # registered (and hence safe to inline).
        self._directory_listeners = []
        for cpu, l1 in enumerate(self._l1s):
            listener = self._make_directory_evict_listener(cpu)
            self._directory_listeners.append(listener)
            l1.add_eviction_listener(listener)
        self.total_accesses = 0
        self.total_instructions = 0

    # ------------------------------------------------------------------ #
    def _make_directory_evict_listener(self, cpu: int):
        # Captures the directory, not ``self``: a listener that held the memory
        # system would close the cycle memory -> L1 -> listener -> memory and
        # leave every finished simulation to the cycle collector.
        evict = self.directory.evict

        def _listener(evicted) -> None:
            evict(cpu, evicted.block_addr)

        return _listener

    def l1(self, cpu: int) -> SetAssociativeCache:
        """Return the private L1 of processor ``cpu``."""
        return self._l1s[cpu]

    @property
    def l1_caches(self) -> List[SetAssociativeCache]:
        return list(self._l1s)

    # ------------------------------------------------------------------ #
    def access(self, record: MemoryAccess) -> AccessOutcomeRecord:
        """Process one demand access, including all coherence side effects."""
        cpu = record.cpu
        if not 0 <= cpu < self.num_cpus:
            raise CpuOutOfRangeError(cpu, self.num_cpus)
        self.total_accesses += 1
        icount = record.instruction_count
        if icount > self.total_instructions:
            self.total_instructions = icount

        address = record.address
        block = address & self._block_mask
        is_write = record.is_write
        classifier = self.classifier

        # --- Coherence actions happen before the local lookup. -------------
        invalidations_sent = 0
        if is_write:
            actions = self.directory.write(cpu, block)
            for other in actions.invalidate_cpus:
                evicted = self._l1s[other].invalidate(block)
                if evicted is not None and classifier is not None:
                    classifier.record_invalidation(other, block, address)
                elif classifier is not None:
                    # The remote CPU had no L1 copy but had previously lost
                    # one; keep accumulating the chunks written remotely.
                    classifier.record_remote_write(other, block, address)
                invalidations_sent += 1
        else:
            self.directory.read(cpu, block)
            # Downgrades are writebacks in a real system; functionally the
            # remote copy stays resident (now shared), so no cache change.

        # --- L1 lookup. -----------------------------------------------------
        l1_result = self._l1s[cpu].access(address, is_write=is_write)
        if l1_result.outcome is not AccessOutcome.MISS:
            return AccessOutcomeRecord(
                record=record,
                level=MemoryLevel.L1,
                l1_result=l1_result,
                invalidations_sent=invalidations_sent,
            )

        classification = None
        if classifier is not None:
            classification = classifier.classify_miss(cpu, block)

        # --- Shared L2 lookup. -----------------------------------------------
        l2_result = self.l2.access(address, is_write=is_write)
        level = MemoryLevel.L2 if l2_result.outcome is not AccessOutcome.MISS else MemoryLevel.MEMORY
        return AccessOutcomeRecord(
            record=record,
            level=level,
            l1_result=l1_result,
            l2_result=l2_result,
            miss_classification=classification,
            invalidations_sent=invalidations_sent,
        )

    # ------------------------------------------------------------------ #
    def prefetch_fill(self, cpu: int, address: int, into_l1: bool = True, into_l2: bool = True) -> None:
        """Install a prefetched block on behalf of ``cpu``.

        SMS stream requests behave like reads in the coherence protocol
        (Section 3.2), so the directory registers the CPU as a sharer.
        """
        block = address & self._block_mask
        self.directory.read(cpu, block)
        if into_l2:
            self.l2.fill(block, prefetched=True)
        if into_l1:
            self._l1s[cpu].fill(block, prefetched=True)

    def l1_contains(self, cpu: int, address: int) -> bool:
        return self._l1s[cpu].contains(address)

    # ------------------------------------------------------------------ #
    def aggregate_l1_stats(self):
        """Return the sum of all per-CPU L1 statistics."""
        total = self._l1s[0].stats
        for l1 in self._l1s[1:]:
            total = total.merge(l1.stats)
        return total

    def __repr__(self) -> str:
        return (
            f"MultiprocessorMemorySystem(cpus={self.num_cpus}, block={self.block_size}, "
            f"l1={self._l1s[0].capacity_bytes}B, l2={self.l2.capacity_bytes}B)"
        )
