"""Tests for repro.coherence.multiprocessor."""

import pytest

from repro.coherence.multiprocessor import MultiprocessorMemorySystem
from repro.memory.hierarchy import MemoryLevel
from repro.trace.record import MemoryAccess, AccessType


def make_system(num_cpus=2, block_size=64):
    return MultiprocessorMemorySystem(
        num_cpus=num_cpus,
        block_size=block_size,
        l1_capacity=1024,
        l1_associativity=2,
        l2_capacity=8192,
        l2_associativity=4,
    )


def read(cpu, address):
    return MemoryAccess(pc=0x400, address=address, cpu=cpu)


def write(cpu, address):
    return MemoryAccess(pc=0x400, address=address, cpu=cpu, access_type=AccessType.WRITE)


class TestAccessLevels:
    def test_cold_access_is_offchip(self):
        system = make_system()
        outcome = system.access(read(0, 0x1000))
        assert outcome.level is MemoryLevel.MEMORY
        assert outcome.l1_miss
        assert outcome.off_chip

    def test_repeat_access_hits_l1(self):
        system = make_system()
        system.access(read(0, 0x1000))
        assert system.access(read(0, 0x1000)).level is MemoryLevel.L1

    def test_other_cpu_hits_shared_l2(self):
        system = make_system()
        system.access(read(0, 0x1000))
        outcome = system.access(read(1, 0x1000))
        assert outcome.level is MemoryLevel.L2

    def test_out_of_range_cpu_rejected(self):
        system = make_system(num_cpus=2)
        with pytest.raises(ValueError):
            system.access(read(5, 0x1000))


class TestCoherence:
    def test_write_invalidates_remote_l1_copy(self):
        system = make_system()
        system.access(read(0, 0x1000))
        system.access(read(1, 0x1000))
        outcome = system.access(write(0, 0x1000))
        assert outcome.invalidations_sent == 1
        assert not system.l1_contains(1, 0x1000)
        assert system.l1_contains(0, 0x1000)

    def test_coherence_miss_after_invalidation(self):
        system = make_system()
        system.access(read(1, 0x1000))
        system.access(write(0, 0x1000))
        outcome = system.access(read(1, 0x1000))
        assert outcome.l1_miss

    def test_directory_tracks_evictions(self):
        system = make_system()
        # Fill one L1 set so a block is silently evicted from CPU 0's L1.
        system.access(read(0, 0))
        system.access(read(0, 512))
        system.access(read(0, 1024))
        # A remote write should only invalidate CPUs that still hold the block.
        outcome = system.access(write(1, 0))
        assert outcome.invalidations_sent == 0

    def test_false_sharing_detected_with_large_blocks(self):
        system = make_system(block_size=512)
        system.access(read(1, 0x1000))
        # CPU 0 writes a *different* 64B chunk of the same 512B block.
        system.access(write(0, 0x1100))
        outcome = system.access(read(1, 0x1000))
        assert outcome.false_sharing

    def test_no_classifier_where_false_sharing_cannot_occur(self):
        # At the 64-byte coherence unit the chunk is the block: a classifier
        # could only answer "not false sharing", so none is built.
        assert make_system(block_size=64).classifier is None
        system = make_system(block_size=64)
        system.access(read(1, 0x1000))
        system.access(write(0, 0x1020))
        outcome = system.access(read(1, 0x1000))
        assert outcome.l1_miss and not outcome.false_sharing
        assert outcome.miss_classification is None
        # The smallest larger block still classifies.
        system = make_system(block_size=128)
        assert system.classifier is not None
        system.access(read(1, 0x1000))
        system.access(write(0, 0x1040))
        assert system.access(read(1, 0x1000)).false_sharing
        assert system.classifier.false_sharing_misses == 1
        disabled = MultiprocessorMemorySystem(
            num_cpus=2, block_size=128, l1_capacity=1024, l2_capacity=8192,
            l2_associativity=4, classify_false_sharing=False,
        )
        assert disabled.classifier is None

    def test_true_sharing_not_flagged_as_false(self):
        system = make_system(block_size=512)
        system.access(read(1, 0x1000))
        system.access(write(0, 0x1000))
        outcome = system.access(read(1, 0x1000))
        assert outcome.l1_miss
        assert not outcome.false_sharing


class TestPrefetchFill:
    def test_prefetch_fill_into_l1_and_l2(self):
        system = make_system()
        system.prefetch_fill(0, 0x2000)
        assert system.l1_contains(0, 0x2000)
        assert system.l2.contains(0x2000)
        outcome = system.access(read(0, 0x2000))
        assert outcome.l1_covered_by_prefetch

    def test_prefetch_fill_l2_only(self):
        system = make_system()
        system.prefetch_fill(0, 0x2000, into_l1=False)
        assert not system.l1_contains(0, 0x2000)
        outcome = system.access(read(0, 0x2000))
        assert outcome.level is MemoryLevel.L2
        assert outcome.l2_covered_by_prefetch

    def test_prefetched_block_registered_as_sharer(self):
        system = make_system()
        system.prefetch_fill(1, 0x2000)
        outcome = system.access(write(0, 0x2000))
        # The prefetched copy in CPU 1's L1 must be invalidated.
        assert outcome.invalidations_sent == 1
        assert not system.l1_contains(1, 0x2000)


class TestAggregateStats:
    def test_aggregate_l1_stats(self):
        system = make_system()
        system.access(read(0, 0x1000))
        system.access(read(1, 0x2000))
        total = system.aggregate_l1_stats()
        assert total.accesses == 2
        assert total.misses == 2
