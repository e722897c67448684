"""Tests for repro.memory.cache (set-associative cache model)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import AccessOutcome, SetAssociativeCache


def make_cache(capacity=1024, block=64, assoc=2, **kwargs):
    return SetAssociativeCache(
        capacity_bytes=capacity, block_size=block, associativity=assoc, **kwargs
    )


class TestConstruction:
    def test_geometry(self):
        cache = make_cache(capacity=64 * 1024, assoc=2)
        assert cache.num_sets == 512

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ValueError):
            make_cache(block=48)

    def test_rejects_capacity_not_multiple(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=1000, block_size=64, associativity=2)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=3 * 128, block_size=64, associativity=2)


class TestBasicAccess:
    def test_first_access_misses(self):
        cache = make_cache()
        assert cache.access(0x1000).outcome is AccessOutcome.MISS

    def test_second_access_hits(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x1000).outcome is AccessOutcome.HIT

    def test_same_block_different_offset_hits(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x103F).outcome is AccessOutcome.HIT

    def test_no_allocate_leaves_cache_empty(self):
        cache = make_cache()
        cache.access(0x1000, allocate=False)
        assert not cache.contains(0x1000)

    def test_write_marks_dirty(self):
        cache = make_cache()
        cache.access(0x1000, is_write=True)
        assert cache.probe(0x1000).dirty

    def test_contains_and_probe(self):
        cache = make_cache()
        assert cache.probe(0x1000) is None
        cache.access(0x1000)
        assert cache.contains(0x1000)
        assert cache.probe(0x1000).block_addr == 0x1000

    def test_occupancy(self):
        cache = make_cache()
        for i in range(5):
            cache.access(i * 64)
        assert cache.occupancy == 5


class TestReplacement:
    def test_lru_eviction_within_set(self):
        # 1024B, 64B blocks, 2-way -> 8 sets; addresses 0, 512, 1024 share set 0.
        cache = make_cache(capacity=1024, assoc=2)
        evicted = []
        cache.add_eviction_listener(evicted.append)
        cache.access(0)
        cache.access(512)
        cache.access(0)  # touch 0 so 512 is LRU
        cache.access(1024)
        assert [line.block_addr for line in evicted] == [512]
        assert cache.contains(0)
        assert not cache.contains(512)

    def test_eviction_reports_dirty(self):
        cache = make_cache(capacity=1024, assoc=2)
        evicted = []
        cache.add_eviction_listener(evicted.append)
        cache.access(0, is_write=True)
        cache.access(512)
        cache.access(1024)
        assert [(line.block_addr, line.dirty) for line in evicted] == [(0, True)]

    def test_capacity_never_exceeded(self):
        cache = make_cache(capacity=1024, assoc=2)
        for i in range(100):
            cache.access(i * 64)
        assert cache.occupancy <= 16


class TestPrefetchBookkeeping:
    def test_fill_marks_prefetched(self):
        cache = make_cache()
        cache.fill(0x2000, prefetched=True)
        line = cache.probe(0x2000)
        assert line.prefetched
        assert not line.used

    def test_prefetch_hit_outcome(self):
        cache = make_cache()
        cache.fill(0x2000, prefetched=True)
        result = cache.access(0x2000)
        assert result.outcome is AccessOutcome.PREFETCH_HIT
        assert cache.probe(0x2000).used

    def test_second_access_after_prefetch_hit_is_normal_hit(self):
        cache = make_cache()
        cache.fill(0x2000, prefetched=True)
        assert cache.access(0x2000).outcome is AccessOutcome.PREFETCH_HIT
        assert cache.access(0x2000).outcome is AccessOutcome.HIT

    def test_fill_existing_block_is_noop(self):
        cache = make_cache()
        cache.access(0x2000)
        assert cache.fill(0x2000, prefetched=True) is None
        assert not cache.probe(0x2000).prefetched

    def test_unused_prefetch_eviction_counted(self):
        cache = make_cache(capacity=1024, assoc=2)
        cache.fill(0, prefetched=True)
        cache.access(512)
        cache.access(1024)
        cache.access(1536)
        assert cache.prefetched_evicted_unused == 1

    def test_used_prefetch_eviction_not_counted(self):
        cache = make_cache(capacity=1024, assoc=2)
        cache.fill(0, prefetched=True)
        cache.access(0)
        cache.access(512)
        cache.access(1024)
        cache.access(1536)
        assert cache.prefetched_evicted_unused == 0


class TestInvalidation:
    def test_invalidate_removes_block(self):
        cache = make_cache()
        cache.access(0x3000)
        evicted = cache.invalidate(0x3000)
        assert evicted is not None
        assert evicted.invalidated
        assert not cache.contains(0x3000)

    def test_invalidate_missing_block_returns_none(self):
        cache = make_cache()
        assert cache.invalidate(0x3000) is None

    def test_invalidate_unused_prefetch_counts_overprediction(self):
        cache = make_cache()
        cache.fill(0x3000, prefetched=True)
        cache.invalidate(0x3000)
        assert cache.prefetched_evicted_unused == 1

    def test_flush_empties_cache(self):
        cache = make_cache()
        for i in range(6):
            cache.access(i * 64)
        flushed = cache.flush()
        assert len(flushed) == 6
        assert cache.occupancy == 0


class TestEvictionListeners:
    def test_listener_called_on_replacement(self):
        cache = make_cache(capacity=1024, assoc=2)
        events = []
        cache.add_eviction_listener(events.append)
        cache.access(0)
        cache.access(512)
        cache.access(1024)
        assert len(events) == 1
        assert events[0].block_addr == 0
        assert not events[0].invalidated

    def test_listener_called_on_invalidation(self):
        cache = make_cache()
        events = []
        cache.add_eviction_listener(events.append)
        cache.access(0x100)
        cache.invalidate(0x100)
        assert len(events) == 1
        assert events[0].invalidated


class TestStatistics:
    """A cache tallies nothing per access: each result says hit or miss."""

    def test_hit_and_miss_rates(self):
        cache = make_cache()
        outcomes = [cache.access(address).outcome for address in (0, 0, 64)]
        assert outcomes == [AccessOutcome.MISS, AccessOutcome.HIT, AccessOutcome.MISS]

    def test_read_write_miss_split(self):
        cache = make_cache()
        assert cache.access(0).is_miss
        assert cache.access(64, is_write=True).is_miss
        assert not cache.probe(0).dirty and cache.probe(64).dirty


class TestPropertyBased:
    @settings(max_examples=50, deadline=None)
    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = make_cache(capacity=2048, assoc=4)
        for address in addresses:
            cache.access(address)
        assert cache.occupancy <= 2048 // 64

    @settings(max_examples=50, deadline=None)
    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200))
    def test_most_recent_access_always_resident(self, addresses):
        cache = make_cache(capacity=2048, assoc=4)
        for address in addresses:
            cache.access(address)
            assert cache.contains(address)

    @settings(max_examples=30, deadline=None)
    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 18), min_size=1, max_size=150))
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = make_cache(capacity=1024, assoc=2)
        for address in addresses:
            # Exactly one of the two: a hit on a resident block, else a miss.
            resident = cache.contains(address)
            assert cache.access(address).is_miss is not resident
