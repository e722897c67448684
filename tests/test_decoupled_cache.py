"""Tests for repro.memory.decoupled (the decoupled sectored cache)."""

import pytest

from repro.memory.cache import AccessOutcome, SetAssociativeCache
from repro.memory.decoupled import DecoupledSectoredCache


def make_cache(capacity=8 * 2048, sector=2048, block=64, assoc=2):
    return DecoupledSectoredCache(
        capacity_bytes=capacity, sector_size=sector, block_size=block, associativity=assoc
    )


REGION = 0x100000


class TestConstruction:
    def test_geometry(self):
        cache = make_cache()
        assert cache.num_sets == 4
        assert cache.blocks_per_sector == 32

    def test_invalid_sector_smaller_than_block(self):
        with pytest.raises(ValueError):
            DecoupledSectoredCache(capacity_bytes=4096, sector_size=32, block_size=64)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DecoupledSectoredCache(capacity_bytes=5000, sector_size=2048)


class TestBasicAccess:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.access(REGION).outcome is AccessOutcome.MISS
        assert cache.access(REGION).outcome is AccessOutcome.HIT

    def test_same_sector_different_block_misses(self):
        cache = make_cache()
        cache.access(REGION)
        assert cache.access(REGION + 5 * 64).outcome is AccessOutcome.MISS
        assert cache.contains(REGION)
        assert cache.contains(REGION + 5 * 64)

    def test_occupancy_counts_blocks(self):
        cache = make_cache()
        for offset in range(4):
            cache.access(REGION + offset * 64)
        assert cache.occupancy == 4
        assert cache.resident_sectors == 1

    def test_prefetch_fill_and_hit(self):
        cache = make_cache()
        cache.fill(REGION + 2 * 64, prefetched=True)
        assert cache.access(REGION + 2 * 64).outcome is AccessOutcome.PREFETCH_HIT


class TestSectorConflicts:
    def test_sector_replacement_evicts_all_blocks(self):
        # Regions spaced by num_sets sectors collide in the same tag set.
        cache = make_cache()
        stride = cache.num_sets * 2048
        for offset in (0, 3, 7):
            cache.access(REGION + offset * 64)
        cache.access(REGION + stride)
        events = []
        cache.add_eviction_listener(events.append)
        cache.access(REGION + 2 * stride)  # conflict: evicts the first sector
        evicted_blocks = {event.block_addr for event in events}
        assert evicted_blocks == {REGION, REGION + 3 * 64, REGION + 7 * 64}
        assert not cache.contains(REGION)
        assert cache.resident_sectors == 2

    def test_conflicts_worse_than_traditional_cache(self):
        """The paper's point: interleaved regions conflict in sector tags even
        when a traditional cache of the same capacity would hold all blocks."""
        capacity = 8 * 2048
        sectored = make_cache(capacity=capacity)
        traditional = SetAssociativeCache(capacity_bytes=capacity, block_size=64, associativity=2)
        # Touch one block in each of 12 regions, twice.  The offsets differ per
        # region so the traditional cache spreads them over its sets, while the
        # sectored cache can only hold 8 sector tags.
        addresses = [REGION + region * 2048 + region * 64 for region in range(12)]
        misses = {"sectored": 0, "traditional": 0}
        for _ in range(2):
            for address in addresses:
                misses["sectored"] += sectored.access(address).is_miss
                misses["traditional"] += traditional.access(address).is_miss
        assert misses["sectored"] > misses["traditional"]


class TestInvalidation:
    def test_invalidate_single_block(self):
        cache = make_cache()
        cache.access(REGION)
        cache.access(REGION + 64)
        evicted = cache.invalidate(REGION)
        assert evicted is not None and evicted.invalidated
        assert not cache.contains(REGION)
        assert cache.contains(REGION + 64)

    def test_invalidate_last_block_drops_sector(self):
        cache = make_cache()
        cache.access(REGION)
        cache.invalidate(REGION)
        assert cache.resident_sectors == 0

    def test_invalidate_absent_block(self):
        assert make_cache().invalidate(REGION) is None

    def test_flush(self):
        cache = make_cache()
        for offset in range(3):
            cache.access(REGION + offset * 64)
        flushed = cache.flush()
        assert len(flushed) == 3
        assert cache.occupancy == 0


class TestTrainerApproximationAgreement:
    def test_forced_eviction_model_matches_real_sector_eviction(self):
        """The DecoupledSectoredTrainer's forced evictions name exactly the
        blocks a real decoupled sectored cache would evict on the same conflict."""
        from repro.core.region import RegionGeometry
        from repro.core.training import DecoupledSectoredTrainer

        geometry = RegionGeometry(region_size=2048, block_size=64)
        trainer = DecoupledSectoredTrainer(geometry, cache_capacity=4 * 2048, cache_associativity=2)
        cache = make_cache(capacity=4 * 2048)
        stride = 2 * 2048

        accesses = [REGION, REGION + 3 * 64, REGION + stride, REGION + 2 * stride]
        events = []
        cache.add_eviction_listener(events.append)
        forced = []
        for address in accesses:
            response = trainer.observe_access(0x400, address)
            forced.extend(response.forced_evictions)
            cache.access(address)
        assert set(forced) == {event.block_addr for event in events}
