"""Tests for repro.memory.sectored."""

import pytest

from repro.memory.sectored import LogicalSectoredTagArray, SectoredTagArray, SectorState


class TestSectorState:
    def test_pattern_bits(self):
        sector = SectorState(region=0x1000, num_blocks=8)
        sector.set_block(0)
        sector.set_block(3)
        assert sector.pattern_bits == 0b1001
        assert sector.population == 2

    def test_out_of_range(self):
        sector = SectorState(region=0, num_blocks=4)
        with pytest.raises(IndexError):
            sector.set_block(4)


class TestSectoredTagArray:
    def make(self, sectors=8, assoc=2):
        return SectoredTagArray(
            num_sectors=sectors, associativity=assoc, region_size=2048, block_size=64
        )

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SectoredTagArray(num_sectors=7, associativity=2, region_size=2048)

    def test_allocate_and_lookup(self):
        tags = self.make()
        sector, evicted = tags.allocate(0x1000, trigger_pc=0x400)
        assert evicted is None
        assert sector.region == 0x1000
        assert tags.lookup(0x17FF) is sector

    def test_allocate_existing_returns_same(self):
        tags = self.make()
        first, _ = tags.allocate(0x1000)
        second, evicted = tags.allocate(0x1400)
        assert second is first
        assert evicted is None

    def test_conflict_eviction_returns_victim(self):
        tags = self.make(sectors=4, assoc=2)  # 2 sets
        # Regions 0, 2*2048*2, 4*2048*2 map to the same set (stride of num_sets regions).
        base = 0
        stride = 2 * 2048
        first, _ = tags.allocate(base)
        first.set_block(5)
        tags.allocate(base + stride)
        _, victim = tags.allocate(base + 2 * stride)
        assert victim is not None
        assert victim.region == base
        assert victim.pattern_bits == 1 << 5
        assert tags.probe(base) is None and len(tags.sectors()) == 2

    def test_remove(self):
        tags = self.make()
        tags.allocate(0x1000)
        removed = tags.remove(0x1000)
        assert removed is not None
        assert tags.lookup(0x1000) is None
        assert tags.remove(0x1000) is None

    def test_probe_does_not_allocate(self):
        tags = self.make()
        assert tags.probe(0x9999) is None

    def test_trigger_metadata(self):
        tags = self.make()
        sector, _ = tags.allocate(0x1000 + 5 * 64, trigger_pc=0xABC)
        assert sector.trigger_pc == 0xABC
        assert sector.trigger_offset == 5


class TestLogicalSectoredTagArray:
    def test_sized_from_cache_capacity(self):
        tags = LogicalSectoredTagArray(
            capacity_bytes=64 * 1024, associativity=2, region_size=2048, block_size=64
        )
        assert tags.num_sets * tags.associativity == 32
        assert tags.num_sets == 16

    def test_small_capacity_rounds_to_associativity(self):
        tags = LogicalSectoredTagArray(
            capacity_bytes=2048, associativity=2, region_size=2048, block_size=64
        )
        assert tags.num_sets * tags.associativity >= 2

    def test_blocks_per_sector(self):
        tags = LogicalSectoredTagArray(
            capacity_bytes=64 * 1024, associativity=2, region_size=2048, block_size=64
        )
        assert tags.blocks_per_sector == 32
