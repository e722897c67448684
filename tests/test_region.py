"""Tests for repro.core.region."""

import pytest

from repro.core.region import RegionGeometry


class TestConstruction:
    def test_defaults(self):
        geometry = RegionGeometry()
        assert geometry.region_size == 2048
        assert geometry.block_size == 64
        assert geometry.blocks_per_region == 32

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            RegionGeometry(region_size=3000)
        with pytest.raises(ValueError):
            RegionGeometry(block_size=60)

    def test_rejects_block_larger_than_region(self):
        with pytest.raises(ValueError):
            RegionGeometry(region_size=64, block_size=128)

    def test_error_messages(self):
        with pytest.raises(ValueError, match="region_size must be a power of two, got 3000"):
            RegionGeometry(region_size=3000)
        with pytest.raises(ValueError, match="block_size must be a power of two, got 60"):
            RegionGeometry(block_size=60)
        with pytest.raises(ValueError, match=r"block_size \(128\) cannot exceed region_size \(64\)"):
            RegionGeometry(region_size=64, block_size=128)

    def test_compares_hashes_and_prints_by_value(self):
        assert RegionGeometry(1024, 32) == RegionGeometry(region_size=1024, block_size=32)
        assert RegionGeometry() != RegionGeometry(region_size=4096)
        assert RegionGeometry() != (2048, 64)
        assert hash(RegionGeometry(1024, 32)) == hash(RegionGeometry(1024, 32))
        assert {RegionGeometry(): "default"}[RegionGeometry(2048, 64)] == "default"
        assert repr(RegionGeometry()) == "RegionGeometry(region_size=2048, block_size=64)"

    def test_frozen(self):
        geometry = RegionGeometry()
        with pytest.raises(AttributeError):
            geometry.region_size = 4096


class TestArithmetic:
    def test_region_base(self, geometry):
        assert geometry.region_base(0x1234) == 0x1000

    def test_block_address(self, geometry):
        assert geometry.block_address(0x1234) == 0x1200

    def test_offset(self, geometry):
        assert geometry.offset(0x1000 + 9 * 64 + 17) == 9

    def test_split(self, geometry):
        assert geometry.split(0x1000 + 9 * 64) == (0x1000, 9)

    def test_block_at_offset(self, geometry):
        assert geometry.block_at_offset(0x1000, 5) == 0x1000 + 5 * 64

    def test_block_at_offset_out_of_range(self, geometry):
        with pytest.raises(ValueError):
            geometry.block_at_offset(0x1000, 32)

    def test_blocks_in_region(self, geometry):
        blocks = list(geometry.blocks_in_region(0x1000))
        assert len(blocks) == 32
        assert blocks[0] == 0x1000
        assert blocks[-1] == 0x1000 + 31 * 64

    def test_blocks_in_region_aligns_base(self, geometry):
        assert list(geometry.blocks_in_region(0x1234))[0] == 0x1000

    def test_same_region(self, geometry):
        assert geometry.same_region(0x1000, 0x17FF)
        assert not geometry.same_region(0x1000, 0x1800)

    def test_describe(self, geometry):
        assert "2048B" in geometry.describe()
        assert "32" in geometry.describe()
