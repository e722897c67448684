"""Tests for repro.memory.block (address arithmetic)."""

import pytest
from hypothesis import given, strategies as st

from repro.memory.block import (
    block_address,
    block_index_in_region,
    blocks_per_region,
    is_power_of_two,
    region_base,
)


class TestIsPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 64, 2048, 1 << 30])
    def test_powers(self, value):
        assert is_power_of_two(value)

    @pytest.mark.parametrize("value", [0, -1, 3, 6, 100, 65])
    def test_non_powers(self, value):
        assert not is_power_of_two(value)


class TestAlignment:
    def test_block_address(self):
        assert block_address(130, 64) == 128

    def test_region_base(self):
        assert region_base(0x1850, 2048) == 0x1800

    def test_block_index_in_region(self):
        assert block_index_in_region(0x1000 + 7 * 64 + 5, 2048, 64) == 7

    def test_block_index_rejects_block_bigger_than_region(self):
        with pytest.raises(ValueError):
            block_index_in_region(0, 64, 128)

    def test_blocks_per_region(self):
        assert blocks_per_region(2048, 64) == 32
        assert blocks_per_region(8192, 64) == 128

    def test_blocks_per_region_rejects_block_bigger_than_region(self):
        with pytest.raises(ValueError):
            blocks_per_region(64, 128)


class TestProperties:
    @given(
        address=st.integers(min_value=0, max_value=2**48),
        region_exp=st.integers(min_value=7, max_value=14),
    )
    def test_region_contains_block(self, address, region_exp):
        """The block of an address always lies within the address's region."""
        region_size = 1 << region_exp
        block = block_address(address, 64)
        region = region_base(address, region_size)
        assert region <= block < region + region_size

    @given(
        address=st.integers(min_value=0, max_value=2**48),
        region_exp=st.integers(min_value=7, max_value=14),
    )
    def test_offset_in_range(self, address, region_exp):
        region_size = 1 << region_exp
        offset = block_index_in_region(address, region_size, 64)
        assert 0 <= offset < blocks_per_region(region_size, 64)

    @given(
        address=st.integers(min_value=0, max_value=2**48),
        region_exp=st.integers(min_value=7, max_value=14),
    )
    def test_reconstruction(self, address, region_exp):
        """region_base + offset*block reconstructs the block address."""
        region_size = 1 << region_exp
        region = region_base(address, region_size)
        offset = block_index_in_region(address, region_size, 64)
        assert region + offset * 64 == block_address(address, 64)
