"""Tests for repro.core.pattern (spatial patterns)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.pattern import SpatialPattern


class TestConstruction:
    def test_empty(self):
        pattern = SpatialPattern.empty(32)
        assert pattern.is_empty
        assert pattern.population == 0

    def test_full(self):
        pattern = SpatialPattern.full(8)
        assert pattern.population == 8
        assert pattern.density == 1.0

    def test_from_offsets(self):
        pattern = SpatialPattern.from_offsets(32, [0, 3, 31])
        assert pattern.test(0)
        assert pattern.test(3)
        assert pattern.test(31)
        assert not pattern.test(1)

    def test_from_offsets_out_of_range(self):
        with pytest.raises(ValueError):
            SpatialPattern.from_offsets(8, [8])

    def test_from_string(self):
        pattern = SpatialPattern.from_string("1011")
        assert pattern.num_blocks == 4
        assert pattern.offsets() == [0, 2, 3]

    def test_from_string_invalid(self):
        with pytest.raises(ValueError):
            SpatialPattern.from_string("10x1")

    def test_bits_beyond_width_rejected(self):
        with pytest.raises(ValueError):
            SpatialPattern(num_blocks=4, bits=0x10)

    def test_non_positive_width_rejected(self):
        with pytest.raises(ValueError):
            SpatialPattern(num_blocks=0)

    def test_error_messages(self):
        with pytest.raises(ValueError, match="num_blocks must be positive, got 0"):
            SpatialPattern(num_blocks=0)
        with pytest.raises(ValueError, match="bits must be non-negative, got -1"):
            SpatialPattern(num_blocks=4, bits=-1)
        with pytest.raises(ValueError, match="bits 0x10 has bits set beyond 4 blocks"):
            SpatialPattern(num_blocks=4, bits=0x10)

    def test_compares_hashes_and_prints_by_value(self):
        assert SpatialPattern(4, 5) == SpatialPattern.from_offsets(4, [0, 2])
        assert SpatialPattern(4, 5) != SpatialPattern(8, 5)
        assert SpatialPattern(4, 5) != (4, 5)
        assert hash(SpatialPattern(4, 5)) == hash(SpatialPattern.from_string("1010"))
        assert len({SpatialPattern(4, 5), SpatialPattern(4, 5), SpatialPattern(4, 1)}) == 2
        assert repr(SpatialPattern(4, 5)) == "SpatialPattern(num_blocks=4, bits=5)"
        assert repr(SpatialPattern(num_blocks=2)) == "SpatialPattern(num_blocks=2, bits=0)"


class TestQueries:
    def test_offsets_sorted(self):
        pattern = SpatialPattern.from_offsets(16, [9, 2, 5])
        assert pattern.offsets() == [2, 5, 9]

    def test_iteration_and_len(self):
        pattern = SpatialPattern.from_offsets(16, [1, 2])
        assert list(pattern) == [1, 2]
        assert len(pattern) == 16

    def test_test_out_of_range(self):
        with pytest.raises(ValueError):
            SpatialPattern.empty(4).test(4)

    def test_to_string_roundtrip(self):
        pattern = SpatialPattern.from_offsets(6, [0, 4])
        assert SpatialPattern.from_string(pattern.to_string()) == pattern


class TestDerivations:
    def test_immutability(self):
        pattern = SpatialPattern.empty(8)
        pattern | SpatialPattern.from_offsets(8, [2])
        assert pattern.is_empty

    def test_union_intersection_difference(self):
        a = SpatialPattern.from_offsets(8, [0, 1, 2])
        b = SpatialPattern.from_offsets(8, [2, 3])
        assert (a | b).offsets() == [0, 1, 2, 3]
        assert (a & b).offsets() == [2]
        assert (a - b).offsets() == [0, 1]

    def test_incompatible_widths(self):
        with pytest.raises(ValueError):
            SpatialPattern.empty(8).union(SpatialPattern.empty(16))


class TestProperties:
    @given(offsets=st.lists(st.integers(min_value=0, max_value=31), max_size=40))
    def test_population_equals_unique_offsets(self, offsets):
        pattern = SpatialPattern.from_offsets(32, offsets)
        assert pattern.population == len(set(offsets))

    @given(
        a=st.integers(min_value=0, max_value=(1 << 32) - 1),
        b=st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_union_superset(self, a, b):
        pa = SpatialPattern(num_blocks=32, bits=a)
        pb = SpatialPattern(num_blocks=32, bits=b)
        union = pa | pb
        assert union.population >= max(pa.population, pb.population)
        for offset in pa.offsets():
            assert union.test(offset)

    @given(bits=st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_string_roundtrip(self, bits):
        pattern = SpatialPattern(num_blocks=32, bits=bits)
        assert SpatialPattern.from_string(pattern.to_string()) == pattern

    @given(
        bits=st.integers(min_value=0, max_value=(1 << 32) - 1),
        offset=st.integers(min_value=0, max_value=31),
    )
    def test_with_without_inverse(self, bits, offset):
        pattern = SpatialPattern(num_blocks=32, bits=bits)
        single = SpatialPattern.from_offsets(32, [offset])
        assert (pattern | single).test(offset)
        assert not (pattern - single).test(offset)
