"""Tests for repro.trace.record."""

import pytest

from repro.trace.record import (
    AccessType,
    ExecutionMode,
    MemoryAccess,
    read_access,
    write_access,
)


class TestAccessType:
    def test_read_properties(self):
        assert AccessType.READ.is_read
        assert not AccessType.READ.is_write

    def test_write_properties(self):
        assert AccessType.WRITE.is_write
        assert not AccessType.WRITE.is_read


class TestMemoryAccess:
    def test_defaults(self):
        access = MemoryAccess(pc=0x400, address=0x1000)
        assert access.is_read
        assert not access.is_write
        assert access.cpu == 0
        assert access.mode is ExecutionMode.USER
        assert access.instruction_count == 0

    def test_negative_pc_rejected(self):
        with pytest.raises(ValueError):
            MemoryAccess(pc=-1, address=0)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            MemoryAccess(pc=0, address=-4)

    def test_negative_cpu_rejected(self):
        with pytest.raises(ValueError):
            MemoryAccess(pc=0, address=0, cpu=-1)

    def test_block_address(self):
        access = MemoryAccess(pc=0, address=0x1234)
        assert access.block_address(64) == 0x1200

    def test_region_base(self):
        access = MemoryAccess(pc=0, address=0x1234)
        assert access.region_base(2048) == 0x1000

    def test_equality_ignores_instruction_count(self):
        a = MemoryAccess(pc=1, address=2, instruction_count=10)
        b = MemoryAccess(pc=1, address=2, instruction_count=99)
        assert a == b

    def test_not_equal_to_raw_field_tuple(self):
        access = MemoryAccess(pc=1, address=2, cpu=3, instruction_count=4)
        raw = tuple(access)
        assert access != raw
        assert raw != access
        assert access != None  # noqa: E711 - exercising __eq__ fallback

    def test_frozen(self):
        access = MemoryAccess(pc=0, address=0)
        with pytest.raises(AttributeError):
            access.pc = 5

    def test_pickle_roundtrip_preserves_all_fields(self):
        import pickle

        access = MemoryAccess(
            pc=0x400, address=0x1000, access_type=AccessType.WRITE,
            cpu=3, mode=ExecutionMode.SYSTEM, instruction_count=99,
        )
        restored = pickle.loads(pickle.dumps(access))
        assert restored.access_type is AccessType.WRITE
        assert restored.mode is ExecutionMode.SYSTEM
        assert restored.instruction_count == 99
        assert restored == access

    def test_deepcopy_preserves_all_fields(self):
        import copy

        access = MemoryAccess(
            pc=1, address=2, access_type=AccessType.WRITE,
            mode=ExecutionMode.SYSTEM, instruction_count=7,
        )
        duplicate = copy.deepcopy(access)
        assert duplicate.is_write
        assert duplicate.mode is ExecutionMode.SYSTEM
        assert duplicate.instruction_count == 7


class TestConvenienceConstructors:
    def test_read_access(self):
        access = read_access(0x400, 0x2000, cpu=3)
        assert access.is_read
        assert access.cpu == 3

    def test_write_access(self):
        access = write_access(0x400, 0x2000)
        assert access.is_write
