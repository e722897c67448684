"""Tests for repro.core.indexing (prediction index schemes)."""

import pytest

from repro.core.indexing import (
    AddressIndex,
    PCAddressIndex,
    PCIndex,
    PCOffsetIndex,
    TriggerInfo,
    make_index_scheme,
)
from repro.core.region import RegionGeometry


def trigger(pc=0x400, address=0x1000 + 5 * 64 + 8, geometry=None):
    geometry = geometry or RegionGeometry()
    region, offset = geometry.split(address)
    return TriggerInfo(pc=pc, address=address, region=region, offset=offset)


class TestSchemes:
    def test_address_index_uses_block_address(self, geometry):
        scheme = AddressIndex(geometry)
        key = scheme.key(trigger(address=0x1000 + 5 * 64 + 8))
        assert key == ("addr", 0x1000 + 5 * 64)

    def test_address_index_ignores_pc(self, geometry):
        scheme = AddressIndex(geometry)
        assert scheme.key(trigger(pc=0x400)) == scheme.key(trigger(pc=0x800))

    def test_pc_index(self, geometry):
        scheme = PCIndex(geometry)
        assert scheme.key(trigger(pc=0x400)) == ("pc", 0x400)
        assert scheme.key(trigger(address=0x1000)) == scheme.key(trigger(address=0x9000))

    def test_pc_address_index_distinguishes_both(self, geometry):
        scheme = PCAddressIndex(geometry)
        assert scheme.key(trigger(pc=0x400)) != scheme.key(trigger(pc=0x404))
        assert scheme.key(trigger(address=0x1000)) != scheme.key(trigger(address=0x9000))

    def test_pc_offset_index(self, geometry):
        scheme = PCOffsetIndex(geometry)
        key = scheme.key(trigger(pc=0x400, address=0x1000 + 5 * 64))
        assert key == ("pc+off", 0x400, 5)

    def test_pc_offset_same_for_different_regions_same_alignment(self, geometry):
        scheme = PCOffsetIndex(geometry)
        a = scheme.key(trigger(address=0x1000 + 5 * 64))
        b = scheme.key(trigger(address=0x8000 + 5 * 64))
        assert a == b


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("address", AddressIndex),
            ("addr", AddressIndex),
            ("pc", PCIndex),
            ("pc+address", PCAddressIndex),
            ("PC+Addr", PCAddressIndex),
            ("pc+offset", PCOffsetIndex),
            ("pc+off", PCOffsetIndex),
        ],
    )
    def test_names(self, name, cls, geometry):
        assert isinstance(make_index_scheme(name, geometry), cls)

    def test_unknown(self, geometry):
        with pytest.raises(ValueError):
            make_index_scheme("dc", geometry)
