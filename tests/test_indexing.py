"""Tests for repro.core.indexing (prediction index schemes)."""

import pytest

from repro.core.indexing import (
    AddressIndex,
    PCAddressIndex,
    PCIndex,
    PCOffsetIndex,
    make_index_scheme,
)
from repro.core.region import RegionGeometry


def key(scheme, pc=0x400, address=0x1000 + 5 * 64 + 8):
    """``scheme``'s key for a trigger access at ``address``, handed over as a
    trainer hands it: the trigger's block address and region offset."""
    geometry = RegionGeometry()
    _, offset = geometry.split(address)
    return scheme.key_of(pc, geometry.block_address(address), offset)


class TestSchemes:
    def test_address_index_uses_block_address(self, geometry):
        scheme = AddressIndex(geometry)
        assert key(scheme, address=0x1000 + 5 * 64 + 8) == ("addr", 0x1000 + 5 * 64)

    def test_address_index_ignores_pc(self, geometry):
        scheme = AddressIndex(geometry)
        assert key(scheme, pc=0x400) == key(scheme, pc=0x800)

    def test_pc_index(self, geometry):
        scheme = PCIndex(geometry)
        assert key(scheme, pc=0x400) == ("pc", 0x400)
        assert key(scheme, address=0x1000) == key(scheme, address=0x9000)

    def test_pc_address_index_distinguishes_both(self, geometry):
        scheme = PCAddressIndex(geometry)
        assert key(scheme, pc=0x400) != key(scheme, pc=0x404)
        assert key(scheme, address=0x1000) != key(scheme, address=0x9000)

    def test_pc_offset_index(self, geometry):
        scheme = PCOffsetIndex(geometry)
        assert key(scheme, pc=0x400, address=0x1000 + 5 * 64) == ("pc+off", 0x400, 5)

    def test_pc_offset_same_for_different_regions_same_alignment(self, geometry):
        scheme = PCOffsetIndex(geometry)
        assert key(scheme, address=0x1000 + 5 * 64) == key(scheme, address=0x8000 + 5 * 64)


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("address", AddressIndex),
            ("pc", PCIndex),
            ("pc+address", PCAddressIndex),
            ("pc+offset", PCOffsetIndex),
        ],
    )
    def test_names(self, name, cls, geometry):
        assert isinstance(make_index_scheme(name, geometry), cls)

    def test_unknown(self, geometry):
        # One name per scheme: no case folding, no short aliases.
        for name in ("dc", "addr", "pc+off", "PC+Address"):
            with pytest.raises(ValueError):
                make_index_scheme(name, geometry)
