"""Spatial region geometry.

A *spatial region* is a fixed-size, aligned portion of the address space
consisting of multiple consecutive cache blocks (Section 2.1).  All the SMS
structures share one :class:`RegionGeometry` describing the region and block
sizes; it centralises every piece of address arithmetic the predictor needs.
"""

from __future__ import annotations

from repro.memory.block import (
    block_address,
    block_index_in_region,
    blocks_per_region,
    is_power_of_two,
    region_base,
)


class RegionGeometry:
    """Geometry of spatial regions: region size and cache block size, in bytes.

    Immutable; compares and hashes by value.
    """

    __slots__ = ("region_size", "block_size")

    def __init__(self, region_size: int = 2048, block_size: int = 64) -> None:
        if not is_power_of_two(region_size):
            raise ValueError(f"region_size must be a power of two, got {region_size}")
        if not is_power_of_two(block_size):
            raise ValueError(f"block_size must be a power of two, got {block_size}")
        if block_size > region_size:
            raise ValueError(
                f"block_size ({block_size}) cannot exceed region_size ({region_size})"
            )
        object.__setattr__(self, "region_size", region_size)
        object.__setattr__(self, "block_size", block_size)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable RegionGeometry")

    def __reduce__(self):
        return RegionGeometry, (self.region_size, self.block_size)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.region_size == other.region_size and self.block_size == other.block_size

    def __hash__(self) -> int:
        return hash((self.region_size, self.block_size))

    def __repr__(self) -> str:
        return f"RegionGeometry(region_size={self.region_size!r}, block_size={self.block_size!r})"

    @property
    def blocks_per_region(self) -> int:
        """Number of cache blocks in one spatial region (the pattern width)."""
        return blocks_per_region(self.region_size, self.block_size)

    def region_base(self, address: int) -> int:
        """Base byte address of the region containing ``address``."""
        return region_base(address, self.region_size)

    def block_address(self, address: int) -> int:
        """Base byte address of the cache block containing ``address``."""
        return block_address(address, self.block_size)

    def offset(self, address: int) -> int:
        """Spatial region offset (block index within the region) of ``address``."""
        return block_index_in_region(address, self.region_size, self.block_size)

    def block_at_offset(self, region: int, offset: int) -> int:
        """Byte address of block ``offset`` within the region based at ``region``."""
        if not 0 <= offset < self.blocks_per_region:
            raise ValueError(
                f"offset {offset} out of range for {self.blocks_per_region}-block region"
            )
        return region + offset * self.block_size

    def split(self, address: int) -> tuple:
        """Return ``(region_base, offset)`` for ``address``."""
        return self.region_base(address), self.offset(address)

    def describe(self) -> str:
        return (
            f"{self.region_size}B regions of {self.blocks_per_region} x "
            f"{self.block_size}B blocks"
        )
