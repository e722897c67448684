"""Address arithmetic helpers shared by caches and predictors.

Addresses throughout the repository are plain non-negative integers (byte
addresses).  Block and region sizes must be powers of two, matching real
hardware and allowing mask-based arithmetic.
"""

from __future__ import annotations


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def _check_power_of_two(value: int, name: str) -> None:
    if not is_power_of_two(value):
        raise ValueError(f"{name} must be a positive power of two, got {value}")


def block_address(address: int, block_size: int) -> int:
    """Return the base address of the cache block containing ``address``."""
    _check_power_of_two(block_size, "block_size")
    return address & ~(block_size - 1)


def region_base(address: int, region_size: int) -> int:
    """Return the base address of the spatial region containing ``address``."""
    _check_power_of_two(region_size, "region_size")
    return address & ~(region_size - 1)


def block_index_in_region(address: int, region_size: int, block_size: int) -> int:
    """Return the block index (spatial region offset) of ``address`` within its region."""
    _check_power_of_two(region_size, "region_size")
    _check_power_of_two(block_size, "block_size")
    if block_size > region_size:
        raise ValueError(
            f"block_size ({block_size}) cannot exceed region_size ({region_size})"
        )
    return (address & (region_size - 1)) // block_size


def blocks_per_region(region_size: int, block_size: int) -> int:
    """Return the number of cache blocks in one spatial region."""
    _check_power_of_two(region_size, "region_size")
    _check_power_of_two(block_size, "block_size")
    if block_size > region_size:
        raise ValueError(
            f"block_size ({block_size}) cannot exceed region_size ({region_size})"
        )
    return region_size // block_size
