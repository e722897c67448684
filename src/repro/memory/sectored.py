"""Sectored tag arrays.

Prior spatial predictors trained on *sectored* (sub-blocked) cache tag
arrays: one tag per region-sized sector, with a valid bit per cache block
inside the sector.  The valid bits of a sector implicitly record the spatial
footprint observed while the sector's tag was resident.

This module provides the generic :class:`SectoredTagArray` used to model both
organisations compared against the AGT in Figure 8:

* the *logical sectored* tag array (Chen et al. [4]) computes cache contents
  as if the cache were sectored but does not affect real replacements; and
* the *decoupled sectored* cache (Kumar & Wilkerson [17], Seznec [22]) whose
  tag conflicts constrain what the real cache may hold.

The trainer adapters that turn these structures into SMS-compatible training
sources live in :mod:`repro.core.training`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.memory.block import (
    block_index_in_region,
    blocks_per_region,
    is_power_of_two,
    region_base,
)
from repro.memory.replacement import LRUPolicy


class SectorState:
    """State of one sector (spatial region) entry in a sectored tag array."""

    __slots__ = (
        "region",
        "num_blocks",
        "trigger_pc",
        "trigger_offset",
        "trigger_address",
        "valid_bits",
    )

    def __init__(
        self,
        region: int,
        num_blocks: int,
        trigger_pc: int = 0,
        trigger_offset: int = 0,
        trigger_address: int = 0,
        valid_bits: Optional[List[bool]] = None,
    ) -> None:
        self.region = region
        self.num_blocks = num_blocks
        self.trigger_pc = trigger_pc
        self.trigger_offset = trigger_offset
        self.trigger_address = trigger_address
        self.valid_bits = valid_bits if valid_bits else [False] * num_blocks

    def set_block(self, offset: int) -> None:
        if not 0 <= offset < self.num_blocks:
            raise IndexError(f"offset {offset} out of range for {self.num_blocks}-block sector")
        self.valid_bits[offset] = True

    def has_block(self, offset: int) -> bool:
        return self.valid_bits[offset]

    @property
    def pattern_bits(self) -> int:
        """Return the footprint as an integer bit mask (bit i = block i accessed)."""
        bits = 0
        for index, valid in enumerate(self.valid_bits):
            if valid:
                bits |= 1 << index
        return bits

    @property
    def population(self) -> int:
        return sum(1 for valid in self.valid_bits if valid)


class SectoredTagArray:
    """A set-associative array of sector entries keyed by region base address."""

    def __init__(
        self,
        num_sectors: int,
        associativity: int,
        region_size: int,
        block_size: int = 64,
        name: str = "sectored-tags",
    ) -> None:
        if num_sectors <= 0 or num_sectors % associativity != 0:
            raise ValueError(
                f"num_sectors ({num_sectors}) must be a positive multiple of associativity ({associativity})"
            )
        self.name = name
        self.associativity = associativity
        self.region_size = region_size
        self.block_size = block_size
        self.blocks_per_sector = blocks_per_region(region_size, block_size)
        self.num_sets = num_sectors // associativity
        if not is_power_of_two(self.num_sets):
            raise ValueError(f"number of sets must be a power of two, got {self.num_sets}")
        self._sets: List[Dict[int, SectorState]] = [dict() for _ in range(self.num_sets)]
        self._policies: List[LRUPolicy] = [LRUPolicy() for _ in range(self.num_sets)]

    # ------------------------------------------------------------------ #
    def set_index(self, address: int) -> int:
        return (address // self.region_size) % self.num_sets

    def _find_way(self, set_index: int, region: int) -> Optional[int]:
        for way, sector in self._sets[set_index].items():
            if sector.region == region:
                return way
        return None

    def lookup(self, address: int) -> Optional[SectorState]:
        """Return the sector covering ``address``, updating recency on hit."""
        region = region_base(address, self.region_size)
        set_index = self.set_index(address)
        way = self._find_way(set_index, region)
        if way is None:
            return None
        self._policies[set_index].on_access(way)
        return self._sets[set_index][way]

    def probe(self, address: int) -> Optional[SectorState]:
        """Return the sector covering ``address`` without touching recency."""
        region = region_base(address, self.region_size)
        set_index = self.set_index(address)
        way = self._find_way(set_index, region)
        if way is None:
            return None
        return self._sets[set_index][way]

    def allocate(
        self,
        address: int,
        trigger_pc: int = 0,
    ) -> Tuple[SectorState, Optional[SectorState]]:
        """Allocate a sector for the region containing ``address``.

        Returns ``(new_sector, evicted_sector)``.  ``evicted_sector`` is the
        conflict victim (with its accumulated footprint) or ``None``.
        """
        region = region_base(address, self.region_size)
        set_index = self.set_index(address)
        tag_set = self._sets[set_index]
        policy = self._policies[set_index]
        existing_way = self._find_way(set_index, region)
        if existing_way is not None:
            policy.on_access(existing_way)
            return tag_set[existing_way], None

        evicted: Optional[SectorState] = None
        if len(tag_set) >= self.associativity:
            victim_way = policy.victim(list(tag_set.keys()), [])
            evicted = tag_set.pop(victim_way)
            policy.on_invalidate(victim_way)
            way = victim_way
        else:
            used = set(tag_set.keys())
            way = next(w for w in range(self.associativity) if w not in used)

        offset = block_index_in_region(address, self.region_size, self.block_size)
        sector = SectorState(
            region=region,
            num_blocks=self.blocks_per_sector,
            trigger_pc=trigger_pc,
            trigger_offset=offset,
            # The trigger's block, as the AGT keeps it: the address-indexed
            # PHT keys name a block, not a byte.
            trigger_address=region + offset * self.block_size,
        )
        tag_set[way] = sector
        policy.on_fill(way)
        return sector, evicted

    def remove(self, address: int) -> Optional[SectorState]:
        """Remove and return the sector covering ``address``, if present."""
        region = region_base(address, self.region_size)
        set_index = self.set_index(address)
        way = self._find_way(set_index, region)
        if way is None:
            return None
        self._policies[set_index].on_invalidate(way)
        return self._sets[set_index].pop(way)

    def sectors(self) -> List[SectorState]:
        """Return all resident sectors (test/inspection helper)."""
        result = []
        for tag_set in self._sets:
            result.extend(tag_set.values())
        return result

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


class LogicalSectoredTagArray(SectoredTagArray):
    """A sectored tag array sized as if a given cache were sectored.

    A cache of ``capacity_bytes`` with sectors of ``region_size`` bytes holds
    ``capacity_bytes / region_size`` sectors; the logical tag array has that
    many entries, at the cache's associativity, and mirrors the conflict
    behaviour the cache would have if it really were sectored — without
    affecting the real cache's contents.
    """

    def __init__(
        self,
        capacity_bytes: int,
        associativity: int,
        region_size: int,
        block_size: int = 64,
        name: str = "logical-sectored",
    ) -> None:
        num_sectors = max(associativity, capacity_bytes // region_size)
        # Round the set count down to a power of two so indexing stays mask-based.
        num_sets = num_sectors // associativity
        power = 1
        while power * 2 <= num_sets:
            power *= 2
        num_sectors = power * associativity
        super().__init__(
            num_sectors=num_sectors,
            associativity=associativity,
            region_size=region_size,
            block_size=block_size,
            name=name,
        )
