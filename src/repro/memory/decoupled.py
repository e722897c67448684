"""A decoupled sectored cache.

Prior spatial predictors (Kumar & Wilkerson's spatial footprint predictor)
trained on a *decoupled sectored* cache [22]: the tag array holds one tag per
region-sized sector with a valid bit per block, so a block may only be
resident while its sector's tag is resident, and replacing a sector evicts
all of its blocks.  Section 4.3 of the paper shows this organisation loses
coverage on commercial workloads because interleaved accesses conflict in the
sector tags.

:class:`repro.core.training.DecoupledSectoredTrainer` approximates this
organisation by forcing evictions into a conventional cache, and that
approximation is what Figures 8 and 9 run.  No figure simulates this module:
it is the *actual* cache structure, kept as the reference implementation
``tests/test_decoupled_cache.py`` compares the approximation against.  It
exposes the same access/fill/invalidate/listener interface as
:class:`repro.memory.cache.SetAssociativeCache`, so it can stand in wherever
a cache-like object is expected.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.memory.block import (
    block_address,
    block_index_in_region,
    blocks_per_region,
    is_power_of_two,
    region_base,
)
from repro.memory.cache import AccessOutcome, AccessResult, CacheLine, EvictedLine
from repro.memory.replacement import LRUPolicy
from repro.memory.stats import CacheStatistics


class _Sector:
    """One resident sector: region tag plus per-block line state."""

    __slots__ = ("region", "lines")

    def __init__(self, region: int, num_blocks: int) -> None:
        self.region = region
        self.lines: Dict[int, CacheLine] = {}

    def line_for(self, offset: int) -> Optional[CacheLine]:
        return self.lines.get(offset)


class DecoupledSectoredCache:
    """A sectored cache: sector-granularity tags, block-granularity data."""

    def __init__(
        self,
        capacity_bytes: int,
        sector_size: int = 2048,
        block_size: int = 64,
        associativity: int = 2,
        name: str = "sectored-cache",
    ) -> None:
        if not is_power_of_two(block_size) or not is_power_of_two(sector_size):
            raise ValueError("block_size and sector_size must be powers of two")
        if sector_size < block_size:
            raise ValueError(
                f"sector_size ({sector_size}) must be at least block_size ({block_size})"
            )
        if capacity_bytes <= 0 or capacity_bytes % (sector_size * associativity) != 0:
            raise ValueError(
                "capacity_bytes must be a positive multiple of sector_size * associativity "
                f"(got capacity={capacity_bytes}, sector={sector_size}, assoc={associativity})"
            )
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.sector_size = sector_size
        self.block_size = block_size
        self.associativity = associativity
        self.blocks_per_sector = blocks_per_region(sector_size, block_size)
        self.num_sets = capacity_bytes // (sector_size * associativity)
        if not is_power_of_two(self.num_sets):
            raise ValueError(f"number of sets must be a power of two, got {self.num_sets}")
        self._sets: List[Dict[int, _Sector]] = [dict() for _ in range(self.num_sets)]
        self._policies: List[LRUPolicy] = [LRUPolicy() for _ in range(self.num_sets)]
        self.stats = CacheStatistics()
        self.sector_evictions = 0
        self._eviction_listeners: List[Callable[[EvictedLine], None]] = []

    # ------------------------------------------------------------------ #
    def add_eviction_listener(self, listener: Callable[[EvictedLine], None]) -> None:
        self._eviction_listeners.append(listener)

    def _notify(self, evicted: EvictedLine) -> None:
        for listener in self._eviction_listeners:
            listener(evicted)

    # ------------------------------------------------------------------ #
    def set_index(self, address: int) -> int:
        return (address // self.sector_size) % self.num_sets

    def _offset(self, address: int) -> int:
        return block_index_in_region(address, self.sector_size, self.block_size)

    def _find_way(self, set_index: int, region: int) -> Optional[int]:
        for way, sector in self._sets[set_index].items():
            if sector.region == region:
                return way
        return None

    def _lookup_sector(self, address: int, touch: bool) -> Optional[_Sector]:
        region = region_base(address, self.sector_size)
        set_index = self.set_index(address)
        way = self._find_way(set_index, region)
        if way is None:
            return None
        if touch:
            self._policies[set_index].on_access(way)
        return self._sets[set_index][way]

    # ------------------------------------------------------------------ #
    def contains(self, address: int) -> bool:
        sector = self._lookup_sector(address, touch=False)
        return sector is not None and self._offset(address) in sector.lines

    def probe(self, address: int) -> Optional[CacheLine]:
        sector = self._lookup_sector(address, touch=False)
        if sector is None:
            return None
        return sector.line_for(self._offset(address))

    @property
    def occupancy(self) -> int:
        """Number of valid blocks currently resident."""
        return sum(len(sector.lines) for cache_set in self._sets for sector in cache_set.values())

    @property
    def resident_sectors(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets)

    # ------------------------------------------------------------------ #
    def _evict_sector(self, set_index: int, way: int, invalidated: bool = False) -> None:
        sector = self._sets[set_index].pop(way)
        self._policies[set_index].on_invalidate(way)
        self.sector_evictions += 1
        for offset, line in sector.lines.items():
            self.stats.evictions += 1
            if line.dirty:
                self.stats.dirty_evictions += 1
            if line.prefetched and not line.used:
                self.stats.prefetched_evicted_unused += 1
            self._notify(
                EvictedLine(
                    block_addr=line.block_addr,
                    dirty=line.dirty,
                    prefetched=line.prefetched,
                    used=line.used,
                    invalidated=invalidated,
                )
            )

    def _sector_for_install(self, address: int) -> _Sector:
        region = region_base(address, self.sector_size)
        set_index = self.set_index(address)
        way = self._find_way(set_index, region)
        policy = self._policies[set_index]
        if way is not None:
            policy.on_access(way)
            return self._sets[set_index][way]
        cache_set = self._sets[set_index]
        if len(cache_set) >= self.associativity:
            victim_way = policy.victim(list(cache_set.keys()), [])
            self._evict_sector(set_index, victim_way)
        used_ways = set(cache_set.keys())
        way = next(w for w in range(self.associativity) if w not in used_ways)
        sector = _Sector(region=region, num_blocks=self.blocks_per_sector)
        cache_set[way] = sector
        policy.on_fill(way)
        return sector

    # ------------------------------------------------------------------ #
    def access(self, address: int, is_write: bool = False, allocate: bool = True) -> AccessResult:
        """Demand access: hit requires both the sector tag and the block's valid bit."""
        block = block_address(address, self.block_size)
        offset = self._offset(address)
        self.stats.accesses += 1
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1

        sector = self._lookup_sector(address, touch=True)
        line = sector.line_for(offset) if sector is not None else None
        if line is not None:
            if line.prefetched and not line.used:
                outcome = AccessOutcome.PREFETCH_HIT
                self.stats.prefetch_hits += 1
                self.stats.prefetched_used += 1
            else:
                outcome = AccessOutcome.HIT
            self.stats.hits += 1
            line.mark_demand_use(is_write)
            return AccessResult(outcome=outcome, block_addr=block)

        self.stats.misses += 1
        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
        if allocate:
            sector = self._sector_for_install(address)
            sector.lines[offset] = CacheLine(block_addr=block, dirty=is_write, prefetched=False, used=True)
        return AccessResult(outcome=AccessOutcome.MISS, block_addr=block)

    def fill(self, address: int, prefetched: bool = False, dirty: bool = False) -> Optional[EvictedLine]:
        """Install a block (e.g. a prefetch fill); allocates its sector if needed."""
        block = block_address(address, self.block_size)
        offset = self._offset(address)
        if self.contains(address):
            return None
        if prefetched:
            self.stats.prefetch_fills += 1
        sector = self._sector_for_install(address)
        sector.lines[offset] = CacheLine(
            block_addr=block, dirty=dirty, prefetched=prefetched, used=not prefetched
        )
        return None

    def invalidate(self, address: int) -> Optional[EvictedLine]:
        """Invalidate one block (the sector tag stays if other blocks remain)."""
        sector = self._lookup_sector(address, touch=False)
        if sector is None:
            return None
        offset = self._offset(address)
        line = sector.lines.pop(offset, None)
        if line is None:
            return None
        self.stats.invalidations += 1
        if line.prefetched and not line.used:
            self.stats.prefetched_evicted_unused += 1
        evicted = EvictedLine(
            block_addr=line.block_addr,
            dirty=line.dirty,
            prefetched=line.prefetched,
            used=line.used,
            invalidated=True,
        )
        self._notify(evicted)
        if not sector.lines:
            # Drop the now-empty sector tag.
            set_index = self.set_index(address)
            way = self._find_way(set_index, sector.region)
            if way is not None:
                self._sets[set_index].pop(way)
                self._policies[set_index].on_invalidate(way)
        return evicted

    def flush(self) -> List[EvictedLine]:
        """Remove every resident sector, notifying listeners for each block."""
        flushed: List[EvictedLine] = []
        collector = flushed.append
        self._eviction_listeners.append(collector)
        try:
            for set_index, cache_set in enumerate(self._sets):
                for way in list(cache_set):
                    self._evict_sector(set_index, way, invalidated=True)
        finally:
            self._eviction_listeners.remove(collector)
        return flushed

    def __repr__(self) -> str:
        return (
            f"DecoupledSectoredCache(name={self.name!r}, capacity={self.capacity_bytes}, "
            f"sector={self.sector_size}, block={self.block_size}, assoc={self.associativity})"
        )
