"""Set-associative cache model.

The cache is a functional (untimed) model: it tracks which blocks are
resident, replaces the least recently used block of a full set, and reports
hits, misses, evictions and invalidations.  Timing is layered on separately by
:mod:`repro.simulation.timing`.

Set layout
----------
A set is one plain ``dict`` mapping ``block_addr -> flags``, where ``flags``
is a small int of :data:`DIRTY` | :data:`PREFETCHED` | :data:`USED` bits.
There are no way numbers and no per-line objects: residency is ``block in
cache_set``, a fill is one dict store, and the dict's insertion order *is*
the replacement state.  The fused lane loop in
:mod:`repro.simulation.engine` reads and writes the same dicts directly and
relies on one invariant: **the first key is the LRU victim.**  Every hit pops
the block and re-appends it, every fill appends, so keys run least- to
most-recently used and ``for victim in cache_set: break`` is the whole victim
search.

Prefetch bookkeeping
--------------------
Every line remembers whether it was *filled by a prefetch* and whether it has
been *demand-referenced* since the fill.  This is what allows coverage and
overprediction to be measured exactly as the paper defines them: a demand hit
on a prefetched, not-yet-used line is a covered miss; a prefetched line that
leaves the cache unused is an overprediction.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.memory.block import is_power_of_two
from repro.memory.stats import CacheStatistics

#: Flag bits of one resident line (the values of a set dict).
DIRTY = 1
PREFETCHED = 2
USED = 4


class AccessOutcome(enum.Enum):
    """Result of a demand access."""

    HIT = "hit"
    MISS = "miss"
    PREFETCH_HIT = "prefetch_hit"

    @property
    def is_miss(self) -> bool:
        return self is AccessOutcome.MISS

    @property
    def is_hit(self) -> bool:
        return not self.is_miss


class CacheLine:
    """State of one resident cache block."""

    __slots__ = ("block_addr", "dirty", "prefetched", "used")

    def __init__(
        self, block_addr: int, dirty: bool = False, prefetched: bool = False, used: bool = True
    ) -> None:
        self.block_addr = block_addr
        self.dirty = dirty
        self.prefetched = prefetched
        self.used = used

    def mark_demand_use(self, is_write: bool) -> None:
        self.used = True
        if is_write:
            self.dirty = True


class EvictedLine(NamedTuple):
    """Information about a block leaving the cache."""

    block_addr: int
    dirty: bool
    prefetched: bool
    used: bool
    invalidated: bool = False

    @property
    def was_unused_prefetch(self) -> bool:
        return self.prefetched and not self.used


class AccessResult:
    """Outcome of :meth:`SetAssociativeCache.access`."""

    __slots__ = ("outcome", "block_addr", "evicted")

    def __init__(
        self, outcome: AccessOutcome, block_addr: int, evicted: Optional[EvictedLine] = None
    ) -> None:
        self.outcome = outcome
        self.block_addr = block_addr
        self.evicted = evicted

    @property
    def is_miss(self) -> bool:
        return self.outcome is AccessOutcome.MISS

    @property
    def is_prefetch_hit(self) -> bool:
        return self.outcome is AccessOutcome.PREFETCH_HIT


# Callback signature: called with the EvictedLine each time a line leaves the
# cache (replacement or invalidation).  Used by SMS to terminate generations.
EvictionListener = Callable[[EvictedLine], None]


class SetAssociativeCache:
    """A classic set-associative, write-back, allocate-on-miss cache."""

    def __init__(
        self,
        capacity_bytes: int,
        block_size: int = 64,
        associativity: int = 2,
        name: str = "cache",
    ) -> None:
        if not is_power_of_two(block_size):
            raise ValueError(f"block_size must be a power of two, got {block_size}")
        if capacity_bytes <= 0 or capacity_bytes % (block_size * associativity) != 0:
            raise ValueError(
                "capacity_bytes must be a positive multiple of block_size * associativity "
                f"(got capacity={capacity_bytes}, block={block_size}, assoc={associativity})"
            )
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.associativity = associativity
        self.num_sets = capacity_bytes // (block_size * associativity)
        if not is_power_of_two(self.num_sets):
            raise ValueError(
                f"number of sets must be a power of two, got {self.num_sets} "
                f"(capacity={capacity_bytes}, block={block_size}, assoc={associativity})"
            )
        # Hot-path address arithmetic: block/set mapping is mask-and-shift
        # (both sizes are powers of two), precomputed once so per-access
        # lookups avoid division and the power-of-two re-validation in
        # :func:`repro.memory.block.block_address`.
        self._block_mask = ~(block_size - 1)
        self._index_shift = block_size.bit_length() - 1
        self._set_mask = self.num_sets - 1
        # Each set is a dict block_addr -> flags whose key order is the LRU
        # order (module docstring, "Set layout").
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self.stats = CacheStatistics()
        self._eviction_listeners: List[EvictionListener] = []

    # ------------------------------------------------------------------ #
    # Address mapping
    # ------------------------------------------------------------------ #
    def set_index(self, address: int) -> int:
        """Return the set index for ``address``."""
        return (address >> self._index_shift) & self._set_mask

    # ------------------------------------------------------------------ #
    # Listeners
    # ------------------------------------------------------------------ #
    def add_eviction_listener(self, listener: EvictionListener) -> None:
        """Register a callback invoked whenever a line leaves the cache."""
        self._eviction_listeners.append(listener)

    def _notify_eviction(self, evicted: EvictedLine) -> None:
        for listener in self._eviction_listeners:
            listener(evicted)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def contains(self, address: int) -> bool:
        """Return True if the block containing ``address`` is resident."""
        block = address & self._block_mask
        return block in self._sets[(address >> self._index_shift) & self._set_mask]

    def probe(self, address: int) -> Optional[CacheLine]:
        """Return a snapshot of the resident line for ``address`` without
        updating any state (``None`` when the block is not resident)."""
        block = address & self._block_mask
        flags = self._sets[(address >> self._index_shift) & self._set_mask].get(block)
        if flags is None:
            return None
        return CacheLine(block, bool(flags & DIRTY), bool(flags & PREFETCHED), bool(flags & USED))

    def resident_blocks(self) -> List[int]:
        """Return a list of all resident block addresses (for tests)."""
        blocks = []
        for cache_set in self._sets:
            blocks.extend(cache_set)
        return blocks

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(s) for s in self._sets)

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #
    def access(self, address: int, is_write: bool = False, allocate: bool = True) -> AccessResult:
        """Perform a demand access; allocate on miss if ``allocate`` is True."""
        block = address & self._block_mask
        set_index = (address >> self._index_shift) & self._set_mask
        stats = self.stats
        stats.accesses += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1

        cache_set = self._sets[set_index]
        # Pop the block so that the store below re-appends it as most
        # recently used.
        flags = cache_set.pop(block, None)
        if flags is not None:
            if flags & (PREFETCHED | USED) == PREFETCHED:
                outcome = AccessOutcome.PREFETCH_HIT
                stats.prefetch_hits += 1
                stats.prefetched_used += 1
            else:
                outcome = AccessOutcome.HIT
            stats.hits += 1
            cache_set[block] = flags | (USED | DIRTY if is_write else USED)
            return AccessResult(outcome=outcome, block_addr=block)

        stats.misses += 1
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1
        evicted = None
        if allocate:
            evicted = self._install(set_index, block, USED | DIRTY if is_write else USED)
        return AccessResult(outcome=AccessOutcome.MISS, block_addr=block, evicted=evicted)

    def fill(self, address: int, prefetched: bool = False, dirty: bool = False) -> Optional[EvictedLine]:
        """Install the block containing ``address`` (e.g. a prefetch fill).

        Returns the line evicted to make room, if any.  Filling a block that
        is already resident is a no-op (the existing line keeps its state).
        """
        block = address & self._block_mask
        set_index = (address >> self._index_shift) & self._set_mask
        if block in self._sets[set_index]:
            return None
        if prefetched:
            self.stats.prefetch_fills += 1
        flags = PREFETCHED if prefetched else USED
        return self._install(set_index, block, flags | DIRTY if dirty else flags)

    def invalidate(self, address: int) -> Optional[EvictedLine]:
        """Remove the block containing ``address`` (coherence invalidation)."""
        block = address & self._block_mask
        flags = self._sets[(address >> self._index_shift) & self._set_mask].pop(block, None)
        if flags is None:
            return None
        self.stats.invalidations += 1
        if flags & (PREFETCHED | USED) == PREFETCHED:
            self.stats.prefetched_evicted_unused += 1
        evicted = _evicted_line(block, flags, invalidated=True)
        self._notify_eviction(evicted)
        return evicted

    def flush(self) -> List[EvictedLine]:
        """Remove every resident line, notifying listeners for each."""
        flushed = []
        for cache_set in self._sets:
            for block in list(cache_set):
                evicted = _evicted_line(block, cache_set.pop(block), invalidated=True)
                self._notify_eviction(evicted)
                flushed.append(evicted)
        return flushed

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _install(self, set_index: int, block: int, flags: int) -> Optional[EvictedLine]:
        cache_set = self._sets[set_index]
        evicted_line: Optional[EvictedLine] = None
        if len(cache_set) >= self.associativity:
            for victim in cache_set:  # first key = LRU victim
                break
            victim_flags = cache_set.pop(victim)
            self.stats.evictions += 1
            if victim_flags & DIRTY:
                self.stats.dirty_evictions += 1
            if victim_flags & (PREFETCHED | USED) == PREFETCHED:
                self.stats.prefetched_evicted_unused += 1
            evicted_line = _evicted_line(victim, victim_flags, invalidated=False)
            self._notify_eviction(evicted_line)
        cache_set[block] = flags
        return evicted_line

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache(name={self.name!r}, capacity={self.capacity_bytes}, "
            f"block={self.block_size}, assoc={self.associativity}, sets={self.num_sets})"
        )


def _evicted_line(block: int, flags: int, invalidated: bool) -> EvictedLine:
    return EvictedLine(
        block, bool(flags & DIRTY), bool(flags & PREFETCHED), bool(flags & USED), invalidated
    )
