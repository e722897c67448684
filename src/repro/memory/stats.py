"""Cache statistics counters.

The counters distinguish demand misses from prefetch activity so that the
coverage and overprediction metrics of the paper (Figures 6, 8, 11) can be
computed directly:

* *covered miss*  — a demand access that hits a block that was brought into
  the cache by the prefetcher and had not yet been demand-referenced
  (``prefetch_hits``).  Without the prefetcher this access would have missed.
* *overprediction* — a prefetched block evicted or invalidated before any
  demand reference used it (``prefetched_evicted_unused``).
"""

from __future__ import annotations

from typing import Dict


class CacheStatistics:
    """Counter bundle for one cache."""

    __slots__ = (
        "accesses",
        "reads",
        "writes",
        "hits",
        "misses",
        "read_misses",
        "write_misses",
        "prefetch_hits",
        "prefetch_fills",
        "prefetched_used",
        "prefetched_evicted_unused",
        "evictions",
        "invalidations",
        "dirty_evictions",
    )

    def __init__(
        self,
        accesses: int = 0,
        reads: int = 0,
        writes: int = 0,
        hits: int = 0,
        misses: int = 0,
        read_misses: int = 0,
        write_misses: int = 0,
        prefetch_hits: int = 0,
        prefetch_fills: int = 0,
        prefetched_used: int = 0,
        prefetched_evicted_unused: int = 0,
        evictions: int = 0,
        invalidations: int = 0,
        dirty_evictions: int = 0,
    ) -> None:
        self.accesses = accesses
        self.reads = reads
        self.writes = writes
        self.hits = hits
        self.misses = misses
        self.read_misses = read_misses
        self.write_misses = write_misses
        self.prefetch_hits = prefetch_hits
        self.prefetch_fills = prefetch_fills
        self.prefetched_used = prefetched_used
        self.prefetched_evicted_unused = prefetched_evicted_unused
        self.evictions = evictions
        self.invalidations = invalidations
        self.dirty_evictions = dirty_evictions

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def demand_misses(self) -> int:
        return self.misses

    @property
    def covered_misses(self) -> int:
        """Demand accesses that would have missed but hit on a prefetched block."""
        return self.prefetch_hits

    @property
    def overpredictions(self) -> int:
        """Prefetched blocks never used before leaving the cache."""
        return self.prefetched_evicted_unused

    def misses_per_instruction(self, instructions: int) -> float:
        return self.misses / instructions if instructions else 0.0

    def merge(self, other: "CacheStatistics") -> "CacheStatistics":
        """Return a new statistics object summing self and ``other``."""
        merged = CacheStatistics()
        for name in self.__slots__:
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class PrefetcherStatistics:
    """Counters for a prefetcher's issue activity."""

    __slots__ = (
        "predictions",
        "issued",
        "dropped_duplicate",
        "dropped_resource",
        "pht_lookups",
        "pht_hits",
        "trained_patterns",
    )

    def __init__(
        self,
        predictions: int = 0,
        issued: int = 0,
        dropped_duplicate: int = 0,
        dropped_resource: int = 0,
        pht_lookups: int = 0,
        pht_hits: int = 0,
        trained_patterns: int = 0,
    ) -> None:
        self.predictions = predictions
        self.issued = issued
        self.dropped_duplicate = dropped_duplicate
        self.dropped_resource = dropped_resource
        self.pht_lookups = pht_lookups
        self.pht_hits = pht_hits
        self.trained_patterns = trained_patterns

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    @property
    def pht_hit_rate(self) -> float:
        return self.pht_hits / self.pht_lookups if self.pht_lookups else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}
