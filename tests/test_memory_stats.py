"""Tests for repro.memory.stats counter bundles."""

from repro.memory.stats import CacheStatistics, PrefetcherStatistics


class TestCacheStatistics:
    def test_coverage_aliases(self):
        stats = CacheStatistics(prefetch_hits=5, prefetched_evicted_unused=2)
        assert stats.overpredictions == 2

    def test_merge_sums_every_field(self):
        a = CacheStatistics(accesses=1, hits=1, prefetch_fills=2)
        b = CacheStatistics(accesses=3, misses=3, prefetch_fills=1)
        merged = a.merge(b)
        assert merged.accesses == 4
        assert merged.hits == 1
        assert merged.misses == 3
        assert merged.prefetch_fills == 3
        # Merging does not mutate the inputs.
        assert a.accesses == 1

    def test_as_dict(self):
        stats = CacheStatistics(accesses=2)
        assert stats.as_dict()["accesses"] == 2


class TestPrefetcherStatistics:
    def test_as_dict(self):
        stats = PrefetcherStatistics(issued=3)
        assert stats.as_dict()["issued"] == 3
