"""Tests for repro.memory.replacement."""

import pytest

from repro.memory.replacement import LRUPolicy


class TestLRUPolicy:
    def test_prefers_invalid_ways(self):
        policy = LRUPolicy()
        policy.on_fill(0)
        assert policy.victim([0], [1, 2]) == 1

    def test_evicts_least_recently_used(self):
        policy = LRUPolicy()
        for way in (0, 1, 2):
            policy.on_fill(way)
        policy.on_access(0)
        assert policy.victim([0, 1, 2], []) == 1

    def test_access_updates_recency(self):
        policy = LRUPolicy()
        policy.on_fill(0)
        policy.on_fill(1)
        policy.on_access(0)
        assert policy.victim([0, 1], []) == 1

    def test_invalidate_clears_state(self):
        policy = LRUPolicy()
        policy.on_fill(0)
        policy.on_fill(1)
        policy.on_invalidate(1)
        # Way 1 has no recorded use, so it is treated as oldest.
        assert policy.victim([0, 1], []) == 1

    def test_victim_with_no_ways_raises(self):
        with pytest.raises(ValueError):
            LRUPolicy().victim([], [])
