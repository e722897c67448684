"""Replacement policies for set-associative structures.

A policy instance manages a single cache set (or any small fully-associative
pool of ways).  Policies are also reused by the Pattern History Table and the
Active Generation Table, which are organised like caches.
"""

from __future__ import annotations

from typing import Dict, List


class ReplacementPolicy:
    """Interface for per-set replacement state."""

    def on_fill(self, way: int) -> None:
        """Record that ``way`` was filled with a new line."""
        raise NotImplementedError

    def on_access(self, way: int) -> None:
        """Record a hit on ``way``."""
        raise NotImplementedError

    def on_invalidate(self, way: int) -> None:
        """Record that ``way`` was invalidated."""
        raise NotImplementedError

    def victim(self, valid_ways: List[int], invalid_ways: List[int]) -> int:
        """Choose a way to evict.

        ``invalid_ways`` lists ways currently holding no line; these are
        always preferred.  ``valid_ways`` lists occupied ways.
        """
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used replacement, tracked with a logical timestamp."""

    def __init__(self) -> None:
        self._clock = 0
        self._last_use: Dict[int, int] = {}

    def _touch(self, way: int) -> None:
        self._clock += 1
        self._last_use[way] = self._clock

    def on_fill(self, way: int) -> None:
        self._touch(way)

    def on_access(self, way: int) -> None:
        self._touch(way)

    def on_invalidate(self, way: int) -> None:
        self._last_use.pop(way, None)

    def victim(self, valid_ways: List[int], invalid_ways: List[int]) -> int:
        if invalid_ways:
            return invalid_ways[0]
        if not valid_ways:
            raise ValueError("victim() called with no ways")
        return min(valid_ways, key=lambda way: self._last_use.get(way, -1))
