"""LRU replacement state for one set of a set-associative structure.

A :class:`LRUPolicy` manages a single set (or any small fully-associative
pool of ways) of the sectored tag arrays; the caches, the PHT and the AGT
keep their sets in recency order instead and need no policy object.
"""

from __future__ import annotations

from typing import Dict, List


class LRUPolicy:
    """Least-recently-used replacement, tracked with a logical timestamp."""

    def __init__(self) -> None:
        self._clock = 0
        self._last_use: Dict[int, int] = {}

    def _touch(self, way: int) -> None:
        self._clock += 1
        self._last_use[way] = self._clock

    def on_fill(self, way: int) -> None:
        """Record that ``way`` was filled with a new line."""
        self._touch(way)

    def on_access(self, way: int) -> None:
        """Record a hit on ``way``."""
        self._touch(way)

    def on_invalidate(self, way: int) -> None:
        """Record that ``way`` was invalidated."""
        self._last_use.pop(way, None)

    def victim(self, valid_ways: List[int], invalid_ways: List[int]) -> int:
        """Choose a way to evict: the first of ``invalid_ways`` (ways holding
        no line) when there is one, else the least recently used valid way."""
        if invalid_ways:
            return invalid_ways[0]
        if not valid_ways:
            raise ValueError("victim() called with no ways")
        return min(valid_ways, key=lambda way: self._last_use.get(way, -1))
