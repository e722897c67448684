"""Levels of the memory hierarchy.

The simulation engine manages its own per-CPU L1s and shared L2 directly (it
needs to interleave coherence actions); what it shares with the prefetchers
and the reports is the name of the level that served a request.
"""

from __future__ import annotations

import enum


class MemoryLevel(enum.Enum):
    """Which level of the hierarchy supplied the data."""

    L1 = "L1"
    L2 = "L2"
    MEMORY = "memory"
