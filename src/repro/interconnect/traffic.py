"""Bandwidth accounting.

Figure 4's argument against large cache blocks rests on bandwidth
efficiency: larger blocks move more unused data.  The accountant tallies
bytes moved per traffic class so experiments can report bandwidth overhead
relative to a 64-byte-block baseline, and so the timing model can check
demand + prefetch traffic against the machine's bisection bandwidth.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional


class TrafficClass(enum.Enum):
    """Category of interconnect traffic."""

    DEMAND_FETCH = "demand_fetch"
    PREFETCH = "prefetch"
    WRITEBACK = "writeback"
    INVALIDATION = "invalidation"
    UPGRADE = "upgrade"


class BandwidthAccountant:
    """Tallies bytes transferred over the interconnect by class."""

    __slots__ = ("block_size", "bytes_by_class", "useful_bytes")

    def __init__(
        self,
        block_size: int = 64,
        bytes_by_class: Optional[Dict[TrafficClass, int]] = None,
        useful_bytes: int = 0,
    ) -> None:
        self.block_size = block_size
        self.bytes_by_class = {} if bytes_by_class is None else bytes_by_class
        self.useful_bytes = useful_bytes

    def record_block_transfer(self, traffic_class: TrafficClass, blocks: int = 1) -> None:
        """Record the transfer of ``blocks`` cache blocks of ``traffic_class``."""
        self.bytes_by_class[traffic_class] = (
            self.bytes_by_class.get(traffic_class, 0) + blocks * self.block_size
        )

    def record_useful_bytes(self, byte_count: int) -> None:
        """Record bytes that were actually consumed by demand accesses."""
        self.useful_bytes += byte_count
