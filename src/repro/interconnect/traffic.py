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


# Control messages (invalidations, upgrades) are small fixed-size packets.
_CONTROL_MESSAGE_BYTES = 8


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

    def record_control_message(self, traffic_class: TrafficClass, messages: int = 1) -> None:
        """Record ``messages`` small control packets (invalidations, upgrades)."""
        self.bytes_by_class[traffic_class] = (
            self.bytes_by_class.get(traffic_class, 0) + messages * _CONTROL_MESSAGE_BYTES
        )

    def record_useful_bytes(self, byte_count: int) -> None:
        """Record bytes that were actually consumed by demand accesses."""
        self.useful_bytes += byte_count

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_class.values())

    def bytes_for(self, traffic_class: TrafficClass) -> int:
        return self.bytes_by_class.get(traffic_class, 0)

    def bandwidth_efficiency(self) -> float:
        """Fraction of transferred bytes that were useful (demand-consumed)."""
        total = self.total_bytes
        return self.useful_bytes / total if total else 1.0

    def utilization(self, elapsed_seconds: float, peak_bytes_per_second: float) -> float:
        """Fraction of peak bisection bandwidth consumed over ``elapsed_seconds``."""
        if elapsed_seconds <= 0 or peak_bytes_per_second <= 0:
            raise ValueError("elapsed_seconds and peak_bytes_per_second must be positive")
        return self.total_bytes / (elapsed_seconds * peak_bytes_per_second)
