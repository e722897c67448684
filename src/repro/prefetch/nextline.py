"""Next-line (sequential) prefetcher.

The simplest possible spatial prefetcher: on a demand miss, fetch the next
``degree`` sequential cache blocks.  Used as a sanity baseline in the
extension benches — it captures dense sequential scans but wastes bandwidth
on sparse, irregular footprints.
"""

from __future__ import annotations

from repro.coherence.multiprocessor import AccessOutcomeRecord
from repro.memory.block import block_address
from repro.prefetch.base import Prefetcher, PrefetcherResponse, PrefetchRequest
from repro.trace.record import MemoryAccess


class NextLinePrefetcher(Prefetcher):
    """Fetch the next ``degree`` sequential blocks on every demand miss."""

    name = "next-line"
    streams_into_l1 = True

    def __init__(self, degree: int = 1, block_size: int = 64, on_miss_only: bool = True) -> None:
        super().__init__()
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        self.degree = degree
        self.block_size = block_size
        self.on_miss_only = on_miss_only

    def on_access(self, record: MemoryAccess, outcome: AccessOutcomeRecord) -> PrefetcherResponse:
        response = PrefetcherResponse()
        if self.on_miss_only and not outcome.l1_miss:
            return response
        block = block_address(record.address, self.block_size)
        for step in range(1, self.degree + 1):
            response.prefetches.append(
                PrefetchRequest(address=block + step * self.block_size, target_l1=True)
            )
        return response
