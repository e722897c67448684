"""Per-PC stride prefetcher.

A classic reference-prediction-table stride prefetcher [24]: each load PC
tracks its last address, last stride, and a two-bit confidence counter; once
the stride is confirmed the prefetcher issues ``degree`` prefetches ahead of
the current address.  Used as an extension baseline (the paper's introduction
notes simple stride prefetching captures dense array traversals but not the
irregular spatial correlation of commercial workloads).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.coherence.multiprocessor import AccessOutcomeRecord
from repro.memory.block import block_address
from repro.prefetch.base import Prefetcher, PrefetcherResponse, PrefetchRequest
from repro.trace.record import MemoryAccess


class _StrideEntry:
    __slots__ = ("last_address", "stride", "confidence")

    def __init__(self, last_address: int, stride: int = 0, confidence: int = 0) -> None:
        self.last_address = last_address
        self.stride = stride
        self.confidence = confidence


class StridePrefetcher(Prefetcher):
    """Reference prediction table stride prefetcher."""

    name = "stride"
    streams_into_l1 = True

    def __init__(
        self,
        table_entries: int = 256,
        degree: int = 4,
        block_size: int = 64,
        confidence_threshold: int = 2,
        train_on_l1_misses_only: bool = False,
    ) -> None:
        super().__init__()
        if table_entries <= 0:
            raise ValueError(f"table_entries must be positive, got {table_entries}")
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        self.table_entries = table_entries
        self.degree = degree
        self.block_size = block_size
        self.confidence_threshold = confidence_threshold
        self.train_on_l1_misses_only = train_on_l1_misses_only
        self._table: "OrderedDict[int, _StrideEntry]" = OrderedDict()

    def _entry(self, pc: int) -> Optional[_StrideEntry]:
        entry = self._table.get(pc)
        if entry is not None:
            self._table.move_to_end(pc)
        return entry

    def _allocate(self, pc: int, address: int) -> _StrideEntry:
        if len(self._table) >= self.table_entries:
            self._table.popitem(last=False)
        entry = _StrideEntry(last_address=address)
        self._table[pc] = entry
        return entry

    def on_access(self, record: MemoryAccess, outcome: AccessOutcomeRecord) -> PrefetcherResponse:
        response = PrefetcherResponse()
        if self.train_on_l1_misses_only and not outcome.l1_miss:
            return response
        entry = self._entry(record.pc)
        if entry is None:
            self._allocate(record.pc, record.address)
            return response

        new_stride = record.address - entry.last_address
        if new_stride == 0:
            return response
        if new_stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, 3)
        else:
            entry.confidence = max(entry.confidence - 1, 0)
            if entry.confidence == 0:
                entry.stride = new_stride
        entry.last_address = record.address

        if entry.confidence >= self.confidence_threshold and entry.stride != 0:
            self.stats.predictions += self.degree
            address = record.address
            for _ in range(self.degree):
                address += entry.stride
                if address < 0:
                    break
                block = block_address(address, self.block_size)
                response.prefetches.append(PrefetchRequest(address=block, target_l1=True))
                self.stats.issued += 1
        return response
