"""Temporal (Markov / pair-correlation) prefetcher.

The paper's related-work section contrasts SMS with predictors that exploit
*temporal* correlation between miss addresses — recurring pairs or sequences
of consecutive misses (Solihin et al. [25], temporal streaming [30]).  This
baseline implements the classic Markov-style pair correlation: a table keyed
by miss address records the next few distinct miss addresses that followed it
last time; on a miss, the recorded successors are prefetched.

Two properties the paper highlights are directly observable with this model:

* its storage requirements are proportional to the *data set* size (one entry
  per miss address), unlike SMS's code-proportional PHT; and
* interleaved spatially-correlated streams look uncorrelated to it, because
  the successor of a given miss changes from visit to visit.

It is used by the extension benchmark ``benchmarks/test_abl_related_work.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.coherence.multiprocessor import AccessOutcomeRecord
from repro.memory.block import block_address
from repro.prefetch.base import Prefetcher, PrefetcherResponse, PrefetchRequest
from repro.trace.record import MemoryAccess


class _CorrelationEntry:
    """Successor miss addresses recorded for one miss address."""

    __slots__ = ("successors",)

    def __init__(self) -> None:
        self.successors: List[int] = []

    def record(self, successor: int, max_successors: int) -> None:
        if successor in self.successors:
            # Move to the front (most recently confirmed successor first).
            self.successors.remove(successor)
        self.successors.insert(0, successor)
        del self.successors[max_successors:]


class TemporalCorrelationPrefetcher(Prefetcher):
    """Markov-style miss-address pair correlation."""

    name = "temporal"
    streams_into_l1 = False

    def __init__(
        self,
        table_entries: int = 16384,
        successors_per_entry: int = 2,
        degree: int = 2,
        block_size: int = 64,
        train_on_l1_misses_only: bool = True,
    ) -> None:
        super().__init__()
        if table_entries <= 0:
            raise ValueError(f"table_entries must be positive, got {table_entries}")
        if successors_per_entry <= 0:
            raise ValueError(f"successors_per_entry must be positive, got {successors_per_entry}")
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        self.table_entries = table_entries
        self.successors_per_entry = successors_per_entry
        self.degree = degree
        self.block_size = block_size
        self.train_on_l1_misses_only = train_on_l1_misses_only
        self._table: "OrderedDict[int, _CorrelationEntry]" = OrderedDict()
        self._last_miss: Optional[int] = None

    # ------------------------------------------------------------------ #
    def _entry(self, block: int, create: bool) -> Optional[_CorrelationEntry]:
        entry = self._table.get(block)
        if entry is not None:
            self._table.move_to_end(block)
            return entry
        if not create:
            return None
        if len(self._table) >= self.table_entries:
            self._table.popitem(last=False)
        entry = _CorrelationEntry()
        self._table[block] = entry
        return entry

    # ------------------------------------------------------------------ #
    def on_access(self, record: MemoryAccess, outcome: AccessOutcomeRecord) -> PrefetcherResponse:
        response = PrefetcherResponse()
        if self.train_on_l1_misses_only and not outcome.l1_miss:
            return response
        block = block_address(record.address, self.block_size)

        # Train: the previous miss's entry learns this miss as a successor.
        if self._last_miss is not None and self._last_miss != block:
            self._entry(self._last_miss, create=True).record(block, self.successors_per_entry)
        self._last_miss = block

        # Predict: prefetch this miss's recorded successors (breadth-first up
        # to the configured degree).
        entry = self._entry(block, create=False)
        if entry is None:
            return response
        issued = 0
        frontier = list(entry.successors)
        seen = {block}
        while frontier and issued < self.degree:
            successor = frontier.pop(0)
            if successor in seen:
                continue
            seen.add(successor)
            response.prefetches.append(PrefetchRequest(address=successor, target_l1=False))
            issued += 1
            next_entry = self._table.get(successor)
            if next_entry is not None:
                frontier.extend(next_entry.successors)
        return response
