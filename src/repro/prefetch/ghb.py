"""Global History Buffer prefetcher (PC/DC variant).

Nesbit & Smith's GHB [20] is the strongest previously-proposed prefetcher for
desktop/engineering applications and the comparison point of Figure 11.  The
PC/DC (program counter / delta correlation) variant works as follows:

* A FIFO *global history buffer* holds the most recent miss addresses; each
  entry carries a link to the previous entry created by the same PC, so the
  buffer implicitly stores a per-PC miss-address stream.
* An *index table*, keyed by PC, points at each PC's most recent entry.
* On a trainable access, the per-PC address stream is materialised by walking
  the links, converted into a *delta stream*, and the most recent pair of
  deltas is looked up in the older part of that stream (delta correlation).
  The deltas that followed the previous occurrence of the pair are replayed
  from the current address to form prefetch requests.

Like the paper, we apply GHB at the L2: it trains on accesses that miss in
the L1 (i.e. reach the L2) and its prefetches fill the L2 only.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.coherence.multiprocessor import AccessOutcomeRecord
from repro.memory.block import block_address
from repro.prefetch.base import Prefetcher, PrefetcherResponse, PrefetchRequest
from repro.trace.record import MemoryAccess


class GHBConfig:
    """Configuration for the GHB PC/DC prefetcher.

    ``buffer_entries`` of 256 is the size shown sufficient for SPEC
    applications; 16384 roughly matches the storage of the SMS PHT
    (Section 4.6).
    """

    __slots__ = (
        "buffer_entries",
        "index_entries",
        "degree",
        "max_history",
        "block_size",
        "train_on_l1_misses_only",
    )

    def __init__(
        self,
        buffer_entries: int = 256,
        index_entries: Optional[int] = None,  # None: same as buffer_entries
        degree: int = 4,
        max_history: int = 64,
        block_size: int = 64,
        train_on_l1_misses_only: bool = True,
    ) -> None:
        if buffer_entries <= 0:
            raise ValueError(f"buffer_entries must be positive, got {buffer_entries}")
        if degree <= 0:
            raise ValueError(f"degree must be positive, got {degree}")
        self.buffer_entries = buffer_entries
        self.index_entries = buffer_entries if index_entries is None else index_entries
        self.degree = degree
        self.max_history = max_history
        self.block_size = block_size
        self.train_on_l1_misses_only = train_on_l1_misses_only

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"GHBConfig({fields})"


class _GHBEntry:
    __slots__ = ("sequence", "block_addr", "prev_sequence")

    def __init__(self, sequence: int, block_addr: int, prev_sequence: Optional[int]) -> None:
        self.sequence = sequence
        self.block_addr = block_addr
        self.prev_sequence = prev_sequence


class GlobalHistoryBuffer(Prefetcher):
    """GHB PC/DC prefetcher targeting the L2 cache."""

    name = "ghb-pc/dc"
    streams_into_l1 = False

    def __init__(self, config: Optional[GHBConfig] = None) -> None:
        super().__init__()
        self.config = config or GHBConfig()
        self._buffer: List[Optional[_GHBEntry]] = [None] * self.config.buffer_entries
        self._next_sequence = 0
        self._index: "OrderedDict[int, int]" = OrderedDict()  # pc -> most recent sequence

    # ------------------------------------------------------------------ #
    @property
    def oldest_live_sequence(self) -> int:
        """Sequence number of the oldest entry still resident in the FIFO."""
        return max(0, self._next_sequence - self.config.buffer_entries)

    def _entry_for_sequence(self, sequence: Optional[int]) -> Optional[_GHBEntry]:
        if sequence is None or sequence < self.oldest_live_sequence:
            return None
        entry = self._buffer[sequence % self.config.buffer_entries]
        if entry is None or entry.sequence != sequence:
            return None
        return entry

    def _push(self, pc: int, block_addr: int) -> _GHBEntry:
        prev_sequence = self._index.get(pc)
        entry = _GHBEntry(
            sequence=self._next_sequence,
            block_addr=block_addr,
            prev_sequence=prev_sequence,
        )
        self._buffer[self._next_sequence % self.config.buffer_entries] = entry
        self._index[pc] = self._next_sequence
        self._index.move_to_end(pc)
        if len(self._index) > self.config.index_entries:
            self._index.popitem(last=False)
        self._next_sequence += 1
        return entry

    def _address_history(self, entry: _GHBEntry) -> List[int]:
        """Most-recent-first list of block addresses for this entry's PC."""
        history = []
        current: Optional[_GHBEntry] = entry
        while current is not None and len(history) < self.config.max_history:
            history.append(current.block_addr)
            current = self._entry_for_sequence(current.prev_sequence)
        return history

    @staticmethod
    def _delta_correlation(deltas: List[int], degree: int) -> List[int]:
        """Given an oldest-first delta stream, predict the next ``degree`` deltas.

        Looks for the most recent earlier occurrence of the final delta pair
        and replays the deltas that followed it.
        """
        if len(deltas) < 3:
            return []
        key = (deltas[-2], deltas[-1])
        # Scan from the oldest history for an earlier occurrence of the pair,
        # so the replayed delta run is as long as possible.
        for position in range(0, len(deltas) - 2):
            if (deltas[position], deltas[position + 1]) == key:
                following = deltas[position + 2 : position + 2 + degree]
                return following
        return []

    # ------------------------------------------------------------------ #
    def on_access(self, record: MemoryAccess, outcome: AccessOutcomeRecord) -> PrefetcherResponse:
        response = PrefetcherResponse()
        if self.config.train_on_l1_misses_only and not outcome.l1_miss:
            return response

        block = block_address(record.address, self.config.block_size)
        entry = self._push(record.pc, block)

        history = self._address_history(entry)
        if len(history) < 3:
            return response
        # history is most-recent-first; build the oldest-first delta stream.
        addresses = list(reversed(history))
        deltas = [
            (addresses[i + 1] - addresses[i]) // self.config.block_size
            for i in range(len(addresses) - 1)
        ]
        predicted = self._delta_correlation(deltas, self.config.degree)
        if not predicted:
            return response

        address = block
        for delta in predicted:
            address += delta * self.config.block_size
            if address < 0:
                break
            response.prefetches.append(PrefetchRequest(address=address, target_l1=False))
        return response

    def __repr__(self) -> str:
        return f"GlobalHistoryBuffer(entries={self.config.buffer_entries}, degree={self.config.degree})"
