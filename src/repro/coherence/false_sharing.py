"""False-sharing classification.

Figure 4 of the paper separates, for block sizes larger than the 64-byte
coherence unit, the misses caused purely by *false sharing* from all other
misses.  A coherence miss is false sharing when the missing processor re-
fetches a block only because another processor wrote a *different* 64-byte
chunk of it; had the block size been 64 bytes the miss would not have
occurred.

The classifier watches invalidations and subsequent misses: for every block a
CPU loses to an invalidation it remembers which 64-byte chunks remote writers
touched; when the CPU later misses on that block, the miss is false sharing
if the accessed chunk is disjoint from every remotely-written chunk since the
invalidation.
"""

from __future__ import annotations

import enum
from typing import Dict, Set, Tuple

from repro.memory.block import block_address


class MissClassification(enum.Enum):
    """Classification of a single miss."""

    COLD_OR_REPLACEMENT = "cold_or_replacement"
    TRUE_SHARING = "true_sharing"
    FALSE_SHARING = "false_sharing"


class FalseSharingClassifier:
    """Classify coherence misses as true or false sharing."""

    def __init__(self, block_size: int, sharing_granularity: int = 64) -> None:
        if sharing_granularity > block_size:
            raise ValueError(
                f"sharing_granularity ({sharing_granularity}) cannot exceed block_size ({block_size})"
            )
        self.block_size = block_size
        self.sharing_granularity = sharing_granularity
        # (cpu, block) -> chunks written by remote CPUs since this CPU lost the block
        self._pending: Dict[Tuple[int, int], Set[int]] = {}
        self.true_sharing_misses = 0
        self.false_sharing_misses = 0
        self.other_misses = 0

    def _chunk(self, address: int) -> int:
        return block_address(address, self.sharing_granularity)

    def record_invalidation(self, cpu: int, address: int, writer_address: int) -> None:
        """CPU ``cpu`` lost the block containing ``address`` to a remote write."""
        block = block_address(address, self.block_size)
        self._pending.setdefault((cpu, block), set()).add(self._chunk(writer_address))

    def record_remote_write(self, cpu: int, address: int, writer_address: int) -> None:
        """A remote write touched a block this CPU already lost; accumulate the chunk."""
        block = block_address(address, self.block_size)
        key = (cpu, block)
        if key in self._pending:
            self._pending[key].add(self._chunk(writer_address))

    def classify_block_miss(self, cpu: int, block: int) -> bool:
        """Lane-path :meth:`classify_miss` for an already block-aligned address.

        Same state transitions and counters; returns whether the miss was
        false sharing instead of the classification enum.  A block-aligned
        address is its own block and (block sizes being multiples of the
        sharing granularity) its own chunk, so the per-call power-of-two
        re-validation inside :func:`~repro.memory.block.block_address` is
        skipped.
        """
        written = self._pending.pop((cpu, block), None)
        if written is None:
            self.other_misses += 1
            return False
        if block in written:
            self.true_sharing_misses += 1
            return False
        self.false_sharing_misses += 1
        return True

    def classify_miss(self, cpu: int, address: int) -> MissClassification:
        """Classify a miss by CPU ``cpu`` on ``address`` and clear its record."""
        block = block_address(address, self.block_size)
        written = self._pending.pop((cpu, block), None)
        if written is None:
            self.other_misses += 1
            return MissClassification.COLD_OR_REPLACEMENT
        if self._chunk(address) in written:
            self.true_sharing_misses += 1
            return MissClassification.TRUE_SHARING
        self.false_sharing_misses += 1
        return MissClassification.FALSE_SHARING

    @property
    def coherence_misses(self) -> int:
        return self.true_sharing_misses + self.false_sharing_misses

    def false_sharing_fraction(self) -> float:
        total = self.true_sharing_misses + self.false_sharing_misses + self.other_misses
        return self.false_sharing_misses / total if total else 0.0
