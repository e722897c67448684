"""Active Generation Table.

The AGT (Section 3.1) records which blocks are accessed over the course of a
spatial region generation.  It is logically one table but implemented as two
content-addressable memories:

* the **filter table** holds regions that have seen only their trigger access
  (a significant minority of generations never see a second block, and
  predicting them is pointless); and
* the **accumulation table** holds regions with two or more accessed blocks
  and accumulates their spatial pattern bit vector.

A generation ends when any block of the region is evicted or invalidated from
the primary cache, or when the entry is displaced from a full table; ended
accumulation-table generations are handed to the Pattern History Table.

Layout
------

Each table is one plain ``dict`` searched by region base address, and each
entry is one ``int``.  With ``nb`` blocks per region (``pattern_width``) and
``ob = log2(nb)`` bits to name one of them (``offset_bits``):

* a filter word is ``(trigger_pc << ob) | trigger_offset``;
* an accumulation word is ``(trigger_pc << (ob + nb)) | (trigger_offset << nb)
  | pattern``, pattern bit *i* meaning "block *i* of the region was accessed".

Promotion of a filter word to the accumulation table is therefore
``(word << nb) | 1 << trigger_offset | 1 << offset``, accumulating an access
is ``word | 1 << offset``, and the pattern handed to the PHT is
``word & ((1 << nb) - 1)``.  Only the trigger's *block* survives in a word
(``region + trigger_offset * block_size``); the byte offset within it is not
kept, because no index scheme reads it.

**Recency rule.**  Both dicts are kept least- to most-recently used by
insertion order alone: an access that hits an entry pops it and re-inserts it,
a new entry is appended, so the **first key is the LRU victim** of a full
table.  (The cache sets in :mod:`repro.memory.cache` follow the same rule.)

This module and the lane closures of :mod:`repro.core.sms` are the two places
that know this layout.  :class:`GenerationRecord` is built on the way out of
the boxed API only, as a snapshot of one word.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.indexing import TriggerInfo
from repro.core.pattern import SpatialPattern
from repro.core.region import RegionGeometry


class GenerationRecord:
    """Snapshot of one accumulating (or just-completed) generation.

    ``trigger_address`` is the address of the trigger access's *block*.
    """

    __slots__ = ("region", "trigger_pc", "trigger_offset", "trigger_address", "pattern_bits")

    def __init__(
        self,
        region: int,
        trigger_pc: int,
        trigger_offset: int,
        trigger_address: int,
        pattern_bits: int = 0,
    ) -> None:
        self.region = region
        self.trigger_pc = trigger_pc
        self.trigger_offset = trigger_offset
        self.trigger_address = trigger_address
        self.pattern_bits = pattern_bits

    def pattern(self, num_blocks: int) -> SpatialPattern:
        return SpatialPattern(num_blocks=num_blocks, bits=self.pattern_bits)


class AGTEvent:
    """Outcome of one AGT operation.

    ``trigger`` is set when the access is the first access of a new generation
    (the moment SMS consults the PHT).  ``completed`` lists generations that
    ended as a side effect (victims displaced from a full accumulation table,
    or the generation ended by the eviction that was observed).
    """

    __slots__ = ("trigger", "completed")

    def __init__(
        self,
        trigger: Optional[TriggerInfo] = None,
        completed: Optional[List[GenerationRecord]] = None,
    ) -> None:
        self.trigger = trigger
        self.completed = [] if completed is None else completed


class ActiveGenerationTable:
    """Filter table + accumulation table, as in Figure 2 of the paper."""

    def __init__(
        self,
        geometry: RegionGeometry,
        filter_entries: Optional[int] = 32,
        accumulation_entries: Optional[int] = 64,
    ) -> None:
        if filter_entries is not None and filter_entries <= 0:
            raise ValueError(f"filter_entries must be positive or None, got {filter_entries}")
        if accumulation_entries is not None and accumulation_entries <= 0:
            raise ValueError(
                f"accumulation_entries must be positive or None, got {accumulation_entries}"
            )
        self.geometry = geometry
        self.filter_entries = filter_entries
        self.accumulation_entries = accumulation_entries
        #: ``nb`` and ``ob`` of the word layout (see module docstring).
        self.pattern_width = geometry.blocks_per_region
        self.offset_bits = self.pattern_width.bit_length() - 1
        # region -> packed word, least- to most-recently used.
        self._filter: Dict[int, int] = {}
        self._accumulation: Dict[int, int] = {}
        # Statistics (the filter-table ablation reads both).
        self.generations_started = 0
        self.filter_only_generations = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _record(self, region: int, word: int) -> GenerationRecord:
        """Unpack one accumulation word."""
        nb = self.pattern_width
        offset = (word >> nb) & (nb - 1)
        return GenerationRecord(
            region=region,
            trigger_pc=word >> (nb + self.offset_bits),
            trigger_offset=offset,
            trigger_address=region + offset * self.geometry.block_size,
            pattern_bits=word & ((1 << nb) - 1),
        )

    # ------------------------------------------------------------------ #
    # Operation
    # ------------------------------------------------------------------ #
    def observe_access(self, pc: int, address: int) -> AGTEvent:
        """Process one L1 data access (Figure 2, steps 1-3)."""
        region, offset = self.geometry.split(address)
        event = AGTEvent()

        # Step 3: accesses to an already-accumulating generation set pattern bits.
        word = self._accumulation.pop(region, None)
        if word is not None:
            self._accumulation[region] = word | (1 << offset)
            return event

        word = self._filter.pop(region, None)
        if word is None:
            # Step 1: trigger access for a new generation; allocate in the filter.
            self.generations_started += 1
            event.trigger = TriggerInfo(pc=pc, address=address, region=region, offset=offset)
            if self.filter_entries is not None and len(self._filter) >= self.filter_entries:
                # Victim generations in the filter table are simply dropped:
                # they contain only a trigger access.
                del self._filter[next(iter(self._filter))]
                self.filter_only_generations += 1
            self._filter[region] = (pc << self.offset_bits) | offset
            return event

        trigger_offset = word & (self.pattern_width - 1)
        if trigger_offset == offset:
            # Repeat access to the trigger block: still a single-block generation.
            self._filter[region] = word
            return event

        # Step 2: second distinct block; transfer the generation to the
        # accumulation table and set both the trigger and the new bit.
        if (
            self.accumulation_entries is not None
            and len(self._accumulation) >= self.accumulation_entries
        ):
            victim = next(iter(self._accumulation))
            event.completed.append(self._record(victim, self._accumulation.pop(victim)))
        self._accumulation[region] = (
            (word << self.pattern_width) | (1 << trigger_offset) | (1 << offset)
        )
        return event

    def end_generation(self, block_address: int) -> Optional[GenerationRecord]:
        """End the generation of ``block_address``'s region (Figure 2, step 4).

        Returns the completed generation if it had reached the accumulation
        table; a generation with only its trigger access is discarded (nothing
        to learn), and a region without a live generation is a no-op.
        """
        region = self.geometry.region_base(block_address)
        if self._filter.pop(region, None) is not None:
            self.filter_only_generations += 1
            return None
        word = self._accumulation.pop(region, None)
        if word is None:
            return None
        return self._record(region, word)

    def observe_removal(self, block_address: int) -> AGTEvent:
        """Process the eviction or invalidation of a block (Figure 2, step 4)."""
        record = self.end_generation(block_address)
        return AGTEvent(completed=[] if record is None else [record])

    def drain(self) -> List[GenerationRecord]:
        """End every in-flight accumulating generation (used at end of trace)."""
        drained = [self._record(region, word) for region, word in self._accumulation.items()]
        self.filter_only_generations += len(self._filter)
        self._accumulation.clear()
        self._filter.clear()
        return drained

    def __repr__(self) -> str:
        return (
            f"ActiveGenerationTable(filter={self.filter_entries}, "
            f"accumulation={self.accumulation_entries}, geometry={self.geometry.describe()})"
        )
