"""Spatial Memory Streaming predictor.

Ties together a training structure (AGT by default), an index scheme
(PC+offset by default), the Pattern History Table, and the prediction
register file into a single per-processor prefetcher implementing the
:class:`repro.prefetch.base.Prefetcher` interface.

Operation per the paper (Sections 3.1-3.2):

1. Every L1 data access trains the AGT.  Generations completed as a side
   effect (table victims) immediately train the PHT.
2. If the access is a *trigger* (the first access of a new spatial region
   generation), the PHT is consulted with the prediction index derived from
   the trigger's PC and spatial region offset.  On a hit, the region base and
   predicted pattern are copied to a prediction register and SMS begins
   streaming the predicted blocks into the primary cache.
3. Every L1 eviction or invalidation is forwarded to the AGT; an ended
   generation's accumulated pattern trains the PHT.

Patterns are ``int`` bit masks everywhere (bit *i* = block *i* of the
region): the trainers hand out :class:`~repro.core.agt.GenerationRecord`
``pattern_bits``, the PHT stores them, and a prediction register streams
them.  :meth:`SpatialMemoryStreaming.on_access` / ``on_eviction`` /
``finalize`` serve every trainer; the lane closures run the same steps for
the plain AGT over its packed words.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.coherence.multiprocessor import AccessOutcomeRecord
from repro.core.agt import ActiveGenerationTable, GenerationRecord
from repro.core.config import SMSConfig
from repro.core.indexing import IndexScheme, make_index_scheme
from repro.core.pht import PatternHistoryTable, hash_index_key
from repro.core.prediction import PredictionRegisterFile
from repro.core.training import make_trainer
from repro.prefetch.base import EMPTY_RESPONSE, Prefetcher, PrefetcherResponse, PrefetchRequest
from repro.trace.record import MemoryAccess


class SpatialMemoryStreaming(Prefetcher):
    """The SMS predictor for one processor."""

    name = "sms"

    def __init__(self, config: Optional[SMSConfig] = None) -> None:
        super().__init__()
        self.config = config or SMSConfig()
        self.geometry = self.config.geometry
        self.streams_into_l1 = self.config.stream_into_l1
        self.index_scheme: IndexScheme = make_index_scheme(
            self.config.index_scheme, self.geometry
        )
        self.trainer = make_trainer(
            self.config.trainer,
            self.geometry,
            filter_entries=self.config.filter_entries,
            accumulation_entries=self.config.accumulation_entries,
            cache_capacity=self.config.trained_cache_capacity,
            cache_associativity=self.config.trained_cache_associativity,
        )
        self.pht: PatternHistoryTable = self.config.make_pht(self.geometry.blocks_per_region)
        self.registers = PredictionRegisterFile(
            geometry=self.geometry,
            num_registers=self.config.prediction_registers,
        )
        # Lane fast path: the plain AGT is the only trainer that never forces
        # evictions, so it is the only one whose per-access work can run
        # unboxed.  Sectored trainers get their accesses boxed by the lane loop.
        self._lane_agt = self.trainer if type(self.trainer) is ActiveGenerationTable else None
        #: Bit *i* of a streamed run is the block at ``region + (i << shift)``.
        self.lane_block_shift = self.geometry.block_size.bit_length() - 1

    # ------------------------------------------------------------------ #
    def _lane_closures(self):
        """Build ``(on_access_lane, on_eviction_lane)`` over one shared scope.

        The two closures are the whole per-record SMS work of the engine's
        lane loop, written once against the packed words of
        :mod:`repro.core.agt` (first key = LRU victim), the set dicts of
        :mod:`repro.core.pht` (lookup and store inlined, same statements and
        counters as ``lookup_bits`` / ``store_bits``) and the ``(region,
        bits)`` registers of :mod:`repro.core.prediction`.  Bit-identical to
        :meth:`on_access` / ``on_eviction(block, invalidated=False)`` for the
        plain AGT, which never forces evictions; ``(None, None)`` otherwise.

        Every captured object is assigned once in ``__init__`` and mutated in
        place; the engine still asks for fresh closures at the start of
        every run.
        """
        agt = self._lane_agt
        if agt is None:
            return None, None
        filter_table = agt._filter
        filter_pop = filter_table.pop
        filter_entries = agt.filter_entries
        accumulation = agt._accumulation
        accumulation_pop = accumulation.pop
        accumulation_entries = agt.accumulation_entries
        nb = agt.pattern_width
        ob = agt.offset_bits
        pattern_mask = (1 << nb) - 1
        offset_field = nb - 1
        region_mask = ~(self.geometry.region_size - 1)
        offset_mask = self.geometry.region_size - 1
        block_shift = self.lane_block_shift
        key_of = self.index_scheme.key_of
        pht = self.pht
        sets = pht._sets
        num_sets = pht.num_sets
        ways = pht.associativity if pht.num_entries is not None else None
        file = self.registers
        registers = file._registers
        num_registers = file.num_registers
        drain_bits = file.drain_bits
        max_requests = self.config.max_requests_per_access
        stats = self.stats

        def on_eviction_lane(block_address: int) -> None:
            region = block_address & region_mask
            if filter_pop(region, None) is not None:
                agt.filter_only_generations += 1
                return
            word = accumulation_pop(region, None)
            if word is None:
                return
            # The generation ends: its pattern trains the PHT under the
            # trigger's index key.
            offset = (word >> nb) & offset_field
            key = key_of(word >> (nb + ob), region + (offset << block_shift), offset)
            bits = word & pattern_mask
            pht.stores += 1
            table = sets[0] if ways is None else sets[hash_index_key(key) % num_sets]
            if table.pop(key, None) is None:  # a resident key is replaced in place
                if ways is not None and len(table) >= ways:
                    for victim in table:  # first key = LRU victim
                        break
                    del table[victim]
                    pht.replacements += 1
                else:
                    pht.occupancy += 1
            table[key] = bits
            stats.trained_patterns += 1

        def on_access_lane(pc: int, address: int):
            region = address & region_mask
            offset = (address & offset_mask) >> block_shift
            word = accumulation_pop(region, None)
            if word is not None:
                # Accumulating generation: set the bit, most recently used.
                accumulation[region] = word | (1 << offset)
            else:
                word = filter_pop(region, None)
                if word is None:
                    # Trigger access: new generation, consult the PHT.
                    agt.generations_started += 1
                    if filter_entries is not None and len(filter_table) >= filter_entries:
                        for victim in filter_table:  # first key = LRU victim
                            break
                        del filter_table[victim]
                        agt.filter_only_generations += 1
                    filter_table[region] = (pc << ob) | offset
                    pht.lookups += 1
                    key = key_of(pc, region + (offset << block_shift), offset)
                    table = sets[0] if ways is None else sets[hash_index_key(key) % num_sets]
                    bits = table.pop(key, None)
                    if bits is not None:
                        pht.hits += 1
                        table[key] = bits
                        if bits:
                            # Stream everything but the trigger block.
                            bits &= ~(1 << offset)
                            if bits:
                                if max_requests is None and not registers:
                                    # No limit, no other stream in flight:
                                    # drain_bits would hand this register
                                    # straight back, whole.
                                    return ((region, bits),)
                                if len(registers) < num_registers:
                                    registers.append((region, bits))
                elif word & offset_field == offset:
                    filter_table[region] = word
                else:
                    # Second distinct block: move to the accumulation table;
                    # a full table's LRU victim ends its generation and trains.
                    if (
                        accumulation_entries is not None
                        and len(accumulation) >= accumulation_entries
                    ):
                        for victim in accumulation:  # first key = LRU victim
                            break
                        on_eviction_lane(victim)
                    accumulation[region] = (
                        (word << nb) | (1 << (word & offset_field)) | (1 << offset)
                    )
            if registers:
                return drain_bits(max_requests)
            return None

        return on_access_lane, on_eviction_lane

    def lane_hook(self):
        """The per-access closure of the engine's lane loop, or ``None``.

        ``fn(pc, address)`` trains the AGT, consults the PHT on a trigger
        access and returns what SMS streams on this access: ``None``, or a
        sequence of ``(region, bits)`` runs as
        :meth:`~repro.core.prediction.PredictionRegisterFile.drain_bits`
        hands them out — bit *i* of a run is the block at ``region + (i <<
        lane_block_shift)``, the remaining pattern bits of a prediction
        register.  The hook builds no address list:
        ``SimulationEngine._step_lanes`` drains each run lowest offset first
        (``low = bits & -bits``) inside its prefetch-apply body.  The shape
        is the same whether ``max_requests_per_access`` bounds the drain
        (one block per run, registers interleaved) or not (a trigger hit's
        whole stream as one run).
        """
        return self._lane_closures()[0]

    def lane_eviction_hook(self):
        """The per-eviction closure ``fn(block_address) -> None`` (see
        :meth:`lane_hook`): an ended generation trains the PHT and nothing
        else happens, as in ``on_eviction(block_address, invalidated=False)``."""
        return self._lane_closures()[1]

    # ------------------------------------------------------------------ #
    def _train(self, records: Sequence[GenerationRecord]) -> None:
        """Store each ended generation's pattern under its trigger's index key."""
        key_of = self.index_scheme.key_of
        store_bits = self.pht.store_bits
        for record in records:
            store_bits(
                key_of(record.trigger_pc, record.trigger_address, record.trigger_offset),
                record.pattern_bits,
            )
        self.stats.trained_patterns += len(records)

    # ------------------------------------------------------------------ #
    def on_access(self, record: MemoryAccess, outcome: AccessOutcomeRecord) -> PrefetcherResponse:
        trainer_response = self.trainer.observe_access(record.pc, record.address)
        self._train(trainer_response.completed)
        trigger = trainer_response.trigger
        if trigger is not None:
            bits = self.pht.lookup_bits(
                self.index_scheme.key_of(
                    trigger.trigger_pc, trigger.trigger_address, trigger.trigger_offset
                )
            )
            if bits:
                self.registers.allocate_bits(
                    trigger.region, bits, exclude_offset=trigger.trigger_offset
                )
        # Stream what the registers hand out, each run lowest offset first.
        prefetches = []
        block_shift = self.lane_block_shift
        for region, bits in self.registers.drain_bits(self.config.max_requests_per_access):
            while bits:
                low = bits & -bits
                bits ^= low
                prefetches.append(PrefetchRequest(
                    region + ((low.bit_length() - 1) << block_shift), self.streams_into_l1
                ))
        return PrefetcherResponse(prefetches, trainer_response.forced_evictions)

    def on_eviction(self, block_address: int, invalidated: bool = False) -> PrefetcherResponse:
        record = self.trainer.observe_removal(block_address)
        if record is not None:
            self._train((record,))
        if invalidated:
            # An invalidated region's remaining streamed blocks would arrive
            # stale; stop streaming it.
            self.registers.cancel_region(block_address)
        # A removal forces no eviction under any trainer.
        return EMPTY_RESPONSE

    def finalize(self) -> PrefetcherResponse:
        self._train(self.trainer.drain())
        self.registers.clear()
        return EMPTY_RESPONSE

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        return (
            f"SpatialMemoryStreaming(index={self.index_scheme.name}, "
            f"trainer={self.trainer.name}, regions={self.geometry.describe()}, "
            f"pht={'unbounded' if self.pht.is_unbounded else self.pht.num_entries})"
        )
