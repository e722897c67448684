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
"""

from __future__ import annotations

from typing import List, Optional

from repro.coherence.multiprocessor import AccessOutcomeRecord
from repro.core.config import SMSConfig
from repro.core.indexing import IndexScheme, make_index_scheme
from repro.core.pht import PatternHistoryTable, hash_index_key
from repro.core.prediction import PredictionRegisterFile
from repro.core.training import AGTTrainer, CompletedGeneration, SpatialTrainer, make_trainer
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
        self.trainer: SpatialTrainer = make_trainer(
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
        self._lane_agt = self.trainer.agt if type(self.trainer) is AGTTrainer else None
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
        place, except ``self.stats``, which :meth:`reset_stats` rebinds — so
        the engine asks for fresh closures at the start of every run.
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
        union = pht._union
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
            agt.generations_completed += 1
            offset = (word >> nb) & offset_field
            key = key_of(word >> (nb + ob), region + (offset << block_shift), offset)
            bits = word & pattern_mask
            pht.stores += 1
            table = sets[0] if ways is None else sets[hash_index_key(key) % num_sets]
            existing = table.pop(key, None)
            if existing is not None:
                if union:
                    bits |= existing
            elif ways is not None and len(table) >= ways:
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
                    agt.trigger_accesses += 1
                    agt.generations_started += 1
                    if filter_entries is not None and len(filter_table) >= filter_entries:
                        for victim in filter_table:  # first key = LRU victim
                            break
                        del filter_table[victim]
                        agt.filter_victims += 1
                        agt.filter_only_generations += 1
                    filter_table[region] = (pc << ob) | offset
                    stats.pht_lookups += 1
                    pht.lookups += 1
                    key = key_of(pc, region + (offset << block_shift), offset)
                    table = sets[0] if ways is None else sets[hash_index_key(key) % num_sets]
                    bits = table.pop(key, None)
                    if bits is not None:
                        pht.hits += 1
                        table[key] = bits
                        if bits:
                            stats.pht_hits += 1
                            stats.predictions += bin(bits).count("1")
                            # Stream everything but the trigger block.
                            bits &= ~(1 << offset)
                            if bits:
                                if max_requests is None and not registers:
                                    # No limit, no other stream in flight:
                                    # drain_bits would hand this register
                                    # straight back, whole.
                                    count = bin(bits).count("1")
                                    file.allocations += 1
                                    file.requests_issued += count
                                    stats.issued += count
                                    return ((region, bits),)
                                if len(registers) >= num_registers:
                                    file.rejections += 1
                                else:
                                    registers.append((region, bits))
                                    file.allocations += 1
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
                        agt.accumulation_victims += 1
                        on_eviction_lane(victim)
                    accumulation[region] = (
                        (word << nb) | (1 << (word & offset_field)) | (1 << offset)
                    )
            if registers:
                issued = file.requests_issued
                runs = drain_bits(max_requests)
                stats.issued += file.requests_issued - issued
                return runs
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
    def _train(self, completed: List[CompletedGeneration]) -> None:
        for generation in completed:
            key = self.index_scheme.key(generation.trigger_info())
            self.pht.store(key, generation.pattern)
            self.stats.trained_patterns += 1

    def _drain_streams(self) -> List[PrefetchRequest]:
        requests = self.registers.drain(max_requests=self.config.max_requests_per_access)
        prefetches = []
        for request in requests:
            prefetches.append(
                PrefetchRequest(address=request.address, target_l1=self.config.stream_into_l1)
            )
        self.stats.issued += len(prefetches)
        return prefetches

    # ------------------------------------------------------------------ #
    def on_access(self, record: MemoryAccess, outcome: AccessOutcomeRecord) -> PrefetcherResponse:
        response = PrefetcherResponse()
        trainer_response = self.trainer.observe_access(record.pc, record.address)
        self._train(trainer_response.completed)
        response.forced_evictions.extend(trainer_response.forced_evictions)

        if trainer_response.trigger is not None:
            trigger = trainer_response.trigger
            key = self.index_scheme.key(trigger)
            self.stats.pht_lookups += 1
            pattern = self.pht.lookup(key)
            if pattern is not None and not pattern.is_empty:
                self.stats.pht_hits += 1
                self.stats.predictions += pattern.population
                self.registers.allocate(
                    region=trigger.region,
                    pattern=pattern,
                    exclude_offset=trigger.offset,
                )

        response.prefetches.extend(self._drain_streams())
        return response

    def on_eviction(self, block_address: int, invalidated: bool = False) -> PrefetcherResponse:
        agt = self._lane_agt
        if agt is not None:
            # Short form of the generic body below: the AGT never forces
            # evictions, so the response is always empty and the one possible
            # completion trains the PHT directly.
            record = agt.end_generation(block_address)
            if record is not None:
                key = self.index_scheme.key_of(
                    record.trigger_pc, record.trigger_address, record.trigger_offset
                )
                self.pht.store_bits(key, record.pattern_bits)
                self.stats.trained_patterns += 1
            if invalidated:
                self.registers.cancel_region(block_address)
            return EMPTY_RESPONSE
        response = PrefetcherResponse()
        trainer_response = self.trainer.observe_removal(block_address, invalidated=invalidated)
        self._train(trainer_response.completed)
        response.forced_evictions.extend(trainer_response.forced_evictions)
        if invalidated:
            # An invalidated region's remaining streamed blocks would arrive
            # stale; stop streaming it.
            self.registers.cancel_region(block_address)
        return response

    def finalize(self) -> PrefetcherResponse:
        agt = self._lane_agt
        if agt is not None:
            # As in on_eviction: the drained words train the PHT directly, no
            # CompletedGeneration / SpatialPattern per live generation (an
            # unbounded AGT ends a run with thousands of them).
            key_of = self.index_scheme.key_of
            store_bits = self.pht.store_bits
            drained = agt.drain()
            for record in drained:
                store_bits(
                    key_of(record.trigger_pc, record.trigger_address, record.trigger_offset),
                    record.pattern_bits,
                )
            self.stats.trained_patterns += len(drained)
        else:
            self._train(self.trainer.drain())
        self.registers.clear()
        return PrefetcherResponse()

    # ------------------------------------------------------------------ #
    @property
    def coverage_potential(self) -> float:
        """PHT hit rate over trigger accesses (a quick training-health metric)."""
        return self.stats.pht_hit_rate

    def __repr__(self) -> str:
        return (
            f"SpatialMemoryStreaming(index={self.index_scheme.name}, "
            f"trainer={self.trainer.name}, regions={self.geometry.describe()}, "
            f"pht={'unbounded' if self.pht.is_unbounded else self.pht.num_entries})"
        )
