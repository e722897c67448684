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
from repro.core.agt import GenerationRecord
from repro.core.config import SMSConfig
from repro.core.indexing import IndexScheme, PCOffsetIndex, TriggerInfo, make_index_scheme
from repro.core.pht import PatternHistoryTable
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
        # unboxed.  Sectored trainers keep the reference path.
        self._lane_agt = self.trainer.agt if type(self.trainer) is AGTTrainer else None
        self._lane_region_mask = ~(self.geometry.region_size - 1)
        self._lane_offset_mask = self.geometry.region_size - 1
        self._lane_block_shift = self.geometry.block_size.bit_length() - 1
        if type(self.index_scheme) is PCOffsetIndex:
            self._lane_key = self._lane_key_pc_offset
        else:
            self._lane_key = self._lane_key_generic

    # ------------------------------------------------------------------ #
    def _lane_key_pc_offset(self, pc: int, address: int, region: int, offset: int):
        # Inlined PCOffsetIndex.key: no TriggerInfo boxed on the hot path.
        return ("pc+off", pc, offset)

    def _lane_key_generic(self, pc: int, address: int, region: int, offset: int):
        return self.index_scheme.key(
            TriggerInfo(pc=pc, address=address, region=region, offset=offset)
        )

    def _train_record(self, record: GenerationRecord) -> None:
        """Lane-path :meth:`_train` for one raw AGT generation record."""
        key = self._lane_key(
            record.trigger_pc, record.trigger_address, record.region, record.trigger_offset
        )
        self.pht.store_bits(key, record.pattern_bits)
        self.stats.trained_patterns += 1

    def lane_hook(self):
        """Build the fused per-access closure for the engine's lane path.

        Bit-identical to :meth:`on_access` (for the plain AGT, which never
        forces evictions): the AGT transition from
        :meth:`~repro.core.agt.ActiveGenerationTable.observe_access_lane`,
        the PHT consult on a trigger, and the round-robin stream drain run
        as one function with every stable collaborator pre-bound.  Only
        objects assigned once in ``__init__`` are captured (AGT tables,
        stats, register file); ``registers._registers`` is read live because
        :meth:`~repro.core.prediction.PredictionRegisterFile.cancel_region`
        rebinds it.  The engine rebuilds hooks at the start of every run.
        """
        agt = self._lane_agt
        if agt is None:
            return None
        accumulation = agt._accumulation
        acc_move = accumulation.move_to_end
        filter_table = agt._filter
        filt_move = filter_table.move_to_end
        allocate_filter = agt._allocate_filter
        allocate_accumulation = agt._allocate_accumulation
        region_mask = self._lane_region_mask
        offset_mask = self._lane_offset_mask
        block_shift = self._lane_block_shift
        stats = self.stats
        lookup_bits = self.pht.lookup_bits
        lane_key = self._lane_key
        registers = self.registers
        drain_addresses = registers.drain_addresses
        allocate_bits = registers.allocate_bits
        max_requests = self.config.max_requests_per_access
        train = self._train_record

        def on_access_lane(pc: int, address: int) -> Optional[List[int]]:
            region = address & region_mask
            record = accumulation.get(region)
            if record is not None:
                # Accumulating generation: just set the offset bit.
                record.pattern_bits |= 1 << ((address & offset_mask) >> block_shift)
                acc_move(region)
            else:
                offset = (address & offset_mask) >> block_shift
                entry = filter_table.get(region)
                if entry is None:
                    # Trigger access: new generation, consult the PHT.
                    agt.trigger_accesses += 1
                    agt.generations_started += 1
                    allocate_filter(region, pc, offset, address)
                    stats.pht_lookups += 1
                    bits = lookup_bits(lane_key(pc, address, region, offset))
                    if bits:
                        stats.pht_hits += 1
                        stats.predictions += bin(bits).count("1")
                        allocate_bits(region, bits, exclude_offset=offset)
                elif entry.trigger_offset == offset:
                    filt_move(region)
                else:
                    # Second distinct block: move to the accumulation table;
                    # a table victim's generation completes and trains.
                    del filter_table[region]
                    victim = allocate_accumulation(
                        region,
                        GenerationRecord(
                            region=region,
                            trigger_pc=entry.trigger_pc,
                            trigger_offset=entry.trigger_offset,
                            trigger_address=entry.trigger_address,
                            pattern_bits=(1 << entry.trigger_offset) | (1 << offset),
                        ),
                    )
                    if victim is not None:
                        train(victim)
            if registers._registers:
                addresses = drain_addresses(max_requests)
                stats.issued += len(addresses)
                return addresses
            return None

        return on_access_lane

    def lane_eviction_hook(self):
        """Build the fused per-eviction closure (see :meth:`lane_hook`).

        Bit-identical to ``on_eviction(block_address, invalidated=False)``:
        the AGT never forces evictions or streams on eviction, so the ended
        generation (if any) trains the PHT and nothing else happens.
        """
        agt = self._lane_agt
        if agt is None:
            return None
        accumulation_pop = agt._accumulation.pop
        filter_table = agt._filter
        region_mask = self._lane_region_mask
        train = self._train_record

        def on_eviction_lane(block_address: int) -> None:
            region = block_address & region_mask
            if region in filter_table:
                del filter_table[region]
                agt.filter_only_generations += 1
                return
            record = accumulation_pop(region, None)
            if record is not None:
                agt.generations_completed += 1
                train(record)

        return on_eviction_lane

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
            # Unboxed equivalent of the generic body below: the AGT never
            # forces evictions, so the response is always empty and the one
            # possible completion trains the PHT directly.
            record = agt.observe_removal_lane(block_address & self._lane_region_mask)
            if record is not None:
                self._train_record(record)
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
