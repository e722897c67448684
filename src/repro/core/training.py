"""Training structures for spatial pattern observation.

Figure 8 compares three ways of observing spatial region generations:

* the **AGT** (the paper's decoupled design, :class:`AGTTrainer`);
* a **logical sectored** tag array (Chen et al. [4]) that mirrors the
  conflict behaviour of a sectored cache without constraining the real
  cache's contents (:class:`LogicalSectoredTrainer`); and
* a **decoupled sectored** cache (Kumar & Wilkerson [17]) whose sector-tag
  conflicts *do* constrain the cache: when a sector tag is displaced, the
  blocks of that sector must leave the cache as well
  (:class:`DecoupledSectoredTrainer`, which reports these forced evictions
  to the engine).

All three expose the same :class:`SpatialTrainer` interface so the SMS
predictor and the simulation engine can swap them freely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional

from repro.core.agt import ActiveGenerationTable, GenerationRecord
from repro.core.indexing import TriggerInfo
from repro.core.pattern import SpatialPattern
from repro.core.region import RegionGeometry

if TYPE_CHECKING:  # the tag array is imported where a sectored trainer is built
    from repro.memory.sectored import SectorState


class CompletedGeneration(NamedTuple):
    """A finished spatial region generation, ready to train the PHT."""

    region: int
    trigger_pc: int
    trigger_offset: int
    trigger_address: int
    pattern: SpatialPattern

    def trigger_info(self) -> TriggerInfo:
        return TriggerInfo(
            pc=self.trigger_pc,
            address=self.trigger_address,
            region=self.region,
            offset=self.trigger_offset,
        )


class TrainerResponse:
    """Outcome of one trainer observation."""

    __slots__ = ("trigger", "completed", "forced_evictions")

    def __init__(
        self,
        trigger: Optional[TriggerInfo] = None,
        completed: Optional[List[CompletedGeneration]] = None,
        forced_evictions: Optional[List[int]] = None,
    ) -> None:
        self.trigger = trigger
        self.completed = [] if completed is None else completed
        self.forced_evictions = [] if forced_evictions is None else forced_evictions

    @property
    def is_trigger(self) -> bool:
        return self.trigger is not None


class SpatialTrainer:
    """Interface shared by the AGT and the sectored training structures."""

    name = "abstract"

    def __init__(self, geometry: RegionGeometry) -> None:
        self.geometry = geometry

    def observe_access(self, pc: int, address: int) -> TrainerResponse:
        """Observe one L1 data access."""
        raise NotImplementedError

    def observe_removal(self, block_address: int, invalidated: bool = False) -> TrainerResponse:
        """Observe the replacement or invalidation of an L1 block."""
        raise NotImplementedError

    def drain(self) -> List[CompletedGeneration]:
        """End all in-flight generations (end of trace)."""
        return []


def _record_to_completed(record: GenerationRecord, num_blocks: int) -> CompletedGeneration:
    return CompletedGeneration(
        region=record.region,
        trigger_pc=record.trigger_pc,
        trigger_offset=record.trigger_offset,
        trigger_address=record.trigger_address,
        pattern=record.pattern(num_blocks),
    )


class AGTTrainer(SpatialTrainer):
    """The paper's Active Generation Table behind the trainer interface."""

    name = "agt"

    def __init__(
        self,
        geometry: RegionGeometry,
        filter_entries: Optional[int] = 32,
        accumulation_entries: Optional[int] = 64,
    ) -> None:
        super().__init__(geometry)
        self.agt = ActiveGenerationTable(
            geometry=geometry,
            filter_entries=filter_entries,
            accumulation_entries=accumulation_entries,
        )

    def observe_access(self, pc: int, address: int) -> TrainerResponse:
        event = self.agt.observe_access(pc, address)
        completed = [
            _record_to_completed(record, self.geometry.blocks_per_region)
            for record in event.completed
        ]
        return TrainerResponse(trigger=event.trigger, completed=completed)

    def observe_removal(self, block_address: int, invalidated: bool = False) -> TrainerResponse:
        event = self.agt.observe_removal(block_address)
        completed = [
            _record_to_completed(record, self.geometry.blocks_per_region)
            for record in event.completed
        ]
        return TrainerResponse(completed=completed)

    def drain(self) -> List[CompletedGeneration]:
        return [
            _record_to_completed(record, self.geometry.blocks_per_region)
            for record in self.agt.drain()
        ]


class LogicalSectoredTrainer(SpatialTrainer):
    """Training on a logical sectored tag array sized like the trained cache.

    The tag array has ``cache_capacity / region_size`` sectors at the cache's
    associativity, so interleaved accesses to regions that collide in the tag
    array fragment generations exactly as they would in a sectored cache —
    but the real cache's contents are unaffected.
    """

    name = "logical-sectored"

    def __init__(
        self,
        geometry: RegionGeometry,
        cache_capacity: int = 64 * 1024,
        cache_associativity: int = 2,
    ) -> None:
        from repro.memory.sectored import LogicalSectoredTagArray

        super().__init__(geometry)
        self.tags = LogicalSectoredTagArray(
            capacity_bytes=cache_capacity,
            associativity=cache_associativity,
            region_size=geometry.region_size,
            block_size=geometry.block_size,
            name=f"{self.name}-tags",
        )
        self.generations_started = 0
        self.generations_completed = 0

    def _sector_to_completed(self, sector: SectorState) -> Optional[CompletedGeneration]:
        if sector.population == 0:
            return None
        self.generations_completed += 1
        return CompletedGeneration(
            region=sector.region,
            trigger_pc=sector.trigger_pc,
            trigger_offset=sector.trigger_offset,
            trigger_address=sector.trigger_address,
            pattern=SpatialPattern(
                num_blocks=self.geometry.blocks_per_region, bits=sector.pattern_bits
            ),
        )

    def observe_access(self, pc: int, address: int) -> TrainerResponse:
        response = TrainerResponse()
        sector = self.tags.lookup(address)
        if sector is None:
            # New generation: allocate a sector; a conflict victim's footprint
            # becomes a (fragmented) completed generation.
            sector, victim = self.tags.allocate(address, trigger_pc=pc)
            self.generations_started += 1
            if victim is not None:
                completed = self._sector_to_completed(victim)
                if completed is not None:
                    response.completed.append(completed)
                response.forced_evictions.extend(self._victim_evictions(victim))
            region, offset = self.geometry.split(address)
            response.trigger = TriggerInfo(pc=pc, address=address, region=region, offset=offset)
        sector.set_block(self.geometry.offset(address))
        return response

    def _victim_evictions(self, victim: SectorState) -> List[int]:
        """Blocks that must leave the real cache when a sector is displaced.

        The logical sectored organisation does not constrain the real cache,
        so this is empty; the decoupled sectored subclass overrides it.
        """
        return []

    def observe_removal(self, block_address: int, invalidated: bool = False) -> TrainerResponse:
        response = TrainerResponse()
        sector = self.tags.probe(block_address)
        if sector is None:
            return response
        # A block of an in-flight generation left the cache: the generation
        # ends (the footprint must describe simultaneously-resident blocks).
        offset = self.geometry.offset(block_address)
        if sector.has_block(offset):
            removed = self.tags.remove(block_address)
            completed = self._sector_to_completed(removed)
            if completed is not None:
                response.completed.append(completed)
        return response

    def drain(self) -> List[CompletedGeneration]:
        drained = []
        for sector in self.tags.sectors():
            completed = self._sector_to_completed(sector)
            if completed is not None:
                drained.append(completed)
        return drained


class DecoupledSectoredTrainer(LogicalSectoredTrainer):
    """Training on a decoupled sectored cache.

    The sector tags *are* the cache tags: when a sector is displaced by a
    conflict, every block of that sector leaves the cache.  The trainer
    reports those blocks as forced evictions and the engine applies them to
    the L1, reproducing the extra conflict misses the paper observes for the
    decoupled sectored organisation (Figure 8).
    """

    name = "decoupled-sectored"

    def _victim_evictions(self, victim: SectorState) -> List[int]:
        evictions = []
        for offset, valid in enumerate(victim.valid_bits):
            if valid:
                evictions.append(self.geometry.block_at_offset(victim.region, offset))
        return evictions


def make_trainer(
    name: str,
    geometry: RegionGeometry,
    filter_entries: Optional[int] = 32,
    accumulation_entries: Optional[int] = 64,
    cache_capacity: int = 64 * 1024,
    cache_associativity: int = 2,
) -> SpatialTrainer:
    """Construct a training structure by name (``"agt"``, ``"logical-sectored"``,
    ``"decoupled-sectored"``)."""
    key = name.lower().strip()
    if key in ("agt", "active-generation-table"):
        return AGTTrainer(
            geometry,
            filter_entries=filter_entries,
            accumulation_entries=accumulation_entries,
        )
    if key in ("logical-sectored", "ls", "logical"):
        return LogicalSectoredTrainer(
            geometry,
            cache_capacity=cache_capacity,
            cache_associativity=cache_associativity,
        )
    if key in ("decoupled-sectored", "ds", "decoupled"):
        return DecoupledSectoredTrainer(
            geometry,
            cache_capacity=cache_capacity,
            cache_associativity=cache_associativity,
        )
    raise ValueError(
        f"unknown trainer {name!r}; choose from 'agt', 'logical-sectored', 'decoupled-sectored'"
    )
