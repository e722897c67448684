"""Training structures for spatial pattern observation.

Figure 8 compares three ways of observing spatial region generations:

* the **AGT** (the paper's decoupled design,
  :class:`~repro.core.agt.ActiveGenerationTable` itself);
* a **logical sectored** tag array (Chen et al. [4]) that mirrors the
  conflict behaviour of a sectored cache without constraining the real
  cache's contents (:class:`LogicalSectoredTrainer`); and
* a **decoupled sectored** cache (Kumar & Wilkerson [17]) whose sector-tag
  conflicts *do* constrain the cache: when a sector tag is displaced, the
  blocks of that sector must leave the cache as well
  (:class:`DecoupledSectoredTrainer`, which reports these forced evictions
  to the engine).

All three have the same three methods, so the SMS predictor and the
simulation engine can swap them freely: ``observe_access(pc, address)``
returns a :class:`~repro.core.agt.TrainerResponse`, ``observe_removal(block)``
the :class:`~repro.core.agt.GenerationRecord` the removal ended (or ``None``)
and ``drain()`` the records of every live generation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Union

from repro.core.agt import ActiveGenerationTable, GenerationRecord, TrainerResponse
from repro.core.region import RegionGeometry

if TYPE_CHECKING:  # the tag array is imported where a sectored trainer is built
    from repro.memory.sectored import SectorState


class LogicalSectoredTrainer:
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

        self.geometry = geometry
        self.tags = LogicalSectoredTagArray(
            capacity_bytes=cache_capacity,
            associativity=cache_associativity,
            region_size=geometry.region_size,
            block_size=geometry.block_size,
            name=f"{self.name}-tags",
        )

    @staticmethod
    def _record(sector: SectorState) -> Optional[GenerationRecord]:
        if sector.population == 0:
            return None
        return GenerationRecord(
            sector.region,
            sector.trigger_pc,
            sector.trigger_offset,
            sector.trigger_address,
            sector.pattern_bits,
        )

    def observe_access(self, pc: int, address: int) -> TrainerResponse:
        response = TrainerResponse()
        sector = self.tags.lookup(address)
        if sector is None:
            # New generation: allocate a sector; a conflict victim's footprint
            # becomes a (fragmented) completed generation.
            sector, victim = self.tags.allocate(address, trigger_pc=pc)
            if victim is not None:
                completed = self._record(victim)
                if completed is not None:
                    response.completed.append(completed)
                response.forced_evictions.extend(self._victim_evictions(victim))
            sector.set_block(sector.trigger_offset)
            response.trigger = self._record(sector)
        else:
            sector.set_block(self.geometry.offset(address))
        return response

    def _victim_evictions(self, victim: SectorState) -> List[int]:
        """Blocks that must leave the real cache when a sector is displaced.

        The logical sectored organisation does not constrain the real cache,
        so this is empty; the decoupled sectored subclass overrides it.
        """
        return []

    def observe_removal(self, block_address: int) -> Optional[GenerationRecord]:
        sector = self.tags.probe(block_address)
        if sector is None:
            return None
        # A block of an in-flight generation left the cache: the generation
        # ends (the footprint must describe simultaneously-resident blocks).
        if sector.has_block(self.geometry.offset(block_address)):
            return self._record(self.tags.remove(block_address))
        return None

    def drain(self) -> List[GenerationRecord]:
        drained = []
        for sector in self.tags.sectors():
            record = self._record(sector)
            if record is not None:
                drained.append(record)
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
) -> Union[ActiveGenerationTable, LogicalSectoredTrainer]:
    """Construct a training structure by name (``"agt"``, ``"logical-sectored"``,
    ``"decoupled-sectored"``)."""
    if name == "agt":
        return ActiveGenerationTable(
            geometry,
            filter_entries=filter_entries,
            accumulation_entries=accumulation_entries,
        )
    if name == "logical-sectored":
        return LogicalSectoredTrainer(
            geometry,
            cache_capacity=cache_capacity,
            cache_associativity=cache_associativity,
        )
    if name == "decoupled-sectored":
        return DecoupledSectoredTrainer(
            geometry,
            cache_capacity=cache_capacity,
            cache_associativity=cache_associativity,
        )
    raise ValueError(
        f"unknown trainer {name!r}; choose from 'agt', 'logical-sectored', 'decoupled-sectored'"
    )
