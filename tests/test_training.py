"""Tests for repro.core.training (AGT / logical-sectored / decoupled-sectored trainers)."""

import pytest

from repro.core.agt import ActiveGenerationTable
from repro.core.training import (
    DecoupledSectoredTrainer,
    LogicalSectoredTrainer,
    make_trainer,
)

REGION = 0x40000


def offsets(bits):
    return [offset for offset in range(bits.bit_length()) if bits >> offset & 1]


class TestAGTTrainer:
    """The AGT is its own trainer: the same three methods as the sectored ones."""

    def test_trigger_and_completion(self, geometry):
        trainer = ActiveGenerationTable(geometry)
        response = trainer.observe_access(0x400, REGION + 3 * 64 + 8)
        assert response.trigger is not None
        assert response.trigger.trigger_offset == 3
        assert response.trigger.trigger_address == REGION + 3 * 64
        trainer.observe_access(0x404, REGION + 5 * 64)
        record = trainer.observe_removal(REGION + 3 * 64)
        assert offsets(record.pattern_bits) == [3, 5]

    def test_no_forced_evictions(self, geometry):
        trainer = ActiveGenerationTable(geometry)
        for i in range(200):
            response = trainer.observe_access(0x400, REGION + i * geometry.region_size)
            assert not response.forced_evictions

    def test_drain(self, geometry):
        trainer = ActiveGenerationTable(geometry)
        trainer.observe_access(0x400, REGION)
        trainer.observe_access(0x404, REGION + 64)
        drained = trainer.drain()
        assert len(drained) == 1


class TestLogicalSectoredTrainer:
    def make(self, geometry, capacity=8 * 2048, assoc=2):
        return LogicalSectoredTrainer(geometry, cache_capacity=capacity, cache_associativity=assoc)

    def test_trigger_on_new_sector(self, geometry):
        trainer = self.make(geometry)
        response = trainer.observe_access(0x400, REGION + 2 * 64 + 8)
        assert response.trigger is not None
        assert response.trigger.trigger_offset == 2
        # The trigger's block, as the AGT hands it out: the address-indexed
        # PHT keys name a block.
        assert response.trigger.trigger_address == REGION + 2 * 64

    def test_no_trigger_on_existing_sector(self, geometry):
        trainer = self.make(geometry)
        trainer.observe_access(0x400, REGION)
        response = trainer.observe_access(0x404, REGION + 64)
        assert response.trigger is None

    def test_conflict_completes_victim_generation(self, geometry):
        # 4 sectors, 2-way -> 2 sets; regions spaced by 2 regions collide.
        trainer = self.make(geometry, capacity=4 * 2048, assoc=2)
        stride = 2 * geometry.region_size
        trainer.observe_access(0x400, REGION)
        trainer.observe_access(0x404, REGION + 64)
        trainer.observe_access(0x400, REGION + stride)
        response = trainer.observe_access(0x400, REGION + 2 * stride)
        completed_regions = [c.region for c in response.completed]
        assert REGION in completed_regions
        # Logical sectored training never constrains the real cache.
        assert not response.forced_evictions

    def test_removal_ends_generation(self, geometry):
        trainer = self.make(geometry)
        trainer.observe_access(0x400, REGION)
        trainer.observe_access(0x404, REGION + 64)
        record = trainer.observe_removal(REGION + 64)
        assert offsets(record.pattern_bits) == [0, 1]

    def test_removal_of_untracked_block_is_noop(self, geometry):
        trainer = self.make(geometry)
        assert trainer.observe_removal(0x999000) is None

    def test_drain(self, geometry):
        trainer = self.make(geometry)
        trainer.observe_access(0x400, REGION)
        assert len(trainer.drain()) == 1


class TestDecoupledSectoredTrainer:
    def test_conflict_forces_cache_evictions(self, geometry):
        trainer = DecoupledSectoredTrainer(
            geometry, cache_capacity=4 * 2048, cache_associativity=2
        )
        stride = 2 * geometry.region_size
        trainer.observe_access(0x400, REGION + 0 * 64)
        trainer.observe_access(0x404, REGION + 3 * 64)
        trainer.observe_access(0x400, REGION + stride)
        response = trainer.observe_access(0x400, REGION + 2 * stride)
        assert set(response.forced_evictions) == {REGION, REGION + 3 * 64}


class TestFactory:
    def test_agt(self, geometry):
        assert type(make_trainer("agt", geometry)) is ActiveGenerationTable

    def test_logical(self, geometry):
        assert type(make_trainer("logical-sectored", geometry)) is LogicalSectoredTrainer

    def test_decoupled(self, geometry):
        assert type(make_trainer("decoupled-sectored", geometry)) is DecoupledSectoredTrainer

    def test_unknown(self, geometry):
        # One name per trainer: no case folding, no short aliases.
        for name in ("sector", "LS", "ds", "logical", "active-generation-table"):
            with pytest.raises(ValueError):
                make_trainer(name, geometry)
