"""Tests for repro.core.agt (Active Generation Table).

The walkthrough tests follow the example of Figure 2 in the paper.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agt import ActiveGenerationTable
from repro.core.region import RegionGeometry


@pytest.fixture
def agt(geometry):
    return ActiveGenerationTable(geometry, filter_entries=32, accumulation_entries=64)


REGION = 0x10000  # region-aligned base


class TestFigure2Walkthrough:
    """Access A+3, A+2, A+0, then evict A+2 (the paper's running example)."""

    def test_trigger_allocates_in_filter(self, agt):
        event = agt.observe_access(pc=0x400, address=REGION + 3 * 64)
        assert event.trigger is not None
        assert event.trigger.offset == 3
        assert len(agt._filter) == 1
        assert len(agt._accumulation) == 0

    def test_second_block_transfers_to_accumulation(self, agt):
        agt.observe_access(pc=0x400, address=REGION + 3 * 64)
        event = agt.observe_access(pc=0x404, address=REGION + 2 * 64)
        assert event.trigger is None
        assert len(agt._filter) == 0
        assert len(agt._accumulation) == 1

    def test_pattern_accumulates(self, agt, geometry):
        agt.observe_access(pc=0x400, address=REGION + 3 * 64)
        agt.observe_access(pc=0x404, address=REGION + 2 * 64)
        agt.observe_access(pc=0x408, address=REGION + 0 * 64)
        event = agt.observe_removal(REGION + 2 * 64)
        assert len(event.completed) == 1
        record = event.completed[0]
        assert record.trigger_pc == 0x400
        assert record.trigger_offset == 3
        pattern = record.pattern(geometry.blocks_per_region)
        assert pattern.offsets() == [0, 2, 3]

    def test_eviction_of_filter_only_generation_discards(self, agt):
        agt.observe_access(pc=0x400, address=REGION)
        event = agt.observe_removal(REGION)
        assert not event.completed
        assert len(agt._filter) == 0
        assert agt.filter_only_generations == 1


class TestFilterTableBehaviour:
    def test_repeat_access_to_trigger_block_stays_in_filter(self, agt):
        agt.observe_access(pc=0x400, address=REGION + 5 * 64)
        event = agt.observe_access(pc=0x400, address=REGION + 5 * 64 + 32)
        assert event.trigger is None
        assert len(agt._filter) == 1
        assert len(agt._accumulation) == 0

    def test_new_generation_after_removal_is_trigger(self, agt):
        agt.observe_access(pc=0x400, address=REGION)
        agt.observe_access(pc=0x400, address=REGION + 64)
        agt.observe_removal(REGION)
        event = agt.observe_access(pc=0x500, address=REGION + 2 * 64)
        assert event.trigger is not None
        assert event.trigger.pc == 0x500

    def test_filter_victim_dropped_silently(self, geometry):
        agt = ActiveGenerationTable(geometry, filter_entries=2, accumulation_entries=4)
        for i in range(3):
            agt.observe_access(pc=0x400, address=REGION + i * geometry.region_size)
        # The oldest region left without a trace: no completed generation,
        # and it is counted as a filter-only one.
        assert list(agt._filter) == [REGION + i * geometry.region_size for i in (1, 2)]
        assert agt.filter_only_generations == 1 and not agt._accumulation


class TestAccumulationVictims:
    def test_victim_generation_completed(self, geometry):
        agt = ActiveGenerationTable(geometry, filter_entries=8, accumulation_entries=2)
        # Create three two-block generations; the third displaces the first.
        for i in range(3):
            base = REGION + i * geometry.region_size
            agt.observe_access(pc=0x400, address=base)
            event = agt.observe_access(pc=0x404, address=base + 64)
            if i < 2:
                assert not event.completed
            else:
                assert len(event.completed) == 1
                assert event.completed[0].region == REGION
        assert list(agt._accumulation) == [REGION + i * geometry.region_size for i in (1, 2)]


class TestUnboundedTables:
    def test_unbounded_never_evicts(self, geometry):
        agt = ActiveGenerationTable(geometry, filter_entries=None, accumulation_entries=None)
        for i in range(200):
            base = REGION + i * geometry.region_size
            agt.observe_access(pc=0x400, address=base)
            agt.observe_access(pc=0x404, address=base + 64)
        assert len(agt._accumulation) == 200
        assert agt.filter_only_generations == 0

    def test_invalid_sizes(self, geometry):
        with pytest.raises(ValueError):
            ActiveGenerationTable(geometry, filter_entries=0)
        with pytest.raises(ValueError):
            ActiveGenerationTable(geometry, accumulation_entries=-1)


class TestDrainAndIntrospection:
    def test_drain_returns_accumulating_generations(self, agt):
        agt.observe_access(pc=0x400, address=REGION)
        agt.observe_access(pc=0x404, address=REGION + 64)
        drained = agt.drain()
        assert len(drained) == 1
        assert len(agt._accumulation) == 0
        assert len(agt._filter) == 0

    def test_active_regions(self, agt, geometry):
        agt.observe_access(pc=0x400, address=REGION)
        agt.observe_access(pc=0x400, address=REGION + geometry.region_size)
        assert set([*agt._filter, *agt._accumulation]) == {REGION, REGION + geometry.region_size}

    def test_removal_of_unknown_region_is_noop(self, agt):
        event = agt.observe_removal(0x999000)
        assert not event.completed


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        offsets=st.lists(st.integers(min_value=0, max_value=31), min_size=2, max_size=40),
    )
    def test_completed_pattern_matches_accessed_offsets(self, offsets):
        geometry = RegionGeometry()
        agt = ActiveGenerationTable(geometry, filter_entries=None, accumulation_entries=None)
        for offset in offsets:
            agt.observe_access(pc=0x400, address=REGION + offset * 64)
        event = agt.observe_removal(REGION)
        unique = sorted(set(offsets))
        if len(unique) == 1:
            # Single distinct block: the generation stays in the filter table.
            assert not event.completed
        else:
            assert len(event.completed) == 1
            pattern = event.completed[0].pattern(geometry.blocks_per_region)
            assert pattern.offsets() == unique
