"""Tests for repro.core.prediction (prediction registers and streaming)."""

import pytest

from repro.core.pattern import SpatialPattern
from repro.core.prediction import PredictionRegisterFile
from repro.core.region import RegionGeometry


@pytest.fixture
def file_(geometry):
    return PredictionRegisterFile(geometry, num_registers=4)


def pattern(*offsets):
    return SpatialPattern.from_offsets(32, offsets)


class TestPredictionRegister:
    """One register, a ``(region, bits)`` pair of the file, on its own."""

    def test_requests_in_offset_order(self, file_):
        file_.allocate(0x10000, pattern(3, 1, 7))
        assert [request.offset for request in file_.drain()] == [1, 3, 7]

    def test_request_addresses(self, file_):
        file_.allocate(0x10000, pattern(2))
        (request,) = file_.drain()
        assert request.address == 0x10000 + 2 * 64
        assert request.region == 0x10000

    def test_exhausted_returns_none(self, file_):
        file_.allocate(0x10000, pattern(5))
        assert len(file_.drain()) == 1
        assert file_.drain() == [] and file_.drain_bits() == []

    def test_wrong_pattern_width_rejected(self, file_):
        with pytest.raises(ValueError):
            file_.allocate(0, SpatialPattern.empty(8))


class TestPredictionRegisterFile:
    def test_invalid_register_count(self, geometry):
        with pytest.raises(ValueError):
            PredictionRegisterFile(geometry, num_registers=0)

    def test_allocate_and_drain(self, file_):
        assert file_.allocate(0x10000, pattern(1, 2, 3))
        requests = file_.drain()
        assert len(requests) == 3
        assert len(file_._registers) == 0

    def test_exclude_trigger_offset(self, file_):
        file_.allocate(0x10000, pattern(0, 1, 2), exclude_offset=1)
        offsets = {request.offset for request in file_.drain()}
        assert offsets == {0, 2}

    def test_empty_pattern_after_exclusion_allocates_nothing(self, file_):
        assert file_.allocate(0x10000, pattern(4), exclude_offset=4)
        assert len(file_._registers) == 0

    def test_capacity_rejection(self, geometry):
        file_ = PredictionRegisterFile(geometry, num_registers=2)
        assert file_.allocate(0x10000, pattern(1))
        assert file_.allocate(0x20000, pattern(1))
        assert not file_.allocate(0x30000, pattern(1))
        # The rejected region is not streamed.
        assert [request.region for request in file_.drain()] == [0x10000, 0x20000]

    def test_round_robin_across_registers(self, file_):
        file_.allocate(0x10000, pattern(1, 2))
        file_.allocate(0x20000, pattern(5, 6))
        requests = file_.drain()
        regions = [request.region for request in requests]
        # Requests must alternate between the two active regions.
        assert regions[0] != regions[1]
        assert len(requests) == 4

    def test_drain_with_limit(self, file_):
        file_.allocate(0x10000, pattern(1, 2, 3, 4))
        first = file_.drain(max_requests=2)
        assert len(first) == 2
        assert len(file_._registers) == 1
        second = file_.drain()
        assert len(second) == 2

    def test_cancel_region(self, file_, geometry):
        file_.allocate(0x10000, pattern(1, 2))
        file_.allocate(0x20000, pattern(3))
        cancelled = file_.cancel_region(0x10000 + 500)
        assert cancelled == 1
        requests = file_.drain()
        assert all(request.region == 0x20000 for request in requests)

    def test_cancel_absent_region_preserves_round_robin(self, file_):
        # The cursor sits on the second register after one drained request;
        # cancelling a region with no active register must not reset it, or
        # the first register would be unfairly favoured on the next drain.
        file_.allocate(0x10000, pattern(1, 2))
        file_.allocate(0x20000, pattern(5, 6))
        first = file_.drain(max_requests=1)
        assert first[0].region == 0x10000
        assert file_.cancel_region(0x90000) == 0
        second = file_.drain(max_requests=1)
        assert second[0].region == 0x20000

    def test_cancel_before_cursor_shifts_cursor(self, file_):
        # Removing a register below the cursor shifts it so the drain
        # continues from the same logical position.
        file_.allocate(0x10000, pattern(1, 2))
        file_.allocate(0x20000, pattern(5, 6))
        file_.allocate(0x30000, pattern(3, 4))
        file_.drain(max_requests=2)  # cursor now on the third register
        assert file_.cancel_region(0x10000) == 1
        nxt = file_.drain(max_requests=1)
        assert nxt[0].region == 0x30000

    def test_cancel_at_tail_clamps_cursor(self, file_):
        file_.allocate(0x10000, pattern(1, 2))
        file_.allocate(0x20000, pattern(5, 6))
        file_.drain(max_requests=1)  # cursor on second register
        assert file_.cancel_region(0x20000) == 1
        nxt = file_.drain(max_requests=1)
        assert nxt[0].region == 0x10000

    def test_clear(self, file_):
        file_.allocate(0x10000, pattern(1))
        file_.clear()
        assert len(file_._registers) == 0
        assert file_.drain() == []
