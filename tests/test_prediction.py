"""Tests for repro.core.prediction (prediction registers and streaming)."""

import pytest

from repro.core.prediction import PredictionRegisterFile


@pytest.fixture
def file_(geometry):
    return PredictionRegisterFile(geometry, num_registers=4)


def pattern(*offsets):
    return sum(1 << offset for offset in offsets)


def drain(file_, max_requests=None):
    """``drain_bits`` unrolled into ``(region, offset)`` blocks, each run
    lowest offset first, as the engine streams them."""
    return [
        (region, offset)
        for region, bits in file_.drain_bits(max_requests)
        for offset in range(32)
        if bits >> offset & 1
    ]


class TestPredictionRegister:
    """One register, a ``(region, bits)`` pair of the file, on its own."""

    def test_requests_in_offset_order(self, file_):
        file_.allocate_bits(0x10000, pattern(3, 1, 7))
        assert [offset for _, offset in drain(file_)] == [1, 3, 7]

    def test_request_addresses(self, file_):
        # The register keeps the region's base, whatever address of the
        # region it was allocated with.
        file_.allocate_bits(0x10000 + 100, pattern(2))
        assert file_.drain_bits() == [(0x10000, pattern(2))]

    def test_exhausted_returns_none(self, file_):
        file_.allocate_bits(0x10000, pattern(5))
        assert len(drain(file_)) == 1
        assert file_.drain_bits() == []


class TestPredictionRegisterFile:
    def test_invalid_register_count(self, geometry):
        with pytest.raises(ValueError):
            PredictionRegisterFile(geometry, num_registers=0)

    def test_allocate_and_drain(self, file_):
        assert file_.allocate_bits(0x10000, pattern(1, 2, 3))
        requests = drain(file_)
        assert len(requests) == 3
        assert len(file_._registers) == 0

    def test_exclude_trigger_offset(self, file_):
        file_.allocate_bits(0x10000, pattern(0, 1, 2), exclude_offset=1)
        offsets = {offset for _, offset in drain(file_)}
        assert offsets == {0, 2}

    def test_empty_pattern_after_exclusion_allocates_nothing(self, file_):
        assert file_.allocate_bits(0x10000, pattern(4), exclude_offset=4)
        assert len(file_._registers) == 0

    def test_capacity_rejection(self, geometry):
        file_ = PredictionRegisterFile(geometry, num_registers=2)
        assert file_.allocate_bits(0x10000, pattern(1))
        assert file_.allocate_bits(0x20000, pattern(1))
        assert not file_.allocate_bits(0x30000, pattern(1))
        # The rejected region is not streamed.
        assert [region for region, _ in drain(file_)] == [0x10000, 0x20000]

    def test_round_robin_across_registers(self, file_):
        file_.allocate_bits(0x10000, pattern(1, 2))
        file_.allocate_bits(0x20000, pattern(5, 6))
        requests = drain(file_)
        regions = [region for region, _ in requests]
        # Requests must alternate between the two active regions.
        assert regions[0] != regions[1]
        assert len(requests) == 4

    def test_drain_with_limit(self, file_):
        file_.allocate_bits(0x10000, pattern(1, 2, 3, 4))
        first = drain(file_, max_requests=2)
        assert len(first) == 2
        assert len(file_._registers) == 1
        second = drain(file_)
        assert len(second) == 2

    def test_cancel_region(self, file_, geometry):
        file_.allocate_bits(0x10000, pattern(1, 2))
        file_.allocate_bits(0x20000, pattern(3))
        cancelled = file_.cancel_region(0x10000 + 500)
        assert cancelled == 1
        requests = drain(file_)
        assert all(region == 0x20000 for region, _ in requests)

    def test_cancel_absent_region_preserves_round_robin(self, file_):
        # The cursor sits on the second register after one drained request;
        # cancelling a region with no active register must not reset it, or
        # the first register would be unfairly favoured on the next drain.
        file_.allocate_bits(0x10000, pattern(1, 2))
        file_.allocate_bits(0x20000, pattern(5, 6))
        first = drain(file_, max_requests=1)
        assert first[0][0] == 0x10000
        assert file_.cancel_region(0x90000) == 0
        second = drain(file_, max_requests=1)
        assert second[0][0] == 0x20000

    def test_cancel_before_cursor_shifts_cursor(self, file_):
        # Removing a register below the cursor shifts it so the drain
        # continues from the same logical position.
        file_.allocate_bits(0x10000, pattern(1, 2))
        file_.allocate_bits(0x20000, pattern(5, 6))
        file_.allocate_bits(0x30000, pattern(3, 4))
        drain(file_, max_requests=2)  # cursor now on the third register
        assert file_.cancel_region(0x10000) == 1
        nxt = drain(file_, max_requests=1)
        assert nxt[0][0] == 0x30000

    def test_cancel_at_tail_clamps_cursor(self, file_):
        file_.allocate_bits(0x10000, pattern(1, 2))
        file_.allocate_bits(0x20000, pattern(5, 6))
        drain(file_, max_requests=1)  # cursor on second register
        assert file_.cancel_region(0x20000) == 1
        nxt = drain(file_, max_requests=1)
        assert nxt[0][0] == 0x10000

    def test_clear(self, file_):
        file_.allocate_bits(0x10000, pattern(1))
        file_.clear()
        assert len(file_._registers) == 0
        assert drain(file_) == []
