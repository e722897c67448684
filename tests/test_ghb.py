"""Tests for repro.prefetch.ghb (Global History Buffer PC/DC)."""

import pytest

from repro.coherence.multiprocessor import AccessOutcomeRecord
from repro.memory.cache import AccessOutcome, AccessResult
from repro.memory.hierarchy import MemoryLevel
from repro.prefetch.ghb import GHBConfig, GlobalHistoryBuffer
from repro.trace.record import MemoryAccess


def miss(pc, address):
    record = MemoryAccess(pc=pc, address=address)
    result = AccessResult(outcome=AccessOutcome.MISS, block_addr=address & ~63)
    return record, AccessOutcomeRecord(record=record, level=MemoryLevel.MEMORY, l1_result=result)


def hit(pc, address):
    record = MemoryAccess(pc=pc, address=address)
    result = AccessResult(outcome=AccessOutcome.HIT, block_addr=address & ~63)
    return record, AccessOutcomeRecord(record=record, level=MemoryLevel.L1, l1_result=result)


class TestGHBConfig:
    def test_defaults(self):
        config = GHBConfig()
        assert config.buffer_entries == 256
        assert config.index_entries == 256

    def test_invalid(self):
        with pytest.raises(ValueError):
            GHBConfig(buffer_entries=0)
        with pytest.raises(ValueError):
            GHBConfig(degree=0)


class TestDeltaCorrelation:
    def test_constant_stride_predicted(self):
        ghb = GlobalHistoryBuffer(GHBConfig(degree=2))
        pc = 0x400
        responses = []
        for i in range(6):
            responses.append(ghb.on_access(*miss(pc, i * 64)))
        # After a few strided misses the delta pair (1, 1) recurs and the
        # prefetcher issues the next blocks in sequence.
        final = responses[-1]
        assert final.prefetches
        addresses = [request.address for request in final.prefetches]
        assert addresses == [6 * 64, 7 * 64]

    def test_prefetches_target_l2_only(self):
        ghb = GlobalHistoryBuffer()
        for i in range(6):
            response = ghb.on_access(*miss(0x400, i * 64))
        assert all(not request.target_l1 for request in response.prefetches)

    def test_repeating_delta_sequence_predicted(self):
        # Deltas alternate +1, +3 blocks; PC/DC should reproduce the cycle.
        ghb = GlobalHistoryBuffer(GHBConfig(degree=2))
        address = 0
        last_response = None
        for i in range(10):
            delta = 64 if i % 2 == 0 else 192
            address += delta
            last_response = ghb.on_access(*miss(0x400, address))
        assert last_response.prefetches

    def test_irregular_stream_not_predicted(self):
        ghb = GlobalHistoryBuffer()
        addresses = [0, 13 * 64, 5 * 64, 90 * 64, 2 * 64, 77 * 64, 41 * 64]
        for address in addresses:
            response = ghb.on_access(*miss(0x400, address))
        assert not response.prefetches

    def test_streams_of_different_pcs_are_independent(self):
        ghb = GlobalHistoryBuffer(GHBConfig(degree=1))
        # PC 0x400 strides by one block; PC 0x800 jumps randomly in between.
        jumps = [99, 7, 340, 11, 250, 63, 512, 3]
        response = None
        for i in range(8):
            ghb.on_access(*miss(0x800, jumps[i] * 64 * 7))
            response = ghb.on_access(*miss(0x400, 0x100000 + i * 64))
        assert response.prefetches
        assert response.prefetches[0].address == 0x100000 + 8 * 64

    def test_l1_hits_do_not_train_by_default(self):
        ghb = GlobalHistoryBuffer()
        for i in range(6):
            response = ghb.on_access(*hit(0x400, i * 64))
        assert not response.prefetches

    def test_train_on_all_accesses_option(self):
        ghb = GlobalHistoryBuffer(GHBConfig(train_on_l1_misses_only=False))
        for i in range(6):
            response = ghb.on_access(*hit(0x400, i * 64))
        assert response.prefetches


class TestBufferManagement:
    def test_old_entries_expire_from_fifo(self):
        ghb = GlobalHistoryBuffer(GHBConfig(buffer_entries=4))
        # Train a stride with PC A, then flood the buffer with PC B misses.
        for i in range(4):
            ghb.on_access(*miss(0x400, i * 64))
        for i in range(8):
            ghb.on_access(*miss(0x800, 0x100000 + i * 4096))
        # PC A's chain is gone; its next miss cannot find enough history.
        response = ghb.on_access(*miss(0x400, 4 * 64))
        assert not response.prefetches

    def test_index_table_bounded(self):
        ghb = GlobalHistoryBuffer(GHBConfig(buffer_entries=8, index_entries=4))
        for pc in range(20):
            ghb.on_access(*miss(0x400 + pc * 4, pc * 640))
        assert len(ghb._index) <= 4
