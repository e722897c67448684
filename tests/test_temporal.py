"""Tests for repro.prefetch.temporal (Markov pair-correlation baseline)."""

import pytest

from repro.coherence.multiprocessor import AccessOutcomeRecord
from repro.memory.cache import AccessOutcome, AccessResult
from repro.memory.hierarchy import MemoryLevel
from repro.prefetch.temporal import TemporalCorrelationPrefetcher
from repro.trace.record import MemoryAccess


def miss(address, pc=0x400):
    record = MemoryAccess(pc=pc, address=address)
    result = AccessResult(outcome=AccessOutcome.MISS, block_addr=address & ~63)
    return record, AccessOutcomeRecord(record=record, level=MemoryLevel.MEMORY, l1_result=result)


def hit(address, pc=0x400):
    record = MemoryAccess(pc=pc, address=address)
    result = AccessResult(outcome=AccessOutcome.HIT, block_addr=address & ~63)
    return record, AccessOutcomeRecord(record=record, level=MemoryLevel.L1, l1_result=result)


A, B, C, D = 0x10000, 0x20000, 0x30000, 0x40000


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TemporalCorrelationPrefetcher(table_entries=0)
        with pytest.raises(ValueError):
            TemporalCorrelationPrefetcher(degree=0)
        with pytest.raises(ValueError):
            TemporalCorrelationPrefetcher(successors_per_entry=0)


class TestCorrelation:
    def test_repeated_pair_predicted(self):
        prefetcher = TemporalCorrelationPrefetcher(degree=1)
        # First pass records A -> B; second visit to A predicts B.
        prefetcher.on_access(*miss(A))
        prefetcher.on_access(*miss(B))
        response = prefetcher.on_access(*miss(A))
        addresses = [request.address for request in response.prefetches]
        assert addresses == [B]

    def test_chain_followed_up_to_degree(self):
        prefetcher = TemporalCorrelationPrefetcher(degree=3)
        for address in (A, B, C, D):
            prefetcher.on_access(*miss(address))
        response = prefetcher.on_access(*miss(A))
        addresses = [request.address for request in response.prefetches]
        assert addresses[:3] == [B, C, D]

    def test_prefetches_target_l2_only(self):
        prefetcher = TemporalCorrelationPrefetcher()
        prefetcher.on_access(*miss(A))
        prefetcher.on_access(*miss(B))
        response = prefetcher.on_access(*miss(A))
        assert all(not request.target_l1 for request in response.prefetches)

    def test_no_prediction_for_unseen_address(self):
        prefetcher = TemporalCorrelationPrefetcher()
        assert not prefetcher.on_access(*miss(A)).prefetches

    def test_hits_do_not_train(self):
        prefetcher = TemporalCorrelationPrefetcher()
        prefetcher.on_access(*miss(A))
        prefetcher.on_access(*hit(B))
        prefetcher.on_access(*miss(C))
        response = prefetcher.on_access(*miss(A))
        addresses = [request.address for request in response.prefetches]
        assert B not in addresses

    def test_successor_list_updates_to_most_recent(self):
        prefetcher = TemporalCorrelationPrefetcher(degree=1, successors_per_entry=1)
        prefetcher.on_access(*miss(A))
        prefetcher.on_access(*miss(B))
        prefetcher.on_access(*miss(A))
        prefetcher.on_access(*miss(C))
        response = prefetcher.on_access(*miss(A))
        assert [request.address for request in response.prefetches] == [C]

    def test_interleaved_streams_break_correlation(self):
        """The weakness the paper points out: interleaving destroys pair correlation."""
        prefetcher = TemporalCorrelationPrefetcher(degree=1, successors_per_entry=1)
        # Stream A->B and stream C->D, interleaved differently on each pass.
        for sequence in ((A, C, B, D), (A, D, B, C), (C, A, D, B)):
            for address in sequence:
                prefetcher.on_access(*miss(address))
        response = prefetcher.on_access(*miss(A))
        addresses = [request.address for request in response.prefetches]
        assert addresses != [B]

    def test_storage_scales_with_addresses(self):
        prefetcher = TemporalCorrelationPrefetcher(table_entries=64)
        for i in range(200):
            prefetcher.on_access(*miss(0x100000 + i * 64))
        assert len(prefetcher._table) <= 64
