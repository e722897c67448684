"""Tests for repro.prefetch.base."""

import pytest

from repro.analysis.density import DensityHistogram
from repro.coherence.multiprocessor import AccessOutcomeRecord
from repro.coherence.protocol import CoherenceActions, DirectoryEntry
from repro.core.agt import TrainerResponse
from repro.memory.cache import AccessOutcome, AccessResult
from repro.memory.hierarchy import MemoryLevel
from repro.memory.sectored import SectorState
from repro.prefetch.base import (
    EMPTY_RESPONSE,
    NullPrefetcher,
    PrefetcherResponse,
    PrefetchRequest,
)
from repro.simulation.breakdown import ExecutionBreakdown
from repro.simulation.sampling import SampledMeasurement
from repro.trace.record import MemoryAccess
from repro.trace.stats import TraceStatistics


def is_empty(response):
    return not response.prefetches and not response.forced_evictions


def simple_outcome(address=0x1000, miss=True):
    record = MemoryAccess(pc=0x400, address=address)
    result = AccessResult(
        outcome=AccessOutcome.MISS if miss else AccessOutcome.HIT, block_addr=address & ~63
    )
    return record, AccessOutcomeRecord(record=record, level=MemoryLevel.MEMORY, l1_result=result)


class TestPrefetchRequest:
    def test_default_targets_l1(self):
        request = PrefetchRequest(address=0x1000)
        assert request.target_l1

    def test_l2_only(self):
        assert not PrefetchRequest(address=0x1000, target_l1=False).target_l1


class TestPrefetcherResponse:
    def test_empty(self):
        assert is_empty(PrefetcherResponse())

    def test_shared_empty_response_is_never_handed_out_as_a_default(self):
        response = PrefetcherResponse()
        response.prefetches.append(PrefetchRequest(0x1000))
        response.forced_evictions.append(0x2000)
        assert is_empty(PrefetcherResponse())
        assert is_empty(EMPTY_RESPONSE)
        assert EMPTY_RESPONSE.prefetches == [] and EMPTY_RESPONSE.forced_evictions == []

    @pytest.mark.parametrize(
        "build, containers",
        [
            (PrefetcherResponse, ("prefetches", "forced_evictions")),
            (TrainerResponse, ("completed", "forced_evictions")),
            (lambda: DirectoryEntry(0x40), ("sharers",)),
            (CoherenceActions, ("invalidate_cpus",)),
            (lambda: SectorState(region=0, num_blocks=4), ("valid_bits",)),
            (ExecutionBreakdown, ("cycles",)),
            (lambda: DensityHistogram("L1", 2048), ("misses_by_bin",)),
            (SampledMeasurement, ("values",)),
            (TraceStatistics, ("accesses_per_cpu",)),
        ],
    )
    def test_container_defaults_are_fresh_per_instance(self, build, containers):
        first, second = build(), build()
        for name in containers:
            assert getattr(first, name) == getattr(second, name)
            assert getattr(first, name) is not getattr(second, name), name


class TestNullPrefetcher:
    def test_never_prefetches(self):
        prefetcher = NullPrefetcher()
        record, outcome = simple_outcome()
        assert is_empty(prefetcher.on_access(record, outcome))
        assert is_empty(prefetcher.on_eviction(0x1000, invalidated=True))
        assert is_empty(prefetcher.finalize())
