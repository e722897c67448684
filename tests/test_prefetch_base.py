"""Tests for repro.prefetch.base."""

import pytest

from repro.analysis.density import DensityHistogram
from repro.coherence.multiprocessor import AccessOutcomeRecord
from repro.coherence.protocol import CoherenceActions, DirectoryEntry
from repro.core.agt import AGTEvent
from repro.core.training import TrainerResponse
from repro.interconnect.traffic import BandwidthAccountant
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
from repro.simulation.config import MachineConfig
from repro.simulation.sampling import SampledMeasurement
from repro.trace.record import MemoryAccess
from repro.trace.stats import TraceStatistics


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
        assert not request.target_l2_only

    def test_l2_only(self):
        assert PrefetchRequest(address=0x1000, target_l1=False).target_l2_only


class TestPrefetcherResponse:
    def test_empty(self):
        assert PrefetcherResponse().is_empty

    def test_shared_empty_response_is_never_handed_out_as_a_default(self):
        response = PrefetcherResponse()
        response.prefetches.append(PrefetchRequest(0x1000))
        response.forced_evictions.append(0x2000)
        assert PrefetcherResponse().is_empty
        assert EMPTY_RESPONSE.is_empty
        assert EMPTY_RESPONSE.prefetches == [] and EMPTY_RESPONSE.forced_evictions == []

    @pytest.mark.parametrize(
        "build, containers",
        [
            (PrefetcherResponse, ("prefetches", "forced_evictions")),
            (TrainerResponse, ("completed", "forced_evictions")),
            (AGTEvent, ("completed",)),
            (lambda: DirectoryEntry(0x40), ("sharers",)),
            (CoherenceActions, ("invalidate_cpus", "downgrade_cpus")),
            (lambda: SectorState(region=0, num_blocks=4), ("valid_bits",)),
            (ExecutionBreakdown, ("cycles",)),
            (BandwidthAccountant, ("bytes_by_class",)),
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

    def test_machine_configs_share_no_torus_by_default(self):
        assert MachineConfig().torus == MachineConfig().torus
        assert MachineConfig().torus is not MachineConfig().torus

    def test_merge(self):
        a = PrefetcherResponse(prefetches=[PrefetchRequest(0x1000)])
        b = PrefetcherResponse(forced_evictions=[0x2000])
        merged = a.merge(b)
        assert len(merged.prefetches) == 1
        assert merged.forced_evictions == [0x2000]
        assert not merged.is_empty


class TestNullPrefetcher:
    def test_never_prefetches(self):
        prefetcher = NullPrefetcher()
        record, outcome = simple_outcome()
        assert prefetcher.on_access(record, outcome).is_empty
        assert prefetcher.on_eviction(0x1000, invalidated=True).is_empty
        assert prefetcher.finalize().is_empty

    def test_reset_stats(self):
        prefetcher = NullPrefetcher()
        prefetcher.stats.issued = 5
        prefetcher.reset_stats()
        assert prefetcher.stats.issued == 0
