"""Integration tests: workload -> simulation engine -> prefetchers -> timing model.

These use small traces so they stay fast, but exercise the same pipeline the
benchmark harness uses, including the headline qualitative result: SMS covers
a substantial fraction of misses on a commercial workload and beats GHB where
accesses are interleaved.
"""

import pytest

from repro.core import SMSConfig, SpatialMemoryStreaming
from repro.experiments import common
from repro.prefetch import GHBConfig, GlobalHistoryBuffer
from repro.simulation.breakdown import BreakdownCategory
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import run_simulation
from repro.simulation.timing import TimingModel
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def oltp_trace():
    workload = make_workload("oltp-db2", num_cpus=2, accesses_per_cpu=6000, seed=11)
    return list(workload), workload.metadata


@pytest.fixture(scope="module")
def config():
    return SimulationConfig.small(num_cpus=2)


@pytest.fixture(scope="module")
def oltp_results(oltp_trace, config):
    trace, metadata = oltp_trace
    base = run_simulation(trace, config, None, name="base")
    sms = run_simulation(
        trace, config, lambda cpu: SpatialMemoryStreaming(SMSConfig()), name="sms"
    )
    ghb = run_simulation(
        trace, config, lambda cpu: GlobalHistoryBuffer(GHBConfig()), name="ghb"
    )
    base.workload = sms.workload = ghb.workload = metadata
    return base, sms, ghb


class TestEndToEndCoverage:
    def test_sms_covers_substantial_fraction_of_l1_misses(self, oltp_results):
        _, sms, _ = oltp_results
        assert sms.l1_coverage() > 0.3

    def test_sms_covers_offchip_misses(self, oltp_results):
        _, sms, _ = oltp_results
        assert sms.l2_coverage() > 0.3

    def test_sms_reduces_misses_relative_to_baseline(self, oltp_results):
        base, sms, _ = oltp_results
        assert sms.l1_read_misses < base.l1_read_misses
        assert sms.offchip_read_misses < base.offchip_read_misses

    def test_sms_beats_ghb_on_interleaved_commercial_workload(self, oltp_results):
        _, sms, ghb = oltp_results
        assert sms.l2_coverage() > ghb.l2_coverage() + 0.2

    def test_overpredictions_bounded(self, oltp_results):
        _, sms, _ = oltp_results
        assert sms.l1_overprediction_rate() < 1.0


class TestEndToEndTiming:
    def test_sms_speedup_positive(self, oltp_results, oltp_trace):
        base, sms, _ = oltp_results
        _, metadata = oltp_trace
        model = TimingModel()
        speedup = model.speedup(base, sms, metadata)
        assert speedup > 1.0

    def test_speedup_comes_from_offchip_stall_reduction(self, oltp_results, oltp_trace):
        base, sms, _ = oltp_results
        _, metadata = oltp_trace
        model = TimingModel()
        base_timing, sms_timing = model.evaluate_pair(base, sms, metadata)
        base_breakdown, sms_breakdown = base_timing.breakdown, sms_timing.breakdown
        assert sms_breakdown.get(BreakdownCategory.OFFCHIP_READ) < base_breakdown.get(
            BreakdownCategory.OFFCHIP_READ
        )
        # Busy time per instruction is unchanged by prefetching.
        base_busy = base_breakdown.get(BreakdownCategory.USER_BUSY) / base_breakdown.instructions
        sms_busy = sms_breakdown.get(BreakdownCategory.USER_BUSY) / sms_breakdown.instructions
        assert sms_busy == pytest.approx(base_busy, rel=0.05)


class TestScientificStreaming:
    def test_sparse_high_offchip_coverage(self):
        workload = make_workload("sparse", num_cpus=2, accesses_per_cpu=15000, seed=5)
        trace = list(workload)
        config = SimulationConfig.small(num_cpus=2)
        sms = run_simulation(
            trace, config, lambda cpu: SpatialMemoryStreaming(SMSConfig()), name="sms"
        )
        assert sms.l2_coverage() > 0.7


class TestExperimentRunnersSmoke:
    """The per-figure runners are exercised end-to-end by the benchmarks; here
    we only check that a tiny invocation produces well-formed tables."""

    def test_fig06_runner_smoke(self):
        from repro.experiments import fig06_indexing

        table = fig06_indexing.run(categories=["OLTP"], schemes=["pc+offset"], scale=0.15, num_cpus=2)
        assert table.rows
        row = table.rows[0]
        assert row[0] == "OLTP"
        assert 0.0 <= row[2] <= 1.0

    def test_fig11_runner_smoke(self):
        from repro.experiments import fig11_ghb

        table = fig11_ghb.run(applications=["web-apache"], configurations=["sms"], scale=0.15, num_cpus=2)
        assert len(table.rows) == 1
        assert table.rows[0][1] == "sms"
