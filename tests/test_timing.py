"""Tests for repro.simulation.timing and repro.simulation.breakdown."""

import pytest

from repro.simulation.breakdown import BreakdownCategory, ExecutionBreakdown
from repro.simulation.config import MachineConfig
from repro.simulation.engine import SimulationResult
from repro.simulation.timing import TimingModel
from repro.workloads.base import WorkloadMetadata


def result_with(offchip_reads=100, l2_hits=50, writes_offchip=10, instructions=10_000,
                system_accesses=100, accesses=1000, write_covered=0):
    result = SimulationResult(name="test", num_cpus=1)
    result.instructions = instructions
    result.accesses = accesses
    result.system_accesses = system_accesses
    result.offchip_read_misses = offchip_reads
    result.l2_read_hits = l2_hits
    result.offchip_write_misses = writes_offchip
    result.l1_write_covered = write_covered
    return result


OLTP_META = WorkloadMetadata(name="oltp", category="OLTP", mlp_hint=1.3, store_intensity=0.1)


def evaluate(model, result, workload=None):
    """The baseline half of a pair that changes nothing: one result's timing."""
    return model.evaluate_pair(result, result, workload)[0]


class TestExecutionBreakdown:
    def test_totals_and_cpi(self):
        breakdown = ExecutionBreakdown(instructions=1000)
        breakdown.add(BreakdownCategory.USER_BUSY, 400)
        breakdown.add(BreakdownCategory.OFFCHIP_READ, 600)
        assert breakdown.total_cycles == 1000
        assert breakdown.cpi == 1.0
        assert breakdown.ipc == 1.0

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            ExecutionBreakdown().add(BreakdownCategory.OTHER, -1)

    def test_speedup_over(self):
        base = ExecutionBreakdown(instructions=1000)
        base.add(BreakdownCategory.OFFCHIP_READ, 2000)
        fast = ExecutionBreakdown(instructions=1000)
        fast.add(BreakdownCategory.OFFCHIP_READ, 1000)
        assert fast.speedup_over(base) == pytest.approx(2.0)

    def test_normalized_to_reference(self):
        base = ExecutionBreakdown(instructions=1000)
        base.add(BreakdownCategory.USER_BUSY, 500)
        base.add(BreakdownCategory.OFFCHIP_READ, 500)
        fast = ExecutionBreakdown(instructions=1000)
        fast.add(BreakdownCategory.USER_BUSY, 500)
        fast.add(BreakdownCategory.OFFCHIP_READ, 100)
        normalized = fast.normalized(reference=base)
        assert sum(normalized.values()) == pytest.approx(0.6)
        assert base.normalized()[BreakdownCategory.USER_BUSY] == pytest.approx(0.5)


class TestTimingModel:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TimingModel(onchip_overlap=0)

    def test_busy_time_split_by_mode(self):
        model = TimingModel()
        timing = evaluate(model, result_with(system_accesses=500, accesses=1000), OLTP_META)
        breakdown = timing.breakdown
        user = breakdown.get(BreakdownCategory.USER_BUSY)
        system = breakdown.get(BreakdownCategory.SYSTEM_BUSY)
        assert user == pytest.approx(system)

    def test_offchip_component_scales_with_misses(self):
        model = TimingModel()
        few = evaluate(model, result_with(offchip_reads=10), OLTP_META)
        many = evaluate(model, result_with(offchip_reads=1000), OLTP_META)
        assert many.breakdown.get(BreakdownCategory.OFFCHIP_READ) > few.breakdown.get(
            BreakdownCategory.OFFCHIP_READ
        )

    def test_higher_mlp_hides_latency(self):
        model = TimingModel()
        low_mlp = WorkloadMetadata(name="a", category="x", mlp_hint=1.0)
        high_mlp = WorkloadMetadata(name="b", category="x", mlp_hint=4.0)
        slow = evaluate(model, result_with(), low_mlp)
        fast = evaluate(model, result_with(), high_mlp)
        assert fast.total_cycles < slow.total_cycles

    def test_store_intensity_drives_store_buffer_stalls(self):
        model = TimingModel()
        light = WorkloadMetadata(name="a", category="x", store_intensity=0.05)
        heavy = WorkloadMetadata(name="b", category="x", store_intensity=0.6)
        a = evaluate(model, result_with(writes_offchip=500), light)
        b = evaluate(model, result_with(writes_offchip=500), heavy)
        assert b.breakdown.get(BreakdownCategory.STORE_BUFFER) > a.breakdown.get(
            BreakdownCategory.STORE_BUFFER
        )

    def test_upgrade_penalty_for_streamed_blocks_that_are_written(self):
        model = TimingModel()
        heavy = WorkloadMetadata(name="qry1", category="DSS", store_intensity=0.6)
        without = evaluate(model, result_with(write_covered=0), heavy)
        with_upgrades = evaluate(model, result_with(write_covered=500), heavy)
        assert with_upgrades.breakdown.get(BreakdownCategory.STORE_BUFFER) > without.breakdown.get(
            BreakdownCategory.STORE_BUFFER
        )

    def test_speedup_when_offchip_misses_removed(self):
        model = TimingModel()
        base = result_with(offchip_reads=1000)
        improved = result_with(offchip_reads=200)
        speedup = model.speedup(base, improved, OLTP_META)
        assert speedup > 1.2

    def test_no_speedup_when_nothing_changes(self):
        model = TimingModel()
        base = result_with()
        speedup = model.speedup(base, result_with(), OLTP_META)
        assert speedup == pytest.approx(1.0)

    def test_uses_result_workload_metadata_when_not_given(self):
        model = TimingModel()
        result = result_with()
        result.workload = OLTP_META
        timing = evaluate(model, result)
        assert timing.total_cycles > 0

    def test_machine_latency_matters(self):
        fast_memory = TimingModel(machine=MachineConfig(memory_latency_ns=10.0))
        slow_memory = TimingModel(machine=MachineConfig(memory_latency_ns=200.0))
        result = result_with(offchip_reads=500)
        assert evaluate(slow_memory, result, OLTP_META).total_cycles > evaluate(fast_memory, 
            result, OLTP_META
        ).total_cycles
