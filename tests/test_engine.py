"""Tests for repro.simulation.engine."""

import pytest

from repro.core import SMSConfig, SpatialMemoryStreaming
from repro.prefetch import NextLinePrefetcher
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine, run_simulation
from repro.trace.record import AccessType, MemoryAccess


def tiny_config(**overrides):
    defaults = dict(
        num_cpus=2,
        l1_capacity=4 * 1024,
        l1_associativity=2,
        l2_capacity=32 * 1024,
        l2_associativity=4,
        warmup_fraction=0.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def read(pc, address, cpu=0, icount=0):
    return MemoryAccess(pc=pc, address=address, cpu=cpu, instruction_count=icount)


def write(pc, address, cpu=0):
    return MemoryAccess(pc=pc, address=address, cpu=cpu, access_type=AccessType.WRITE)


def sequential_trace(blocks, cpu=0, base=0x100000, pc=0x400, repeats=1):
    records = []
    icount = 0
    for _ in range(repeats):
        for i in range(blocks):
            icount += 3
            records.append(read(pc, base + i * 64, cpu=cpu, icount=icount))
    return records


class TestBaselineCounters:
    def test_cold_misses_counted(self):
        result = run_simulation(sequential_trace(20), tiny_config())
        assert result.l1_read_misses == 20
        assert result.offchip_read_misses == 20
        assert result.accesses == 20

    def test_rereferenced_blocks_hit(self):
        trace = sequential_trace(10) + sequential_trace(10)
        result = run_simulation(trace, tiny_config())
        assert result.l1_read_misses == 10

    def test_instruction_counting(self):
        trace = sequential_trace(10, cpu=0) + sequential_trace(10, cpu=1, base=0x900000)
        result = run_simulation(trace, tiny_config())
        assert result.instructions == 60

    def test_write_misses_counted(self):
        trace = [write(0x400, i * 64) for i in range(5)]
        result = run_simulation(trace, tiny_config())
        assert result.l1_write_misses == 5
        assert result.offchip_write_misses == 5

    def test_invalidations_counted(self):
        trace = [read(0x400, 0x1000, cpu=0), read(0x400, 0x1000, cpu=1), write(0x400, 0x1000, cpu=0)]
        result = run_simulation(trace, tiny_config())
        assert result.invalidations == 1

    def test_coverage_zero_without_prefetcher(self):
        result = run_simulation(sequential_trace(20), tiny_config())
        assert result.l1_coverage() == 0.0
        assert result.l2_coverage() == 0.0


class TestPrefetchAccounting:
    def test_nextline_covers_sequential_misses(self):
        # Degree-1 next-line prefetching on misses only covers every other
        # block of a sequential sweep (a covered access is not a miss and so
        # does not trigger the next prefetch).
        trace = sequential_trace(64)
        result = run_simulation(
            trace, tiny_config(), lambda cpu: NextLinePrefetcher(degree=1), name="nl"
        )
        assert result.l1_read_covered == 32
        assert result.l1_coverage() == pytest.approx(0.5)
        # Off-chip coverage tracks blocks the prefetcher brought on-chip.
        assert result.l2_coverage() == pytest.approx(0.5)

    def test_nextline_degree_two_covers_more(self):
        trace = sequential_trace(64)
        result = run_simulation(
            trace, tiny_config(), lambda cpu: NextLinePrefetcher(degree=2), name="nl"
        )
        assert result.l1_coverage() > 0.6

    def test_sms_covers_repeating_pattern(self):
        # The same sparse footprint {0, 4, 9} is visited in many regions by
        # the same code; SMS should cover the non-trigger blocks eventually.
        records = []
        icount = 0
        for region in range(40):
            base = 0x100000 + region * 2048
            for position, offset in enumerate((0, 4, 9)):
                icount += 2
                records.append(read(0x400 + 4 * position, base + offset * 64, icount=icount))
        result = run_simulation(
            records,
            tiny_config(),
            lambda cpu: SpatialMemoryStreaming(SMSConfig()),
            name="sms",
        )
        assert result.l1_read_covered > 0
        assert result.l1_coverage() > 0.2
        assert result.prefetches_issued > 0

    def test_overpredictions_counted(self):
        # Next-line with a large degree on a strided (every other block)
        # stream prefetches many blocks that are never used.
        records = [read(0x400, 0x100000 + i * 128) for i in range(200)]
        result = run_simulation(
            records, tiny_config(), lambda cpu: NextLinePrefetcher(degree=4), name="nl"
        )
        assert result.l1_overpredictions > 0
        assert result.l2_overpredictions > 0

    def test_prefetch_counters(self):
        trace = sequential_trace(32)
        result = run_simulation(
            trace, tiny_config(), lambda cpu: NextLinePrefetcher(degree=2), name="nl"
        )
        assert result.prefetches_issued > 0
        assert result.prefetch_fills_l1 == result.prefetches_issued
        assert result.traffic.total_bytes > 0


class TestWarmup:
    def test_warmup_excluded_from_counters(self):
        trace = sequential_trace(100)
        full = run_simulation(trace, tiny_config(warmup_fraction=0.0))
        measured = run_simulation(trace, tiny_config(warmup_fraction=0.5))
        assert measured.accesses == 50
        assert measured.l1_read_misses < full.l1_read_misses

    def test_limit_truncates_trace(self):
        trace = sequential_trace(100)
        result = run_simulation(trace, tiny_config(), limit=10)
        assert result.accesses == 10


class TestPerCpuPrefetchers:
    def test_one_prefetcher_per_cpu(self):
        engine = SimulationEngine(tiny_config(num_cpus=2), lambda cpu: NextLinePrefetcher())
        assert len(engine.prefetchers) == 2
        assert engine.prefetchers[0] is not engine.prefetchers[1]

    def test_factory_receives_cpu_index(self):
        seen = []

        def factory(cpu):
            seen.append(cpu)
            return NextLinePrefetcher()

        SimulationEngine(tiny_config(num_cpus=2), factory)
        assert seen == [0, 1]


class TestMemoryOutlivesEngine:
    def test_evictions_after_the_engine_is_gone_are_not_forwarded(self):
        """The cache eviction listeners hold their engine weakly; a memory
        system kept past it must keep working once sets start evicting."""
        config = tiny_config(num_cpus=1, l1_capacity=1024, l2_capacity=2048, l2_associativity=2)
        memory = SimulationEngine(config).memory  # the engine is freed here
        for record in sequential_trace(64):  # 4 kB through a 2 kB L2
            memory.access(record)
        assert memory.l1(0).stats.evictions > 0 and memory.l2.stats.evictions > 0


class TestResultFormat:
    def test_as_dict_key_order_and_values_of_one_seeded_run(self):
        """``as_dict()`` is what goldens, ``sim_digest`` and reports read: its
        keys, their order and the values of one seeded run are pinned here
        independently of how ``SimulationResult`` is defined."""
        from repro.workloads.suite import make_workload

        workload = make_workload("oltp-db2", num_cpus=2, accesses_per_cpu=1500, seed=5)
        engine = SimulationEngine(
            SimulationConfig.small(num_cpus=2),
            lambda cpu: SpatialMemoryStreaming(SMSConfig()),
            name="sms",
        )
        assert list(engine.run(workload).as_dict().items()) == [
            ("name", "sms"),
            ("accesses", 2100),
            ("instructions", 7325),
            ("l1_read_misses", 856),
            ("l1_coverage", 0.474524248004911),
            ("l1_overprediction_rate", 0.12216083486801718),
            ("offchip_read_misses", 664),
            ("l2_coverage", 0.4755134281200632),
            ("l2_overprediction_rate", 0.17772511848341233),
            ("l1_read_mpki", 116.86006825938567),
            ("offchip_read_mpki", 90.64846416382252),
            ("false_sharing_misses", 0),
        ]
