"""Tests for the single-pass streaming behaviour of the simulation engine.

Streamed (non-materialized) runs are byte-identical to materialized runs,
``limit`` does finite work on endless generators, and the off-chip-coverage
side table stays O(cache state).
"""

import itertools

import pytest

from repro.prefetch import NextLinePrefetcher
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine, run_simulation
from repro.trace.record import AccessType, MemoryAccess
from repro.workloads import make_workload


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


def write(pc, address, cpu=0, icount=0):
    return MemoryAccess(
        pc=pc, address=address, cpu=cpu, access_type=AccessType.WRITE, instruction_count=icount
    )


def mixed_trace(count, stride_blocks=3, cpus=2):
    """A deterministic read/write trace striding across both CPUs."""
    records = []
    for i in range(count):
        cpu = i % cpus
        address = 0x100000 + (i * stride_blocks % 4096) * 64
        maker = write if i % 7 == 0 else read
        records.append(maker(0x400 + 4 * (i % 13), address, cpu=cpu, icount=i * 3))
    return records


def result_fingerprint(result):
    """Every counter a run produces, for exact equivalence checks."""
    fingerprint = dict(result.as_dict())
    fingerprint.update(
        reads=result.reads,
        writes=result.writes,
        system_accesses=result.system_accesses,
        l1_read_covered=result.l1_read_covered,
        l1_write_covered=result.l1_write_covered,
        l1_overpredictions=result.l1_overpredictions,
        l2_read_hits=result.l2_read_hits,
        offchip_write_misses=result.offchip_write_misses,
        l2_read_covered=result.l2_read_covered,
        l2_overpredictions=result.l2_overpredictions,
        invalidations=result.invalidations,
        prefetches_issued=result.prefetches_issued,
    )
    return fingerprint


class TestStreamedEquivalence:
    @pytest.mark.parametrize("prefetcher", [None, lambda cpu: NextLinePrefetcher(degree=2)])
    def test_streamed_matches_materialized(self, prefetcher):
        # A workload generates lanes lazily and sizes the warmup from its
        # length hint; the list of its records is the materialized twin.
        streamed = make_workload("oltp-db2", num_cpus=2, accesses_per_cpu=3000, seed=3)
        config = tiny_config(warmup_fraction=0.3)

        mat_result = run_simulation(list(streamed), config, prefetcher, name="mat")
        gen_result = run_simulation(streamed, config, prefetcher, name="mat")

        assert result_fingerprint(mat_result) == result_fingerprint(gen_result)

    def test_streamed_matches_materialized_with_explicit_warmup(self):
        records = mixed_trace(4000)
        config = tiny_config()
        mat_result = run_simulation(records, config, warmup_accesses=1234)
        gen_result = run_simulation(iter(records), config, warmup_accesses=1234)

        assert result_fingerprint(mat_result) == result_fingerprint(gen_result)

    def test_chunk_size_does_not_change_results(self):
        records = mixed_trace(5000)
        config = tiny_config(warmup_fraction=0.5)
        fingerprints = []
        for chunk_size in (1, 7, 4096, 100000):
            engine = SimulationEngine(config, lambda cpu: NextLinePrefetcher(degree=1))
            result = engine.run(records, chunk_size=chunk_size)
            fingerprints.append(result_fingerprint(result))
        assert all(fp == fingerprints[0] for fp in fingerprints)


class TestLazyConsumption:
    def test_limit_does_finite_work_on_endless_trace(self):
        def endless():
            for i in itertools.count():
                yield read(0x400, 0x100000 + (i % 512) * 64, cpu=i % 2, icount=i)

        result = run_simulation(endless(), tiny_config(), limit=500)
        assert result.accesses == 500

    def test_limit_with_warmup_fraction_uses_limit_as_length(self):
        def endless():
            for i in itertools.count():
                yield read(0x400, 0x100000 + (i % 512) * 64, cpu=i % 2, icount=i)

        result = run_simulation(endless(), tiny_config(warmup_fraction=0.3), limit=1000)
        assert result.accesses == 700

    def test_hintless_stream_with_warmup_fraction_raises(self):
        trace = iter(mixed_trace(100))
        with pytest.raises(ValueError, match="length hint"):
            run_simulation(trace, tiny_config(warmup_fraction=0.3))

    def test_config_warmup_accesses_covers_hintless_stream(self):
        trace = iter(mixed_trace(1000))
        config = tiny_config(warmup_fraction=0.3, warmup_accesses=250)
        result = run_simulation(trace, config)
        assert result.accesses == 750

    def test_overestimated_length_hint_yields_clean_empty_result(self):
        # The stream ends inside the warmup phase: the result must be an
        # empty measurement phase, not a snapshot of warmup tracking state.
        class Overestimated:
            total_accesses = 1000  # the length hint of a synthetic workload

            def __iter__(self):
                return iter(mixed_trace(100))

        trace = Overestimated()
        config = tiny_config(warmup_fraction=0.3)
        engine = SimulationEngine(config, lambda cpu: NextLinePrefetcher(degree=2))
        result = engine.run(trace)
        assert result.accesses == 0
        assert result.l2_overpredictions == 0
        assert result.l1_overpredictions == 0

    def test_workload_stream_has_length_hint(self):
        workload = make_workload("oltp-db2", num_cpus=2, accesses_per_cpu=1000, seed=3)
        config = tiny_config(warmup_fraction=0.5)
        result = run_simulation(workload, config)
        assert result.accesses == workload.total_accesses // 2


class TestBoundedSideTable:
    def test_offchip_tracking_is_bounded_by_cache_state(self):
        # Stream far more distinct blocks than the caches hold; with a
        # prefetcher overpredicting aggressively the old implementation's
        # side table grew with the trace, the new one stays O(cache state).
        config = tiny_config()
        engine = SimulationEngine(config, lambda cpu: NextLinePrefetcher(degree=4))
        records = [
            read(0x400, 0x100000 + i * 128, cpu=i % 2, icount=i) for i in range(20000)
        ]
        result = engine.run(records)

        l2_blocks = config.l2_capacity // config.block_size
        l1_blocks = config.num_cpus * (config.l1_capacity // config.block_size)
        assert len(engine._offchip_prefetched_unused) <= l2_blocks + l1_blocks
        # Overpredictions are still fully accounted (tracked + retired).
        assert result.l2_overpredictions > 0

    def test_snapshot_counts_tracked_plus_wasted(self):
        config = tiny_config()
        engine = SimulationEngine(config, lambda cpu: NextLinePrefetcher(degree=4))
        engine.run([read(0x400, 0x100000 + i * 128, icount=i) for i in range(5000)])
        assert engine.result.l2_overpredictions == (
            len(engine._offchip_prefetched_unused) + engine._offchip_prefetched_wasted
        )
