"""Property-based tests for the simulation engine's accounting invariants.

Whatever trace and prefetcher are used, the engine's counters must satisfy
conservation laws: accesses split exactly into reads and writes, misses never
exceed accesses, covered misses never exceed prefetch fills, and coverage /
overprediction fractions are well-formed.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import SMSConfig, SpatialMemoryStreaming
from repro.prefetch import NextLinePrefetcher
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import run_simulation
from repro.trace.record import AccessType, MemoryAccess


def _config():
    return SimulationConfig(
        num_cpus=2,
        l1_capacity=2 * 1024,
        l1_associativity=2,
        l2_capacity=16 * 1024,
        l2_associativity=4,
        warmup_fraction=0.0,
    )


def _trace_from_seed(seed: int, length: int):
    """A random but structured trace: regional walks with occasional writes."""
    rng = random.Random(seed)
    records = []
    icount = 0
    for _ in range(length):
        cpu = rng.randrange(2)
        region = rng.randrange(12) * 2048
        offset = rng.randrange(32)
        icount += rng.randint(1, 5)
        records.append(
            MemoryAccess(
                pc=0x400 + 4 * rng.randrange(6),
                address=0x100000 + region + offset * 64,
                cpu=cpu,
                access_type=AccessType.WRITE if rng.random() < 0.2 else AccessType.READ,
                instruction_count=icount,
            )
        )
    return records


_PREFETCHERS = {
    "none": None,
    "nextline": lambda cpu: NextLinePrefetcher(degree=2),
    "sms": lambda cpu: SpatialMemoryStreaming(SMSConfig(pht_entries=1024, pht_associativity=4)),
}


class TestEngineConservation:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        length=st.integers(min_value=10, max_value=400),
        prefetcher=st.sampled_from(sorted(_PREFETCHERS)),
    )
    def test_counter_invariants(self, seed, length, prefetcher):
        trace = _trace_from_seed(seed, length)
        result = run_simulation(trace, _config(), _PREFETCHERS[prefetcher], name=prefetcher)

        assert result.accesses == length
        assert result.reads + result.writes == result.accesses
        assert result.l1_read_misses + result.l1_read_covered <= result.reads
        assert result.offchip_read_misses <= result.l1_read_misses
        assert result.l2_read_hits + result.offchip_read_misses == result.l1_read_misses
        assert result.l2_read_covered <= result.prefetches_issued + 1
        assert 0.0 <= result.l1_coverage() <= 1.0
        assert 0.0 <= result.l2_coverage() <= 1.0
        assert result.l1_overpredictions >= 0
        assert result.l2_overpredictions >= 0
        assert result.instructions >= 1

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_no_prefetcher_means_no_coverage(self, seed):
        trace = _trace_from_seed(seed, 200)
        result = run_simulation(trace, _config(), None, name="base")
        assert result.l1_read_covered == 0
        assert result.l2_read_covered == 0
        assert result.prefetches_issued == 0
        assert result.l1_overpredictions == 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_prefetching_never_increases_demand_miss_plus_covered(self, seed):
        """Covered + uncovered misses with SMS stays close to the baseline miss
        count (prefetching can perturb replacement slightly, but not create
        misses out of thin air)."""
        trace = _trace_from_seed(seed, 300)
        base = run_simulation(trace, _config(), None, name="base")
        sms = run_simulation(trace, _config(), _PREFETCHERS["sms"], name="sms")
        assert sms.l1_read_misses + sms.l1_read_covered <= int(base.l1_read_misses * 1.3) + 5
