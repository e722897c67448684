"""The directory mirrors the L1s, and is bounded by them.

After any prefix of a run the directory's sharers of a block are exactly the
CPUs whose L1 holds it, and the directory tracks no other block — so its
table is O(L1 contents), whatever the footprint of the trace.  Checked on
both engine paths, with and without SMS streaming into the L1, at the end of
a run and at a chunk boundary in the middle of one.
"""

import pytest

from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.trace.record import AccessType, MemoryAccess
from repro.workloads import make_workload

from tests.test_engine_goldens import PREFETCHER_FACTORIES

#: No prefetcher, and paper-practical SMS streaming into the L1.
PREFETCHERS = {name: PREFETCHER_FACTORIES[name]() for name in ("none", "sms")}


def resident_blocks(cache):
    return [block for cache_set in cache._sets for block in cache_set]


def assert_directory_mirrors_l1s(engine):
    memory = engine.memory
    holders = {}
    for cpu, l1 in enumerate(memory._l1s):
        for block in resident_blocks(l1):
            holders.setdefault(block, set()).add(cpu)
    directory = memory.directory
    for block, cpus in holders.items():
        assert directory.sharers(block) == cpus, hex(block)
        directory.lookup(block).validate()
    # Every L1-resident block is tracked with the right sharers; an equal
    # count means the directory tracks nothing else.
    assert len(directory._entries) == len(holders)
    return len(holders)


@pytest.mark.parametrize("lanes", [True, False], ids=["lanes", "reference"])
@pytest.mark.parametrize("prefetcher", sorted(PREFETCHERS))
@pytest.mark.parametrize("app", ["oltp-db2", "ocean"])
def test_directory_sharers_are_the_l1_holders(app, prefetcher, lanes):
    workload = make_workload(app, num_cpus=4, accesses_per_cpu=4000, seed=11)
    engine = SimulationEngine(SimulationConfig.small(num_cpus=4), PREFETCHERS[prefetcher])
    result = engine.run(workload, lanes=lanes)
    assert result.engine_path == ("lanes" if lanes else "reference")
    tracked = assert_directory_mirrors_l1s(engine)
    assert 0 < tracked <= 4 * 1024  # four 64 kB L1s of 64-byte lines


@pytest.mark.parametrize("app", ["oltp-db2", "ocean"])
def test_both_engine_paths_leave_the_same_directory(app):
    """Block by block the same state and owner: the same words."""
    directories = []
    for lanes in (True, False):
        workload = make_workload(app, num_cpus=4, accesses_per_cpu=4000, seed=11)
        engine = SimulationEngine(SimulationConfig.small(num_cpus=4), PREFETCHERS["sms"])
        engine.run(workload, lanes=lanes)
        directories.append((engine.memory.directory, engine.memory._l1s))
    (fast, l1s), (reference, reference_l1s) = directories
    blocks = {block for l1 in l1s for block in resident_blocks(l1)}
    assert blocks == {block for l1 in reference_l1s for block in resident_blocks(l1)}
    for block in blocks:
        assert fast.lookup(block) == reference.lookup(block), hex(block)
    assert len(fast._entries) == len(reference._entries) == len(blocks)
    assert fast._entries == reference._entries


@pytest.mark.parametrize("lanes", [True, False], ids=["lanes", "reference"])
def test_directory_mirrors_l1s_at_a_chunk_boundary(lanes):
    chunk_size = 1000
    records = list(make_workload("oltp-db2", num_cpus=4, accesses_per_cpu=1500, seed=11))
    engine = SimulationEngine(SimulationConfig.small(num_cpus=4), PREFETCHERS["sms"])
    checked = []

    def checking_stream():
        # The engine pulls one chunk at a time, so asking for the first
        # record of a chunk means the previous chunk is fully simulated.
        for index, record in enumerate(records):
            if index and index % chunk_size == 0:
                checked.append(assert_directory_mirrors_l1s(engine))
            yield record

    engine.run(checking_stream(), warmup_accesses=0, chunk_size=chunk_size, lanes=lanes)
    assert len(checked) == len(records) // chunk_size - 1
    assert all(checked)


@pytest.mark.parametrize("lanes", [True, False], ids=["lanes", "reference"])
def test_directory_is_bounded_by_l1_capacity_on_a_streaming_trace(lanes):
    """A footprint 25x the L1s still leaves at most one word per L1 line."""
    config = SimulationConfig(num_cpus=2, l1_capacity=4 * 1024, l2_capacity=64 * 1024)
    l1_lines = 2 * (4 * 1024 // 64)
    trace = []
    for i in range(25 * l1_lines):
        cpu, block = i % 2, i // 2
        # Each CPU streams over its own region; every eighth block it takes
        # from the other CPU's region instead (so blocks are shared and
        # invalidated too), and every fifth access is a store.
        region = (cpu ^ (block % 8 == 0)) << 28
        kind = AccessType.WRITE if i % 5 == 0 else AccessType.READ
        trace.append(MemoryAccess(0x400 + block % 7 * 4, region + block * 64, kind, cpu,
                                  instruction_count=i))
    assert len({record.address // 64 for record in trace}) >= 10 * l1_lines
    engine = SimulationEngine(config, PREFETCHERS["sms"])
    engine.run(trace, warmup_accesses=0, lanes=lanes)
    assert assert_directory_mirrors_l1s(engine) <= l1_lines
