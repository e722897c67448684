"""Tests for repro.workloads.base helpers (AddressSpace, FootprintLibrary, framework)."""

import random

import pytest

from repro.trace.record import CODE_SYSTEM, CODE_WRITE, ExecutionMode
from repro.workloads.base import (
    AddressSpace,
    FootprintLibrary,
    SyntheticWorkload,
    WorkloadMetadata,
)


class TestAddressSpace:
    def test_allocations_do_not_overlap(self):
        space = AddressSpace(base=0x1000_0000, alignment=8192)
        a = space.allocate("a", 10_000)
        b = space.allocate("b", 4096)
        assert b >= a + space.size("a")
        assert space.contains("a", a)
        assert not space.contains("a", b)

    def test_alignment(self):
        space = AddressSpace(alignment=8192)
        space.allocate("a", 100)
        b = space.allocate("b", 100)
        assert b % 8192 == 0
        assert space.size("a") == 8192

    def test_duplicate_name_rejected(self):
        space = AddressSpace()
        space.allocate("a", 100)
        with pytest.raises(ValueError):
            space.allocate("a", 100)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            AddressSpace().allocate("a", 0)

    def test_invalid_alignment(self):
        with pytest.raises(ValueError):
            AddressSpace(alignment=100)


class TestFootprintLibrary:
    def test_define_and_offsets(self):
        library = FootprintLibrary(blocks_per_region=32)
        library.define("header", [1, 0, 1])
        assert library.offsets("header") == [0, 1]
        assert "header" in library.names()

    def test_out_of_range_offsets_rejected(self):
        library = FootprintLibrary(blocks_per_region=8)
        with pytest.raises(ValueError):
            library.define("bad", [8])

    def test_sample_without_jitter_is_exact(self):
        library = FootprintLibrary(blocks_per_region=32)
        library.define("f", [0, 3, 7])
        assert library.sample("f", random.Random(0)) == [0, 3, 7]

    def test_sample_drop_jitter(self):
        library = FootprintLibrary(blocks_per_region=32)
        library.define("f", list(range(16)))
        sampled = library.sample("f", random.Random(1), drop_probability=0.5)
        assert 0 < len(sampled) <= 16
        assert all(offset in range(16) for offset in sampled)

    def test_sample_add_jitter(self):
        library = FootprintLibrary(blocks_per_region=32)
        library.define("f", [0])
        sampled = library.sample("f", random.Random(2), add_probability=0.5)
        assert 0 in sampled
        assert len(sampled) > 1

    def test_sample_never_empty(self):
        library = FootprintLibrary(blocks_per_region=32)
        library.define("f", [4])
        sampled = library.sample("f", random.Random(3), drop_probability=1.0)
        assert sampled == [4]


class _TinyWorkload(SyntheticWorkload):
    """Minimal workload used to exercise the framework."""

    metadata = WorkloadMetadata(name="tiny", category="Scientific")

    def lane_batches(self, cpu, rng):
        access, _, _, take = self.lane_writer(rng)
        block = 0
        while True:
            access(0x400, 0x1000 + block * 64)
            access(0x404, 0x200000 + block * 64, CODE_WRITE | CODE_SYSTEM)
            block += 1
            yield take()


class TestSyntheticWorkloadFramework:
    def test_validation(self):
        with pytest.raises(ValueError):
            _TinyWorkload(num_cpus=0)
        with pytest.raises(ValueError):
            _TinyWorkload(accesses_per_cpu=0)
        with pytest.raises(ValueError):
            _TinyWorkload(instructions_per_access=0)

    def test_volume_and_modes(self):
        workload = _TinyWorkload(num_cpus=2, accesses_per_cpu=100, seed=1)
        records = list(workload)
        assert len(records) == 200
        assert any(record.mode is ExecutionMode.SYSTEM for record in records)
        assert any(record.is_write for record in records)

    def test_instruction_counter_advances(self):
        workload = _TinyWorkload(num_cpus=1, accesses_per_cpu=50, seed=1)
        records = list(workload)
        assert records[-1].instruction_count > records[0].instruction_count

    def test_access_draws_one_instruction_step(self):
        """The spelled-out draw is ``1 + int(expovariate(1 / instructions_per_access))``."""
        workload = _TinyWorkload(num_cpus=1, accesses_per_cpu=10, instructions_per_access=4.0)
        access, _, _, take = workload.lane_writer(random.Random(0))
        for _ in range(50):
            access(1, 2)
        reference = random.Random(0)
        expected, total = [], 0
        for _ in range(50):
            total += max(1, int(reference.expovariate(1.0 / 4.0)) + 1)
            expected.append(total)
        pcs, addresses, codes, counts = take()
        assert (pcs, addresses, codes) == ([1] * 50, [2] * 50, [0] * 50)
        assert counts == expected
        # The counter carries over into the next batch.
        access(1, 2)
        assert take()[3][0] > total

    def test_footprint_accesses_loop_pc(self):
        workload = _TinyWorkload(num_cpus=1, accesses_per_cpu=10)
        _, footprint, _, take = workload.lane_writer(random.Random(0))
        footprint(0x1000, [0, 1, 2], 0x500)
        struct_pcs, struct_addresses, _, _ = take()
        footprint(0x1000, [0, 1, 2], 0x600, loop_pc=True)
        loop_pcs, loop_addresses, _, _ = take()
        assert struct_pcs == [0x500, 0x504, 0x508]
        assert loop_pcs == [0x600] * 3
        assert struct_addresses == loop_addresses == [0x1000, 0x1040, 0x1080]

    def test_footprint_write_probability_and_mode(self):
        workload = _TinyWorkload(num_cpus=1, accesses_per_cpu=10)
        _, footprint, _, take = workload.lane_writer(random.Random(0))
        footprint(0, range(200), 0x500, write_probability=1.0, system=True)
        footprint(0, range(200), 0x500, write_probability=0.0)
        footprint(0, range(200), 0x500, write_probability=0.5)
        codes = take()[2]
        assert codes[:200] == [CODE_WRITE | CODE_SYSTEM] * 200
        assert codes[200:400] == [0] * 200
        assert 40 < sum(codes[400:]) < 160

    def test_take_interleaves_closed_operations(self):
        """Each operation keeps its own order; instruction counts stay monotonic."""
        workload = _TinyWorkload(num_cpus=1, accesses_per_cpu=10)
        _, footprint, end_operation, take = workload.lane_writer(random.Random(4))
        for operation in range(3):
            footprint(operation << 20, range(10), 0x500 + (operation << 8), loop_pc=True)
            end_operation()
        pcs, addresses, _, counts = take()
        assert counts == sorted(counts) and len(set(counts)) == 30
        for operation in range(3):
            own = [a for pc, a in zip(pcs, addresses) if pc == 0x500 + (operation << 8)]
            assert own == [(operation << 20) + 64 * block for block in range(10)]
        assert pcs != sorted(pcs)  # the group really is interleaved
        # Without closed operations the next batch comes out in written order.
        footprint(0, range(10), 0x500)
        assert take()[0] == [0x500 + 4 * position for position in range(10)]

    def test_cpu_schedule_matches_the_record_at_a_time_interleaver(self):
        """The burst scheduler against the loop it replaced, stdlib draws and all:
        a burst asking for *more* than a CPU has left retires it, a burst asking
        for exactly what is left does not (the next pick of that CPU does)."""

        def reference_schedule(seed, num_cpus, per_cpu, mean_burst):
            scheduler = random.Random(seed * 7919 + 13)
            streams = [iter(range(per_cpu)) for _ in range(num_cpus)]
            active = list(range(num_cpus))
            schedule = []
            while active:
                slot = scheduler.choice(active)
                burst = 1 + int(scheduler.expovariate(1.0 / mean_burst))
                for _ in range(burst):
                    try:
                        next(streams[slot])
                    except StopIteration:
                        active.remove(slot)
                        break
                    schedule.append(slot)
            return schedule

        for seed in range(25):
            workload = _TinyWorkload(num_cpus=3, accesses_per_cpu=7, seed=seed, interleave_burst=2)
            assert [record.cpu for record in workload] == reference_schedule(seed, 3, 7, 2)

    def test_total_accesses_property(self):
        workload = _TinyWorkload(num_cpus=3, accesses_per_cpu=7)
        assert workload.total_accesses == 21
