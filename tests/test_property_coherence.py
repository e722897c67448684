"""Property-based / fuzz tests for the coherence substrate.

Random multiprocessor access streams are driven through the directory and the
multiprocessor memory system, and global invariants are checked after every
step: directory entries always satisfy the MSI invariants, writers are always
the sole L1 holder recorded by the directory, and cache residency never
exceeds capacity.
"""

from hypothesis import given, settings, strategies as st

from repro.coherence.directory import Directory
from repro.coherence.multiprocessor import MultiprocessorMemorySystem
from repro.coherence.protocol import CoherenceState
from repro.trace.record import AccessType, MemoryAccess

# A step is (cpu, block index, is_write).
_STEP = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=24),
    st.booleans(),
)


class TestDirectoryFuzz:
    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(_STEP, min_size=1, max_size=120))
    def test_entries_always_satisfy_protocol_invariants(self, steps):
        directory = Directory(coherence_unit=64)
        for cpu, block, is_write in steps:
            address = block * 64
            if is_write:
                directory.write(cpu, address)
            else:
                directory.read(cpu, address)
            entry = directory.lookup(address)
            entry.validate()
            if is_write:
                assert entry.state is CoherenceState.MODIFIED
                assert entry.owner == cpu
                assert entry.sharers == {cpu}

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(_STEP, min_size=1, max_size=120))
    def test_write_invalidates_every_other_sharer(self, steps):
        directory = Directory(coherence_unit=64)
        sharers = {}
        for cpu, block, is_write in steps:
            address = block * 64
            if is_write:
                actions = directory.write(cpu, address)
                expected = sharers.get(block, set()) - {cpu}
                assert actions.invalidate_cpus == expected
                sharers[block] = {cpu}
            else:
                directory.read(cpu, address)
                sharers.setdefault(block, set()).add(cpu)


class TestMultiprocessorFuzz:
    @settings(max_examples=30, deadline=None)
    @given(steps=st.lists(_STEP, min_size=1, max_size=150))
    def test_system_invariants(self, steps):
        system = MultiprocessorMemorySystem(
            num_cpus=3,
            block_size=64,
            l1_capacity=1024,
            l1_associativity=2,
            l2_capacity=8192,
            l2_associativity=4,
        )
        for cpu, block, is_write in steps:
            record = MemoryAccess(
                pc=0x400,
                address=block * 64,
                cpu=cpu,
                access_type=AccessType.WRITE if is_write else AccessType.READ,
            )
            system.access(record)
            # The issuing CPU always holds the block immediately afterwards.
            assert system.l1(cpu).contains(record.address)
            if is_write:
                # No other CPU may retain a copy of a freshly-written block.
                for other in range(system.num_cpus):
                    if other != cpu:
                        assert not system.l1(other).contains(record.address)
            # Cache capacity is never exceeded.
            for cpu_ in range(system.num_cpus):
                assert system.l1(cpu_).occupancy <= 16
            assert system.l2.occupancy <= 128

    @settings(max_examples=30, deadline=None)
    @given(steps=st.lists(_STEP, min_size=1, max_size=100))
    def test_accesses_conserved(self, steps):
        system = MultiprocessorMemorySystem(
            num_cpus=3,
            block_size=64,
            l1_capacity=1024,
            l1_associativity=2,
            l2_capacity=8192,
            l2_associativity=4,
        )
        for cpu, block, is_write in steps:
            # Every access is exactly one of a hit on a resident block or a
            # miss that installs it.
            resident = system.l1(cpu).contains(block * 64)
            outcome = system.access(
                MemoryAccess(
                    pc=0x400,
                    address=block * 64,
                    cpu=cpu,
                    access_type=AccessType.WRITE if is_write else AccessType.READ,
                )
            )
            assert outcome.l1_miss is not resident
            assert system.l1(cpu).contains(block * 64)
