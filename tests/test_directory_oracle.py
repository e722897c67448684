"""Differential test: ``Directory`` against an independent MSI model.

The oracle below shares no code with ``src/``.  It is the textbook directory
written the slow, obvious way — one ``{state, sharers set, owner}`` record
per block, allocated on first touch and never dropped, the state a plain
letter — so that it stays a meaningful check of the real directory's packed
words (one int per cached block, no entry once the last sharer left).

Both models run the same hypothesis-generated read / write / evict sequence
and are compared after every step: the coherence actions the request
returned, the four request counters, and — for every address of the pool —
``sharers()``, the ``lookup()`` snapshot (block, state, sharers, owner, and
that it passes its own ``validate()``) and ``tracked_blocks``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.directory import Directory

POOL_UNITS = 6


class NaiveBlock:
    def __init__(self):
        self.state = "I"
        self.sharers = set()
        self.owner = None


class NaiveDirectory:
    """MSI by the book: Invalid, Shared (>= 1 reader), Modified (1 owner)."""

    def __init__(self, unit):
        self.unit = unit
        self.blocks = {}
        self.counters = {"reads": 0, "writes": 0, "invalidations": 0, "downgrades": 0}

    def block_of(self, address):
        return address // self.unit * self.unit

    def record(self, address):
        return self.blocks.setdefault(self.block_of(address), NaiveBlock())

    def read(self, cpu, address):
        self.counters["reads"] += 1
        record = self.record(address)
        downgrade = set()
        shared_elsewhere = False
        if record.state == "M":
            if record.owner != cpu:
                # The remote owner writes back and keeps a read-only copy.
                downgrade = {record.owner}
                self.counters["downgrades"] += 1
                record.state = "S"
                record.owner = None
                record.sharers.add(cpu)
        else:
            shared_elsewhere = any(other != cpu for other in record.sharers)
            record.state = "S"
            record.sharers.add(cpu)
        return {
            "invalidate": set(),
            "downgrade": downgrade,
            "remote_modified": bool(downgrade),
            "shared_elsewhere": shared_elsewhere,
        }

    def write(self, cpu, address):
        self.counters["writes"] += 1
        record = self.record(address)
        victims = {other for other in record.sharers if other != cpu}
        self.counters["invalidations"] += len(victims)
        remote_modified = record.state == "M" and bool(victims)
        record.state = "M"
        record.owner = cpu
        record.sharers = {cpu}
        return {
            "invalidate": victims,
            "downgrade": set(),
            "remote_modified": remote_modified,
            "shared_elsewhere": bool(victims),
        }

    def evict(self, cpu, address):
        record = self.blocks.get(self.block_of(address))
        if record is None or cpu not in record.sharers:
            return  # a replacement by a CPU the directory does not list
        record.sharers.remove(cpu)
        if record.owner == cpu:
            record.owner = None
        if not record.sharers:
            record.state = "I"

    def cached_blocks(self):
        return sum(1 for record in self.blocks.values() if record.state != "I")


def _actions(actions):
    return {
        "invalidate": set(actions.invalidate_cpus),
        "downgrade": set(actions.downgrade_cpus),
        "remote_modified": actions.was_remote_modified,
        "shared_elsewhere": actions.was_shared_elsewhere,
    }


def _operations(num_cpus, unit):
    """Op sequences over a six-block pool, unaligned so masking is exercised."""
    cpu = st.integers(min_value=0, max_value=num_cpus - 1)
    address = st.integers(min_value=0, max_value=POOL_UNITS * unit - 1)
    return st.lists(
        st.tuples(st.sampled_from(["read", "write", "evict"]), cpu, address),
        max_size=150,
    )


def _compare_state(directory, oracle, unit, context):
    for index in range(POOL_UNITS):
        block = index * unit
        address = block + index  # anywhere inside the unit
        record = oracle.blocks.get(block, NaiveBlock())
        assert set(directory.sharers(address)) == record.sharers, context
        entry = directory.lookup(address)
        assert entry.block_addr == block, context
        assert entry.state.value == record.state, context
        assert entry.sharers == record.sharers, context
        assert entry.owner == record.owner, context
        assert entry.num_sharers == len(record.sharers), context
        entry.validate()
    assert directory.tracked_blocks == oracle.cached_blocks(), context
    assert directory.read_requests == oracle.counters["reads"], context
    assert directory.write_requests == oracle.counters["writes"], context
    assert directory.invalidations_sent == oracle.counters["invalidations"], context
    assert directory.downgrades_sent == oracle.counters["downgrades"], context


@pytest.mark.parametrize("unit", [64, 128])
@pytest.mark.parametrize("num_cpus", [3, 16])
def test_directory_matches_naive_model(num_cpus, unit):
    @settings(max_examples=80, deadline=None)
    @given(ops=_operations(num_cpus, unit))
    def check(ops):
        directory = Directory(coherence_unit=unit)
        oracle = NaiveDirectory(unit)
        for step, (kind, cpu, address) in enumerate(ops):
            context = (step, kind, cpu, address)
            if kind == "evict":
                assert directory.evict(cpu, address) is None, context
                oracle.evict(cpu, address)
            else:
                expected = getattr(oracle, kind)(cpu, address)
                actual = _actions(getattr(directory, kind)(cpu, address))
                assert actual == expected, context
            _compare_state(directory, oracle, unit, context)

    check()


def test_lookup_is_a_snapshot():
    """Mutating what ``lookup()`` returned never reaches the directory."""
    directory = Directory()
    directory.read(0, 0x1000)
    entry = directory.lookup(0x1000)
    entry.sharers.add(5)
    entry.owner = 5
    assert directory.sharers(0x1000) == {0}
    assert directory.lookup(0x1000).owner is None
    assert directory.lookup(0x2000).sharers == set()
    assert directory.tracked_blocks == 1
