"""Differential test: ``Directory`` against an independent MSI model.

The oracle below shares no code with ``src/``.  It is the textbook directory
written the slow, obvious way — one ``{state, sharers set, owner}`` record
per block, allocated on first touch and never dropped, the state a plain
letter — so that it stays a meaningful check of the real directory's packed
words (one int per cached block, no entry once the last sharer left).

Both models run the same hypothesis-generated read / write / evict sequence
and are compared after every step: the coherence actions the request
returned and — for every address of the pool —
``sharers()``, the ``lookup()`` snapshot (block, state, sharers, owner, and
that it passes its own ``validate()``) and the number of tracked blocks.
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

    def block_of(self, address):
        return address // self.unit * self.unit

    def record(self, address):
        return self.blocks.setdefault(self.block_of(address), NaiveBlock())

    def read(self, cpu, address):
        record = self.record(address)
        if record.state == "M":
            if record.owner != cpu:
                # The remote owner writes back and keeps a read-only copy.
                record.state = "S"
                record.owner = None
                record.sharers.add(cpu)
        else:
            record.state = "S"
            record.sharers.add(cpu)
        return None  # a read invalidates nothing

    def write(self, cpu, address):
        record = self.record(address)
        victims = {other for other in record.sharers if other != cpu}
        record.state = "M"
        record.owner = cpu
        record.sharers = {cpu}
        return victims

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
    """A write's invalidations as a plain set; a read returns nothing."""
    return None if actions is None else set(actions.invalidate_cpus)


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
        assert len(entry.sharers) == len(record.sharers), context
        entry.validate()
    assert len(directory._entries) == oracle.cached_blocks(), context


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
    assert len(directory._entries) == 1
