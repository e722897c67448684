"""Differential test: ``SetAssociativeCache`` against an independent model.

The oracle below shares no code with ``src/``.  It is the textbook
set-associative cache (``block = addr // line; set = block % num_sets``)
written the slow, obvious way — a ``way -> line`` table per set, the lowest
free way on a fill, a logical clock per set, and the victim picked by
*searching* for the smallest last-use stamp — so that it stays a meaningful
check of the real cache's recency-ordered dict layout, where the victim is
simply the first key.

Both models run the same hypothesis-generated operation sequence and are
compared after every step: the access outcome, the evicted line returned and
the ones delivered to a listener (in order), every statistics counter, the
resident blocks and each resident line's flags.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import SetAssociativeCache

LINE = 64

STAT_NAMES = (
    "accesses", "reads", "writes", "hits", "misses", "read_misses", "write_misses",
    "prefetch_hits", "prefetch_fills", "prefetched_used", "prefetched_evicted_unused",
    "evictions", "invalidations", "dirty_evictions",
)


class NaiveLine:
    def __init__(self, block, dirty, prefetched, used):
        self.block = block
        self.dirty = dirty
        self.prefetched = prefetched
        self.used = used


class NaiveCache:
    """Way-table set-associative cache; every lookup is a linear search."""

    def __init__(self, num_sets, ways):
        self.num_sets = num_sets
        self.ways = ways
        self.tables = [{} for _ in range(num_sets)]  # way -> NaiveLine
        self.clocks = [0] * num_sets
        self.last_use = [{} for _ in range(num_sets)]  # way -> clock stamp
        self.stats = dict.fromkeys(STAT_NAMES, 0)
        self.delivered = []

    def _locate(self, address):
        block_number = address // LINE
        index = block_number % self.num_sets
        block = block_number * LINE
        for way, line in self.tables[index].items():
            if line.block == block:
                return index, block, way
        return index, block, None

    def _touch(self, index, way):
        self.clocks[index] += 1
        self.last_use[index][way] = self.clocks[index]

    def _remove(self, index, way, invalidated):
        line = self.tables[index].pop(way)
        del self.last_use[index][way]
        left = (line.block, line.dirty, line.prefetched, line.used, invalidated)
        self.delivered.append(left)
        return left

    def _install(self, index, block, dirty, prefetched):
        table = self.tables[index]
        evicted = None
        if len(table) == self.ways:
            way = min(table, key=lambda w: self.last_use[index][w])
            victim = table[way]
            self.stats["evictions"] += 1
            if victim.dirty:
                self.stats["dirty_evictions"] += 1
            if victim.prefetched and not victim.used:
                self.stats["prefetched_evicted_unused"] += 1
            evicted = self._remove(index, way, invalidated=False)
        else:
            way = min(w for w in range(self.ways) if w not in table)
        table[way] = NaiveLine(block, dirty, prefetched, used=not prefetched)
        self._touch(index, way)
        return evicted

    def access(self, address, is_write, allocate):
        index, block, way = self._locate(address)
        self.stats["accesses"] += 1
        self.stats["writes" if is_write else "reads"] += 1
        if way is not None:
            line = self.tables[index][way]
            outcome = "hit"
            if line.prefetched and not line.used:
                outcome = "prefetch_hit"
                self.stats["prefetch_hits"] += 1
                self.stats["prefetched_used"] += 1
            self.stats["hits"] += 1
            line.used = True
            line.dirty = line.dirty or is_write
            self._touch(index, way)
            return outcome, None
        self.stats["misses"] += 1
        self.stats["write_misses" if is_write else "read_misses"] += 1
        evicted = self._install(index, block, is_write, False) if allocate else None
        return "miss", evicted

    def fill(self, address, prefetched, dirty):
        index, block, way = self._locate(address)
        if way is not None:
            return None
        if prefetched:
            self.stats["prefetch_fills"] += 1
        return self._install(index, block, dirty, prefetched)

    def invalidate(self, address):
        index, _, way = self._locate(address)
        if way is None:
            return None
        line = self.tables[index][way]
        self.stats["invalidations"] += 1
        if line.prefetched and not line.used:
            self.stats["prefetched_evicted_unused"] += 1
        return self._remove(index, way, invalidated=True)

    def flush(self):
        # A flush notifies for every line but counts nothing.
        return [
            self._remove(index, way, invalidated=True)
            for index in range(self.num_sets)
            for way in list(self.tables[index])
        ]

    def resident(self):
        return {
            line.block: (line.dirty, line.prefetched, line.used)
            for table in self.tables
            for line in table.values()
        }


def _left(evicted):
    if evicted is None:
        return None
    return (
        evicted.block_addr, evicted.dirty, evicted.prefetched, evicted.used, evicted.invalidated
    )


class Subject:
    """The real cache behind the oracle's call shape and plain-tuple results."""

    def __init__(self, num_sets, ways):
        self.cache = SetAssociativeCache(
            capacity_bytes=num_sets * ways * LINE,
            block_size=LINE,
            associativity=ways,
        )
        self.delivered = []
        self.cache.add_eviction_listener(lambda line: self.delivered.append(_left(line)))

    def access(self, address, is_write, allocate):
        result = self.cache.access(address, is_write=is_write, allocate=allocate)
        assert result.block_addr == address // LINE * LINE
        return result.outcome.value, _left(result.evicted)

    def fill(self, address, prefetched, dirty):
        return _left(self.cache.fill(address, prefetched=prefetched, dirty=dirty))

    def invalidate(self, address):
        return _left(self.cache.invalidate(address))

    def flush(self):
        return [_left(line) for line in self.cache.flush()]


def _operations(num_sets, ways):
    """Op sequences over a pool three times the cache's capacity, with
    unaligned addresses so the block masking is exercised too."""
    address = st.builds(
        lambda block, offset: block * LINE + offset,
        st.integers(min_value=0, max_value=3 * num_sets * ways),
        st.integers(min_value=0, max_value=LINE - 1),
    )
    return st.lists(
        st.one_of(
            st.tuples(st.just("read"), address),
            st.tuples(st.just("write"), address),
            st.tuples(st.just("access_no_allocate"), address, st.booleans()),
            st.tuples(st.just("prefetch_fill"), address),
            st.tuples(st.just("demand_fill"), address, st.booleans()),
            st.tuples(st.just("fill_resident"), st.integers(min_value=0), st.booleans()),
            st.tuples(st.just("invalidate"), address),
            st.tuples(st.just("flush")),
        ),
        max_size=120,
    )


def _apply(model, op, resident_blocks):
    """Run one op on either model; return ``(outcome, evicted-or-list)``."""
    kind = op[0]
    if kind in ("read", "write"):
        return model.access(op[1], kind == "write", True)
    if kind == "access_no_allocate":
        return model.access(op[1], op[2], False)
    if kind == "prefetch_fill":
        return None, model.fill(op[1], True, False)
    if kind == "demand_fill":
        return None, model.fill(op[1], False, op[2])
    if kind == "fill_resident":
        if not resident_blocks:
            return None, None
        return None, model.fill(resident_blocks[op[1] % len(resident_blocks)], op[2], False)
    if kind == "invalidate":
        return None, model.invalidate(op[1])
    return None, model.flush()


@pytest.mark.parametrize("ways", [1, 2, 8], ids="{}-lru".format)  # the ids since PR 14
@pytest.mark.parametrize("num_sets", [1, 4])
def test_cache_matches_naive_model(num_sets, ways):
    @settings(max_examples=60, deadline=None)
    @given(ops=_operations(num_sets, ways))
    def check(ops):
        subject = Subject(num_sets, ways)
        cache = subject.cache
        oracle = NaiveCache(num_sets, ways)
        for step, op in enumerate(ops):
            context = (step, op)
            resident_blocks = sorted(oracle.resident())
            expected = _apply(oracle, op, resident_blocks)
            actual = _apply(subject, op, resident_blocks)
            if op[0] == "flush":
                # Which line of a set a flush reports first is unspecified
                # (table order here, recency order in the real cache): the
                # flushed lines compare as a collection and both delivery
                # logs restart.  Everything else is compared in order.
                assert sorted(actual[1]) == sorted(expected[1]), context
                assert sorted(subject.delivered) == sorted(oracle.delivered), context
                subject.delivered.clear()
                oracle.delivered.clear()
            else:
                assert actual == expected, context
                assert subject.delivered == oracle.delivered, context
            assert cache.stats.as_dict() == oracle.stats, context
            resident = oracle.resident()
            assert set(cache.resident_blocks()) == set(resident), context
            assert cache.occupancy == len(resident), context
            for block, flags in resident.items():
                line = cache.probe(block + LINE - 1)
                assert (line.dirty, line.prefetched, line.used) == flags, context
                assert line.block_addr == block, context
            if op[0] not in ("flush", "fill_resident"):
                is_resident = op[1] // LINE * LINE in resident
                assert cache.contains(op[1]) == is_resident, context
                assert (cache.probe(op[1]) is not None) == is_resident, context

    check()
