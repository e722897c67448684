"""Tests for repro.core.pht (Pattern History Table)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pattern import SpatialPattern
from repro.core.pht import PatternHistoryTable, stable_hash


def pattern(*offsets, width=32):
    return SpatialPattern.from_offsets(width, offsets)


class TestStableHash:
    def test_deterministic(self):
        key = ("pc+off", 0x400, 5)
        assert stable_hash(key) == stable_hash(("pc+off", 0x400, 5))

    def test_distinguishes_keys(self):
        assert stable_hash(("pc", 1)) != stable_hash(("pc", 2))

    def test_non_tuple_keys(self):
        assert isinstance(stable_hash(42), int)

    #: Hash values produced by the original repr()-based FNV-1a mix.  The
    #: fast integer/tuple path must reproduce them exactly: PHT set selection
    #: is `stable_hash(key) % num_sets`, so any change to these values would
    #: silently re-place every pattern and perturb all figure results.
    PINNED = {
        42: 0x7ee7e07b4b19223,
        0: 0xaf63ad4c86019caf,
        -7: 0x7d01107b497db5d,
        123456789: 0x6d5573923c6cdfc,
        "pc+off": 0x1045b7e0f273a57e,
        ("pc+off", 0x400, 5): 0x9a94092f564bfbec,
        ("pc", 1): 0xe1dc5a6d36441fd7,
        ("pc", 2): 0xe1dc5b6d3644218a,
        (0x7FFF0000, 31): 0x20e729ee08db8132,
        ("rot", -3, "x"): 0xad0bfa3374cdcba4,
        (): 0xCBF29CE484222325,
        ("a",): 0xA8DE4417BF44D6A6,
        ("pc+off", 1048576, 0): 0xBD1777F87ADB1E81,
    }

    def test_pinned_values_reproduced(self):
        for key, expected in self.PINNED.items():
            assert stable_hash(key) == expected, key

    def test_equal_but_differently_typed_keys_hash_by_encoding(self):
        # The memo keys on equality but the encoding on repr; keys outside
        # the int/str domain must bypass the cache so results never depend
        # on call order: ("pc", 1) and ("pc", True) compare equal yet hash
        # differently, in either order.
        assert stable_hash(("pc", 1)) == self.PINNED[("pc", 1)]
        assert stable_hash(("pc", True)) != stable_hash(("pc", 1))
        assert stable_hash((1.0,)) != stable_hash((1,))


class TestConstruction:
    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            PatternHistoryTable(num_blocks=32, num_entries=0)

    def test_entries_must_be_multiple_of_associativity(self):
        with pytest.raises(ValueError):
            PatternHistoryTable(num_blocks=32, num_entries=100, associativity=16)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            PatternHistoryTable(num_blocks=0)


class TestBoundedTable:
    def test_store_and_lookup(self):
        pht = PatternHistoryTable(num_blocks=32, num_entries=64, associativity=4)
        pht.store(("pc+off", 1, 0), pattern(0, 5))
        assert pht.lookup(("pc+off", 1, 0)) == pattern(0, 5)
        assert pht.lookup(("pc+off", 2, 0)) is None

    def test_store_replaces_existing(self):
        pht = PatternHistoryTable(num_blocks=32, num_entries=64, associativity=4)
        key = ("pc+off", 1, 0)
        pht.store(key, pattern(0))
        pht.store(key, pattern(1, 2))
        assert pht.lookup(key) == pattern(1, 2)

    def test_wrong_width_rejected(self):
        pht = PatternHistoryTable(num_blocks=32)
        with pytest.raises(ValueError):
            pht.store("k", pattern(0, width=16))

    def test_set_capacity_respected(self):
        pht = PatternHistoryTable(num_blocks=32, num_entries=8, associativity=2)
        # Insert many keys; no set may hold more than 2 entries.
        for i in range(50):
            pht.store(("pc", i), pattern(i % 32))
        assert pht.occupancy <= 8
        assert pht.replacements > 0

    def test_lru_within_set(self):
        # A single-set table makes the LRU order easy to check.
        pht = PatternHistoryTable(num_blocks=32, num_entries=2, associativity=2)
        pht.store("a", pattern(0))
        pht.store("b", pattern(1))
        pht.lookup("a")
        pht.store("c", pattern(2))  # should evict "b"
        assert pht.probe("a") is not None
        assert pht.probe("b") is None
        assert pht.probe("c") is not None

    def test_invalidate(self):
        pht = PatternHistoryTable(num_blocks=32)
        pht.store("k", pattern(0))
        assert pht.invalidate("k") == pattern(0)
        assert pht.probe("k") is None
        assert pht.invalidate("k") is None

    def test_statistics(self):
        pht = PatternHistoryTable(num_blocks=32)
        pht.store("k", pattern(0))
        pht.lookup("k")
        pht.lookup("missing")
        assert pht.lookups == 2
        assert pht.hits == 1
        assert pht.stores == 1


class TestUnboundedTable:
    def test_never_replaces(self):
        pht = PatternHistoryTable(num_blocks=32, num_entries=None)
        for i in range(1000):
            pht.store(("pc", i), pattern(i % 32))
        assert pht.occupancy == 1000
        assert pht.replacements == 0
        assert pht.is_unbounded

    def test_lookup(self):
        pht = PatternHistoryTable(num_blocks=32, num_entries=None)
        pht.store("k", pattern(7))
        assert pht.lookup("k") == pattern(7)


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200),
    )
    def test_occupancy_bounded(self, keys):
        pht = PatternHistoryTable(num_blocks=32, num_entries=32, associativity=4)
        for key in keys:
            pht.store(("pc", key), pattern(key % 32))
        assert pht.occupancy <= 32

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=100),
    )
    def test_most_recent_store_always_found(self, keys):
        pht = PatternHistoryTable(num_blocks=32, num_entries=64, associativity=4)
        for key in keys:
            pht.store(("pc", key), pattern(key % 32))
            assert pht.probe(("pc", key)) is not None


class NaivePHT:
    """Textbook set-associative table sharing no code with ``src/``.

    One Python list of ``[key, bits]`` per set, least recently used first;
    ``set = stable_hash(key) % num_sets`` (the hash values themselves are
    pinned above).  ``num_sets=None`` is the unbounded table: one set, no
    capacity.
    """

    def __init__(self, num_sets, ways):
        self.sets = [[] for _ in range(num_sets or 1)]
        self.ways = ways if num_sets else None
        self.lookups = self.hits = self.stores = self.replacements = 0

    def _find(self, key):
        entries = self.sets[stable_hash(key) % len(self.sets)]
        for position, entry in enumerate(entries):
            if entry[0] == key:
                return entries, position
        return entries, None

    @property
    def occupancy(self):
        return sum(len(entries) for entries in self.sets)

    def lookup(self, key):
        self.lookups += 1
        entries, position = self._find(key)
        if position is None:
            return None
        self.hits += 1
        entries.append(entries.pop(position))
        return entries[-1][1]

    def probe(self, key):
        entries, position = self._find(key)
        return None if position is None else entries[position][1]

    def store(self, key, bits):
        self.stores += 1
        entries, position = self._find(key)
        if position is not None:
            entries.pop(position)
        elif self.ways is not None and len(entries) == self.ways:
            entries.pop(0)
            self.replacements += 1
        entries.append([key, bits])

    def invalidate(self, key):
        entries, position = self._find(key)
        return None if position is None else entries.pop(position)[1]


#: op = (kind, key-id, pattern bits).  Twelve keys against one or four 2-way
#: sets force set conflicts, LRU evictions and invalidate-of-present cases.
_KEYS = [("pc+off", 0x400 + 4 * (key_id % 5), key_id) for key_id in range(12)]
_OP = st.tuples(
    st.sampled_from(["store", "store_bits", "lookup", "lookup_bits", "probe", "invalidate"]),
    st.sampled_from(_KEYS),
    st.integers(min_value=0, max_value=2**16 - 1),
)


class TestAgainstNaiveModel:
    @pytest.mark.parametrize("num_sets", [1, 4, None], ids=["one-set", "four-sets", "unbounded"])
    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(_OP, min_size=1, max_size=120))
    def test_every_step_matches(self, num_sets, ops):
        table = PatternHistoryTable(
            num_blocks=16,
            num_entries=2 * num_sets if num_sets else None,
            associativity=2,
        )
        model = NaivePHT(num_sets=num_sets, ways=2)
        for op, key, bits in ops:
            if op == "store":
                actual = table.store(key, SpatialPattern(num_blocks=16, bits=bits))
                expected = model.store(key, bits)
            elif op == "store_bits":
                actual = table.store_bits(key, bits)
                expected = model.store(key, bits)
            elif op == "lookup_bits":
                actual = table.lookup_bits(key)
                expected = model.lookup(key)
            else:
                boxed = getattr(table, op)(key)
                actual = None if boxed is None else boxed.bits
                expected = getattr(model, op)(key)
            assert actual == expected, op
            assert (table.lookups, table.hits, table.stores, table.replacements) == (
                model.lookups, model.hits, model.stores, model.replacements
            ), op
            assert table.occupancy == model.occupancy, op
            # probe() touches neither recency nor counters, so the resident
            # set can be compared after every step: a wrong victim shows up
            # at the eviction, not only if a later op happens to ask for it.
            for resident in _KEYS:
                boxed = table.probe(resident)
                assert (None if boxed is None else boxed.bits) == model.probe(resident), op
        assert sorted(bits for entries in table._sets for bits in entries.values()) == sorted(
            entry[1] for entries in model.sets for entry in entries
        )
