"""Differential test: ``SpatialMemoryStreaming`` against Section 3, stated naively.

The oracle below shares no code with ``src/``.  It is the paper's mechanism
(Somogyi et al., ISCA 2006, Sections 2.1 and 3) written the slow, obvious way
— every table a Python list kept least- to most-recently used, every pattern
a ``set`` of block offsets, every entry a small list of named parts — so that
it stays a meaningful check of the real predictor's packed words:

* a **trigger access** (first access to a region with no live generation)
  allocates in the filter table and looks the PHT up under the index key;
* the **second distinct block** of the region moves the generation to the
  accumulation table with both blocks recorded; a repeat access to the trigger
  block only refreshes the filter entry;
* a full filter table **drops** its LRU victim, a full accumulation table
  **trains** its LRU victim into the PHT;
* the eviction or invalidation of a block of the region **ends the
  generation**: an accumulated pattern is stored under the index key of its
  trigger access, a trigger-only generation is discarded;
* a trigger hit copies the pattern **minus the trigger block** into a
  prediction register, and registers are streamed **lowest offset first**,
  round-robin, all at once or ``max_requests_per_access`` blocks per access;
  an invalidation cancels the region's registers.

**Which removals end a generation** is the one place the paper reads two ways.
Section 3.1 searches the AGT with the evicted block's region tag, so *any*
block of the region ends the generation; Section 2.1 defines the end as the
removal of a block *accessed during the generation*.  With SMS streaming into
the L1 the two differ: an unused streamed block's eviction ends a live
generation under the first reading only.  ``SpatialMemoryStreaming``
implements the first (``ends_on="any-block"``, pinned below); the second is
kept as the named variant ``ends_on="accessed-block"`` so the difference stays
stated and testable.

Oracle and predictor run the same hypothesis-generated access / evict /
invalidate sequence over tiny tables (filter 2, accumulation 2, PHT 2 sets x
2 ways, 2 prediction registers) and are compared after every step — was it a
trigger, the stream addresses in order, what was trained, the regions in both
AGT tables in recency order, every PHT entry, every public counter — through
both faces of the predictor: the boxed ``on_access`` / ``on_eviction`` and the
``lane_hook()`` / ``lane_eviction_hook()`` closures the engine's lane loop
calls.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SMSConfig, SpatialMemoryStreaming
from repro.trace.record import MemoryAccess

REGION_SIZE = 512
BLOCK_SIZE = 64
BLOCKS = REGION_SIZE // BLOCK_SIZE
FILTER_ENTRIES = 2
ACCUMULATION_ENTRIES = 2
PHT_SETS = 2
PHT_WAYS = 2
REGISTERS = 2

SCHEMES = ["address", "pc", "pc+address", "pc+offset"]
PCS = [0x400 + 4 * index for index in range(6)]
REGIONS = [0x10000 + index * REGION_SIZE for index in range(5)]


def index_key(scheme, pc, trigger_block, offset):
    """The four prediction indices of Section 2.2 / Figure 6."""
    if scheme == "address":
        return ("addr", trigger_block)
    if scheme == "pc":
        return ("pc", pc)
    if scheme == "pc+address":
        return ("pc+addr", pc, trigger_block)
    return ("pc+off", pc, offset)


def set_index(key):
    """FNV-1a (64 bit) over the decimal / quoted text of the key's parts."""
    state = 0xCBF29CE484222325
    for part in key:
        text = str(part) if isinstance(part, int) else repr(part)
        for byte in text.encode():
            state = ((state ^ byte) * 0x100000001B3) % 2**64
    return state % PHT_SETS


#: Names of :func:`public_counters`, which the oracle keeps as well.
PUBLIC_COUNTERS = (
    "triggers", "filter_only", "pht_lookups", "pht_hits", "pht_stores", "pht_replacements",
    "trained",
)


class NaiveSMS:
    def __init__(self, scheme, max_requests, ends_on="any-block"):
        self.scheme = scheme
        self.max_requests = max_requests
        self.ends_on = ends_on
        # All LRU first.  filter: [region, pc, trigger offset];
        # accumulation: [region, pc, trigger offset, set of offsets];
        # a PHT set: [key, set of offsets]; a register: [region, offsets to go].
        self.filter = []
        self.accumulation = []
        self.pht = [[] for _ in range(PHT_SETS)]
        self.registers = []
        self.cursor = 0
        self.counters = dict.fromkeys(
            [*PUBLIC_COUNTERS, "allocations", "rejections", "streamed"],
            0,
        )
        self.trained_now = []

    # -- helpers ----------------------------------------------------------
    @staticmethod
    def _find(table, tag):
        for position, entry in enumerate(table):
            if entry[0] == tag:
                return position
        return None

    def _key(self, region, pc, trigger_offset):
        return index_key(self.scheme, pc, region + trigger_offset * BLOCK_SIZE, trigger_offset)

    def _train(self, entry):
        region, pc, trigger_offset, offsets = entry
        key = self._key(region, pc, trigger_offset)
        self.counters["trained"] += 1
        self.counters["pht_stores"] += 1
        entries = self.pht[set_index(key)]
        position = self._find(entries, key)
        if position is not None:
            entries.pop(position)
        elif len(entries) == PHT_WAYS:
            entries.pop(0)
            self.counters["pht_replacements"] += 1
        entries.append([key, set(offsets)])
        self.trained_now.append((key, sorted(offsets)))

    def pht_contents(self):
        return {entry[0]: sorted(entry[1]) for entries in self.pht for entry in entries}

    # -- the mechanism ----------------------------------------------------
    def access(self, pc, address):
        """Returns (was it a trigger access, stream addresses in issue order)."""
        self.trained_now = []
        region = address // REGION_SIZE * REGION_SIZE
        offset = address % REGION_SIZE // BLOCK_SIZE
        trigger = False
        position = self._find(self.accumulation, region)
        if position is not None:
            entry = self.accumulation.pop(position)
            entry[3].add(offset)
            self.accumulation.append(entry)
        else:
            position = self._find(self.filter, region)
            if position is None:
                trigger = True
                self._trigger(region, pc, offset)
            elif self.filter[position][2] == offset:
                self.filter.append(self.filter.pop(position))
            else:
                _, trigger_pc, trigger_offset = self.filter.pop(position)
                if len(self.accumulation) == ACCUMULATION_ENTRIES:
                    self._train(self.accumulation.pop(0))
                self.accumulation.append(
                    [region, trigger_pc, trigger_offset, {trigger_offset, offset}]
                )
        return trigger, self._stream()

    def _trigger(self, region, pc, offset):
        self.counters["triggers"] += 1
        if len(self.filter) == FILTER_ENTRIES:
            self.filter.pop(0)
            self.counters["filter_only"] += 1
        self.filter.append([region, pc, offset])
        key = self._key(region, pc, offset)
        self.counters["pht_lookups"] += 1
        entries = self.pht[set_index(key)]
        position = self._find(entries, key)
        if position is None:
            return
        self.counters["pht_hits"] += 1
        entries.append(entries.pop(position))
        pattern = entries[-1][1]
        to_stream = sorted(pattern - {offset})
        if not to_stream:
            return
        if len(self.registers) == REGISTERS:
            self.counters["rejections"] += 1
            return
        self.registers.append([region, to_stream])
        self.counters["allocations"] += 1

    def _stream(self):
        addresses = []
        while self.registers and len(addresses) != self.max_requests:
            if self.cursor >= len(self.registers):
                self.cursor = 0
            region, to_stream = self.registers[self.cursor]
            addresses.append(region + to_stream.pop(0) * BLOCK_SIZE)
            if to_stream:
                self.cursor += 1
            else:
                self.registers.pop(self.cursor)
        self.counters["streamed"] += len(addresses)
        return addresses

    def remove(self, block_address, invalidated):
        """An L1 replacement (or coherence invalidation) of ``block_address``."""
        self.trained_now = []
        region = block_address // REGION_SIZE * REGION_SIZE
        offset = block_address % REGION_SIZE // BLOCK_SIZE
        position = self._find(self.filter, region)
        if position is not None:
            if self.ends_on == "any-block" or self.filter[position][2] == offset:
                self.filter.pop(position)
                self.counters["filter_only"] += 1
        else:
            position = self._find(self.accumulation, region)
            if position is not None and (
                self.ends_on == "any-block" or offset in self.accumulation[position][3]
            ):
                self._train(self.accumulation.pop(position))
        if invalidated:
            # The rest of the region's stream would arrive stale: drop its
            # registers; the cursor stays on the register it pointed at.
            for position in reversed(range(len(self.registers))):
                if self.registers[position][0] == region:
                    self.registers.pop(position)
                    if position < self.cursor:
                        self.cursor -= 1
                    if self.cursor >= len(self.registers):
                        self.cursor = 0

    def finish(self):
        """End of trace: every accumulating generation trains, LRU first."""
        self.trained_now = []
        self.counters["filter_only"] += len(self.filter)
        while self.accumulation:
            self._train(self.accumulation.pop(0))
        self.filter = []
        self.registers = []
        self.cursor = 0


# -- driving the real predictor ------------------------------------------------
def make_sms(scheme, max_requests, **overrides):
    return SpatialMemoryStreaming(
        SMSConfig(
            region_size=REGION_SIZE,
            block_size=BLOCK_SIZE,
            index_scheme=scheme,
            filter_entries=FILTER_ENTRIES,
            accumulation_entries=ACCUMULATION_ENTRIES,
            pht_entries=PHT_SETS * PHT_WAYS,
            pht_associativity=PHT_WAYS,
            prediction_registers=REGISTERS,
            max_requests_per_access=max_requests,
        ).replace(**overrides)
    )


class Boxed:
    """The reference engine path's face: ``on_access`` / ``on_eviction``."""

    def __init__(self, sms):
        self.sms = sms

    def access(self, pc, address):
        response = self.sms.on_access(MemoryAccess(pc=pc, address=address), None)
        assert not response.forced_evictions
        return [request.address for request in response.prefetches]

    def remove(self, block_address, invalidated):
        response = self.sms.on_eviction(block_address, invalidated=invalidated)
        assert not response.prefetches and not response.forced_evictions


class Lanes:
    """The lane loop's face: the two closures, built once per run; a coherence
    invalidation still arrives through ``on_eviction(..., invalidated=True)``
    (the L1's eviction listener), as it does in the engine."""

    def __init__(self, sms):
        self.sms = sms
        self.on_access = sms.lane_hook()
        self.on_eviction = sms.lane_eviction_hook()

    def access(self, pc, address):
        # The hook answers with (region, pattern bits) runs; the lane loop
        # issues each run lowest offset first, the runs in order.
        return [
            region + offset * BLOCK_SIZE
            for region, bits in self.on_access(pc, address) or ()
            for offset in range(BLOCKS)
            if bits >> offset & 1
        ]

    def remove(self, block_address, invalidated):
        if invalidated:
            self.sms.on_eviction(block_address, invalidated=True)
        else:
            assert self.on_eviction(block_address) is None


def public_counters(sms):
    """The predictor's counters that something outside the tests reads (the
    filter-table ablation, the PHT telemetry, the benchmark's layer probes)."""
    agt, pht = sms.trainer, sms.pht
    return {
        "triggers": agt.generations_started,
        "filter_only": agt.filter_only_generations,
        "pht_lookups": pht.lookups,
        "pht_hits": pht.hits,
        "pht_stores": pht.stores,
        "pht_replacements": pht.replacements,
        "trained": sms.stats.trained_patterns,
    }


def stored_offsets(pht, key):
    """The offsets the PHT holds under ``key``, read without touching its
    recency or counters; ``None`` if the key is not resident."""
    for entries in pht._sets:
        if key in entries:
            return [offset for offset in range(BLOCKS) if entries[key] >> offset & 1]
    return None


def compare(sms, oracle, seen_keys, context):
    agt = sms.trainer
    assert public_counters(sms) == {name: oracle.counters[name] for name in PUBLIC_COUNTERS}, (
        context
    )
    # Both tables, least- to most-recently used: a missed recency bump or a
    # wrong victim shows here, at the step it happens.
    assert [*agt._filter, *agt._accumulation] == [entry[0] for entry in oracle.filter] + [
        entry[0] for entry in oracle.accumulation
    ], context
    assert len(agt._filter) == len(oracle.filter), context
    assert len(agt._accumulation) == len(oracle.accumulation), context
    # The prediction registers, in allocation order: what is still to stream.
    assert sms.registers._registers == [
        (region, sum(1 << offset for offset in to_stream))
        for region, to_stream in oracle.registers
    ], context
    contents = oracle.pht_contents()
    # (finalize can train one key twice; the later pattern replaces the earlier.)
    for key, offsets in dict(oracle.trained_now).items():
        if key in contents:
            assert stored_offsets(sms.pht, key) == offsets, context
    seen_keys.update(key for key, _ in oracle.trained_now)
    assert sms.pht.occupancy == len(contents), context
    for key in seen_keys:
        assert stored_offsets(sms.pht, key) == contents.get(key), context


_ACCESS = st.tuples(
    st.just("access"),
    st.sampled_from(PCS),
    st.sampled_from(REGIONS),
    st.integers(min_value=0, max_value=REGION_SIZE - 1),
)
_REMOVE = st.tuples(
    st.sampled_from(["evict", "invalidate"]),
    st.just(0),
    st.sampled_from(REGIONS),
    st.integers(min_value=0, max_value=BLOCKS - 1).map(lambda offset: offset * BLOCK_SIZE),
)



@st.composite
def _generation(draw):
    """A whole short generation — trigger, one or two more blocks, the removal
    that ends it — so that trained patterns (and with them PHT conflicts,
    trigger hits and busy registers) are common, not lucky."""
    pc, region = draw(st.sampled_from(PCS)), draw(st.sampled_from(REGIONS))
    offsets = draw(st.lists(st.integers(0, BLOCKS - 1), min_size=2, max_size=3, unique=True))
    end = draw(st.sampled_from(["evict", "evict", "invalidate"]))
    return [("access", pc, region, offset * BLOCK_SIZE) for offset in offsets] + [
        (end, 0, region, offsets[0] * BLOCK_SIZE)
    ]


_OPS = st.lists(
    st.one_of(_ACCESS.map(lambda op: [op]), _REMOVE.map(lambda op: [op]), _generation()),
    max_size=60,
).map(lambda phrases: [op for phrase in phrases for op in phrase])


def run_both(face, oracle, ops):
    sms = face.sms
    seen_keys = set()
    for step, (kind, pc, region, within) in enumerate(ops):
        context = (step, kind, hex(pc), hex(region + within))
        if kind == "access":
            triggers_before = sms.trainer.generations_started
            lookups_before = sms.pht.lookups
            expected_trigger, expected_stream = oracle.access(pc, region + within)
            assert face.access(pc, region + within) == expected_stream, context
            assert sms.trainer.generations_started - triggers_before == expected_trigger, context
            assert sms.pht.lookups - lookups_before == expected_trigger, context
        else:
            oracle.remove(region + within, invalidated=kind == "invalidate")
            face.remove(region + within, invalidated=kind == "invalidate")
        compare(sms, oracle, seen_keys, context)
    oracle.finish()
    sms.finalize()
    compare(sms, oracle, seen_keys, "finalize")


@pytest.mark.parametrize("face", [Boxed, Lanes], ids=["boxed", "lanes"])
@pytest.mark.parametrize("max_requests", [None, 1, 3], ids=["drain-all", "drain-1", "drain-3"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_sms_matches_section_3(scheme, max_requests, face):
    @settings(max_examples=100, deadline=None)
    @given(ops=_OPS)
    def check(ops):
        run_both(face(make_sms(scheme, max_requests)), NaiveSMS(scheme, max_requests), ops)

    check()


# -- the scripted cases hypothesis must not be relied on to find ----------------
A, B, C = REGIONS[:3]


def _script(face_type, ops, scheme="pc+offset", max_requests=None, ends_on="any-block"):
    face = face_type(make_sms(scheme, max_requests))
    oracle = NaiveSMS(scheme, max_requests, ends_on=ends_on)
    run_both(face, oracle, ops)
    return face.sms, oracle


@pytest.mark.parametrize("face", [Boxed, Lanes], ids=["boxed", "lanes"])
class TestScripted:
    def test_learn_then_stream_lowest_offset_first_without_the_trigger_block(self, face):
        learn = [("access", 0x400, A, offset * BLOCK_SIZE) for offset in (2, 5, 0, 7)]
        sms, oracle = _script(face, learn + [("evict", 0, A, 0)])
        assert oracle.pht_contents() == {("pc+off", 0x400, 2): [0, 2, 5, 7]}
        trigger, stream = oracle.access(0x400, B + 2 * BLOCK_SIZE + 9)
        assert trigger and stream == [B, B + 5 * BLOCK_SIZE, B + 7 * BLOCK_SIZE]
        assert face(sms).access(0x400, B + 2 * BLOCK_SIZE + 9) == stream

    def test_repeat_trigger_block_access_does_not_promote(self, face):
        ops = [("access", 0x400, A, 64), ("access", 0x404, A, 64 + 17), ("evict", 0, A, 64)]
        sms, oracle = _script(face, ops)
        assert oracle.counters["trained"] == 0 and oracle.counters["filter_only"] == 1

    def test_bounded_drain_interleaves_two_registers(self, face):
        ops = []
        for region, pc in ((A, 0x400), (B, 0x404)):
            ops += [("access", pc, region, offset * BLOCK_SIZE) for offset in (0, 1, 2, 3)]
            ops += [("evict", 0, region, 0)]
        # Two trigger hits one access apart, one block per access: the second
        # access already alternates between the two regions' registers.
        ops += [("access", 0x400, C, 0), ("access", 0x404, REGIONS[3], 0)]
        ops += [("access", 0x408, C, 0)] * 4
        sms, oracle = _script(face, ops, max_requests=1)
        assert oracle.counters["streamed"] == 6 and oracle.counters["allocations"] == 2

    def test_invalidation_cancels_the_regions_register(self, face):
        ops = [("access", 0x400, A, offset * BLOCK_SIZE) for offset in (0, 1, 2, 3)]
        ops += [("evict", 0, A, 0), ("access", 0x400, B, 0), ("invalidate", 0, B, 64)]
        ops += [("access", 0x408, C, 0)] * 3
        sms, oracle = _script(face, ops, max_requests=1)
        assert oracle.counters["streamed"] == 1


def _same_set_keys(scheme, count):
    """``count`` (key, pc, region, trigger offset): distinct keys of one PHT
    set, each triggered in a region of its own."""
    for wanted_set in range(PHT_SETS):
        chosen = []
        for pc in PCS:
            for region in REGIONS:
                for offset in range(BLOCKS):
                    key = index_key(scheme, pc, region + offset * BLOCK_SIZE, offset)
                    taken = [entry[0] for entry in chosen] + [entry[2] for entry in chosen]
                    if set_index(key) == wanted_set and key not in taken and region not in taken:
                        chosen.append((key, pc, region, offset))
        if len(chosen) >= count:
            return chosen[:count]
    raise AssertionError("no PHT set with enough keys")


def _train(pc, region, offset):
    other = (offset + 1) % BLOCKS
    return [
        ("access", pc, region, offset * BLOCK_SIZE),
        ("access", pc, region, other * BLOCK_SIZE),
        ("evict", 0, region, other * BLOCK_SIZE),
    ]


@pytest.mark.parametrize("face", [Boxed, Lanes], ids=["boxed", "lanes"])
@pytest.mark.parametrize("scheme", SCHEMES)
class TestPHTSetPressure:
    """Three keys of one 2-way PHT set: who is evicted says who was refreshed."""

    def test_a_full_set_evicts_its_least_recently_stored_key(self, scheme, face):
        (k1, *t1), (k2, *t2), (k3, *t3) = _same_set_keys(scheme, 3)
        sms, oracle = _script(face, _train(*t1) + _train(*t2) + _train(*t3), scheme=scheme)
        assert sorted(oracle.pht_contents()) == sorted([k2, k3])
        assert oracle.counters["pht_replacements"] == 1

    def test_a_store_to_a_resident_key_refreshes_it(self, scheme, face):
        (k1, *t1), (k2, pc2, region2, offset2), (k3, *t3) = _same_set_keys(scheme, 3)
        # k1's second generation is open while k2's trigger looks k2 up (k2
        # is now the fresher of the two); only the store that ends k1's
        # generation puts k1 back in front before k3 arrives.
        start1, end1 = _train(*t1)[:2], _train(*t1)[2:]
        ops = _train(*t1) + _train(pc2, region2, offset2) + start1
        ops += [("access", pc2, region2, offset2 * BLOCK_SIZE)] + end1 + _train(*t3)
        sms, oracle = _script(face, ops, scheme=scheme)
        assert oracle.counters["pht_hits"] == 2
        assert sorted(oracle.pht_contents()) == sorted([k1, k3])

    def test_a_lookup_hit_refreshes_the_key(self, scheme, face):
        (k1, pc1, region1, offset1), (k2, *t2), (k3, *t3) = _same_set_keys(scheme, 3)
        # k1's trigger access again (a lookup hit, and a generation that
        # never leaves the filter table), then a third key arrives.
        ops = _train(pc1, region1, offset1) + _train(*t2)
        ops += [("access", pc1, region1, offset1 * BLOCK_SIZE)] + _train(*t3)
        sms, oracle = _script(face, ops, scheme=scheme)
        assert oracle.counters["pht_hits"] == 1
        assert sorted(oracle.pht_contents()) == sorted([k1, k3])


@pytest.mark.parametrize("face", [Boxed, Lanes], ids=["boxed", "lanes"])
def test_a_full_register_file_rejects_the_prediction(face):
    ops = [("access", 0x400, A, offset * BLOCK_SIZE) for offset in (0, 1, 2, 3)]
    ops += [("evict", 0, A, 0)]
    # One block per access: B's and C's streams are still going when D's
    # trigger hits, and there are two registers.
    ops += [("access", 0x400, region, 0) for region in (B, C, REGIONS[3])]
    sms, oracle = _script(face, ops, max_requests=1)
    assert oracle.counters["allocations"] == 2 and oracle.counters["rejections"] == 1
    assert oracle.counters["streamed"] == 3


def test_generation_end_reading_any_block_is_the_implemented_one():
    """The fidelity question, pinned: evicting a block of the region that the
    generation never touched (an unused streamed block, say) ends it."""
    ops = [("access", 0x400, A, 0), ("access", 0x404, A, 64), ("evict", 0, A, 5 * BLOCK_SIZE)]
    sms, oracle = _script(Boxed, ops)
    assert oracle.counters["trained"] == 1
    variant = NaiveSMS("pc+offset", None, ends_on="accessed-block")
    for _, pc, region, within in ops[:2]:
        variant.access(pc, region + within)
    variant.remove(A + 5 * BLOCK_SIZE, invalidated=False)
    assert variant.counters["trained"] == 0 and len(variant.accumulation) == 1
    variant.remove(A + 64, invalidated=False)
    assert variant.pht_contents() == oracle.pht_contents()
