"""Lane-loop tests: decode equivalence, golden parity, and adapter parity.

The engine's lane loop (``SimulationEngine.run(...)``, what every run takes)
must be *bit-identical* to the per-record reference loop (``lanes=False``).
This module pins that from three directions:

* a hypothesis property that the ``.strc`` lane decoder produces exactly
  the fields ``RECORD.iter_unpack`` would, including torn-tail errors;
* the golden-counter configurations re-run through a binary trace with
  ``lanes=True`` against the same pinned numbers as the reference test;
* parity of both loops for every stream type and every prefetcher — the
  ones without a lane hook, driven by the loop's boxing adapter, and mixed
  per-CPU assignments included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SMSConfig, SpatialMemoryStreaming
from repro.core.prediction import PredictionRegisterFile
from repro.memory.cache import SetAssociativeCache
from repro.prefetch import GHBConfig, GlobalHistoryBuffer, NullPrefetcher
from repro.prefetch.registry import PREFETCHER_CHOICES, sms_factory
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.trace.binary import (
    RECORD,
    RECORD_SIZE,
    BinaryTraceStream,
    LaneChunk,
    LaneTrace,
    _decode_lanes_portable,
    decode_record_lanes,
    write_trace_binary,
)
from repro.trace.reader import read_trace
from repro.trace.record import AccessType, ExecutionMode, MemoryAccess
from repro.workloads import make_workload

from tests.test_engine_goldens import (
    COUNTER_FIELDS,
    GOLDENS,
    PREFETCHER_FACTORIES,
)

# --------------------------------------------------------------------- #
# Decode equivalence (property-based)
# --------------------------------------------------------------------- #

record_fields = st.tuples(
    st.integers(min_value=0, max_value=2**64 - 1),  # pc
    st.integers(min_value=0, max_value=2**64 - 1),  # address
    st.integers(min_value=0, max_value=2**8 - 1),   # code
    st.integers(min_value=0, max_value=2**16 - 1),  # cpu
    st.integers(min_value=0, max_value=2**64 - 1),  # instruction_count
)


def _pack(records) -> bytes:
    return b"".join(RECORD.pack(*fields) for fields in records)


def _box(fields) -> MemoryAccess:
    """Build a MemoryAccess from raw wire fields (pc, addr, code, cpu, icount).

    The public constructor takes enums, not the packed ``code`` byte, so the
    tests mirror what ``LaneChunk.records`` does internally.
    """
    return tuple.__new__(MemoryAccess, tuple(fields))


class TestLaneDecodeProperty:
    @given(st.lists(record_fields, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_lane_decode_matches_iter_unpack(self, records):
        data = _pack(records)
        expected = list(RECORD.iter_unpack(data))
        chunk = decode_record_lanes(data)
        assert len(chunk) == len(records)
        decoded = list(zip(chunk.pc, chunk.address, chunk.code, chunk.cpu,
                           chunk.instruction_count))
        assert decoded == expected
        # The portable decoder must agree with whatever decode_record_lanes
        # picked (the strided gather on little-endian builds, itself there).
        portable = _decode_lanes_portable(data)
        assert list(zip(portable.pc, portable.address, portable.code,
                        portable.cpu, portable.instruction_count)) == expected
        # Boxing the chunk reproduces the tuple records field-for-field.
        assert [tuple(record) for record in chunk.records()] == expected

    @given(
        st.lists(record_fields, max_size=50),
        st.integers(min_value=1, max_value=RECORD_SIZE - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_torn_tail_raises(self, records, torn_bytes):
        data = _pack(records) + b"\x00" * torn_bytes
        with pytest.raises(ValueError):
            decode_record_lanes(data)

    @given(records=st.lists(record_fields, min_size=1, max_size=120),
           chunk_size=st.integers(min_value=1, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_lane_chunk_framing_matches_boxed_chunks(self, records, chunk_size, tmp_path_factory):
        path = tmp_path_factory.mktemp("lanes") / "trace.strc"
        write_trace_binary(path, [_box(fields) for fields in records])
        stream = BinaryTraceStream(path)
        boxed = list(stream.iter_chunks(chunk_size))
        laned = list(stream.iter_lane_chunks(chunk_size))
        assert [len(chunk) for chunk in laned] == [len(chunk) for chunk in boxed]
        assert [chunk.records() for chunk in laned] == boxed

    def test_slice_is_lane_wise(self):
        records = [(i, 10 * i, i % 256, i % 4, i) for i in range(10)]
        chunk = decode_record_lanes(_pack(records))
        head = chunk.slice(0, 4)
        tail = chunk.slice(4, None)
        assert head.records() + tail.records() == chunk.records()
        assert isinstance(head, LaneChunk) and len(head) == 4 and len(tail) == 6


# --------------------------------------------------------------------- #
# Golden-counter parity through the lane path
# --------------------------------------------------------------------- #


def _golden_snapshot(result):
    return {f: getattr(result, f) for f in COUNTER_FIELDS}


def _memory_state(engine):
    """Everything the memory system holds: each L1's and the L2's sets with
    their lines in LRU order and their flags, the directory words, and the
    unused-prefetch counts the overprediction figures read."""
    memory = engine.memory
    caches = [memory.l1(cpu) for cpu in range(memory.num_cpus)] + [memory.l2]
    return (
        [[list(cache_set.items()) for cache_set in cache._sets] for cache in caches],
        [cache.prefetched_evicted_unused for cache in caches],
        memory.directory._entries,
    )


def _write_golden_trace(workload_name, directory):
    workload = make_workload(workload_name, num_cpus=2, accesses_per_cpu=3000, seed=11)
    path = directory / f"{workload_name}.strc"
    write_trace_binary(path, workload)
    return path


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_golden_counters_with_lanes(key, tmp_path):
    """All golden configurations, run lane-to-lane from a binary trace.

    This is the bit-identity gate for the whole lane pipeline: the `.strc`
    decoder, the fused engine loop, the inlined coherence/eviction work,
    and the unboxed SMS train/predict path must reproduce the reference
    counters exactly (GHB configs exercise the boxing adapter).
    """
    workload_name, prefetcher = key.split("/")
    path = _write_golden_trace(workload_name, tmp_path)
    engine = SimulationEngine(
        SimulationConfig.small(num_cpus=2),
        PREFETCHER_FACTORIES[prefetcher](),
        name=f"{key}-lanes",
    )
    result = engine.run(BinaryTraceStream(path), lanes=True)
    assert _golden_snapshot(result) == GOLDENS[key]


# --------------------------------------------------------------------- #
# Which loop runs, and parity between the two
# --------------------------------------------------------------------- #


def _run_pair(trace_factory, config=None, factory=None, engines=None, **run_kwargs):
    """Run the same trace through both paths; return (reference, lanes).
    The two engines are appended to ``engines`` when a list is given."""
    results = []
    for lanes in (False, True):
        engine = SimulationEngine(
            config or SimulationConfig.small(num_cpus=2),
            factory,
            name="pair",
        )
        results.append(engine.run(trace_factory(), lanes=lanes, **run_kwargs))
        if engines is not None:
            engines.append(engine)
    return results


def _spy_on_lane_path(engine):
    """Wrap the engine's lane stepper to record whether it ever ran."""
    calls = []
    original = engine._step_lanes

    def spy(chunk, hooks):
        calls.append(len(chunk))
        return original(chunk, hooks)

    engine._step_lanes = spy
    return calls


@pytest.fixture
def small_trace(tmp_path):
    workload = make_workload("oltp-db2", num_cpus=2, accesses_per_cpu=800, seed=3)
    path = tmp_path / "small.strc"
    write_trace_binary(path, workload)
    return path


class TestLaneFallbacks:
    def test_binary_trace_defaults_to_lanes(self, small_trace):
        engine = SimulationEngine(SimulationConfig.small(num_cpus=2))
        calls = _spy_on_lane_path(engine)
        engine.run(BinaryTraceStream(small_trace))
        assert calls, "binary traces should take the lane path by default"

    def test_generated_workload_takes_lanes(self):
        workload = make_workload("oltp-db2", num_cpus=2, accesses_per_cpu=500, seed=5)
        engine = SimulationEngine(SimulationConfig.small(num_cpus=2))
        calls = _spy_on_lane_path(engine)
        result = engine.run(workload)  # generated straight into lane chunks
        assert sum(calls) == 1000
        assert result.engine_path == "lanes"
        reference_engine = SimulationEngine(SimulationConfig.small(num_cpus=2))
        reference_calls = _spy_on_lane_path(reference_engine)
        reference = reference_engine.run(workload, lanes=False)
        assert not reference_calls and reference.engine_path == "reference"
        assert _golden_snapshot(result) == _golden_snapshot(reference)

    def test_foreign_eviction_listener_keeps_parity(self, small_trace):
        """Extra listeners force the generic dispatch, not wrong counters."""
        seen = {False: [], True: []}
        results = {}
        for lanes in (False, True):
            engine = SimulationEngine(SimulationConfig.small(num_cpus=2))
            engine.memory.l1(0).add_eviction_listener(
                lambda line, lanes=lanes: seen[lanes].append(line.block_addr)
            )
            results[lanes] = engine.run(BinaryTraceStream(small_trace), lanes=lanes)
        assert seen[True] == seen[False] and seen[True]
        assert _golden_snapshot(results[True]) == _golden_snapshot(results[False])


class TestLimitWarmupParity:
    @pytest.mark.parametrize("limit,warmup", [
        (500, 0),       # no warmup
        (1000, 250),    # warmup boundary inside the run
        (1600, 1600),   # everything is warmup
        (10**6, None),  # limit beyond EOF, default warmup fraction
    ])
    def test_limit_and_warmup_match_reference(self, small_trace, limit, warmup):
        reference, lanes = _run_pair(
            lambda: BinaryTraceStream(small_trace),
            limit=limit,
            warmup_accesses=warmup,
        )
        assert _golden_snapshot(lanes) == _golden_snapshot(reference)
        assert lanes.accesses == reference.accesses


class TestInputTypeParity:
    """One trace, every way of handing it to the engine, one answer.

    2600 records at the default chunk size with a 1300-record warmup put the
    measurement boundary inside the first chunk; the 1000-record chunk size
    puts it inside the second.
    """

    @pytest.mark.parametrize("prefetcher", ["none", "sms"])
    @pytest.mark.parametrize("chunk_size", [4096, 1000])
    def test_every_input_type_gives_the_same_result(self, prefetcher, chunk_size):
        workload = make_workload("oltp-db2", num_cpus=2, accesses_per_cpu=1300, seed=4)
        records = tuple(workload)
        count = len(records)

        def run(trace, **kwargs):
            engine = SimulationEngine(
                SimulationConfig.small(num_cpus=2), PREFETCHER_FACTORIES[prefetcher]()
            )
            return engine.run(trace, chunk_size=chunk_size, **kwargs)

        reference = run(records, lanes=False)
        assert reference.engine_path == "reference"
        assert 0 < reference.accesses < count  # the warmup boundary was crossed
        for label, result in {
            "tuple": run(records),
            "lane trace": run(LaneTrace.from_records(records)),
            "generator": run(iter(records), limit=count),
            "workload": run(workload),
            "lane trace, lanes off": run(LaneTrace.from_records(records), lanes=False),
        }.items():
            assert result.as_dict() == reference.as_dict(), label
            assert _golden_snapshot(result) == _golden_snapshot(reference), label
            expected_path = "reference" if label.endswith("lanes off") else "lanes"
            assert result.engine_path == expected_path, label

    def test_limit_inside_a_transposed_chunk(self):
        records = tuple(make_workload("ocean", num_cpus=2, accesses_per_cpu=600, seed=2))
        reference, lanes = _run_pair(lambda: iter(records), limit=777, warmup_accesses=100)
        assert lanes.engine_path == "lanes" and lanes.accesses == 677
        assert _golden_snapshot(lanes) == _golden_snapshot(reference)


def _shared_region_walks(num_cpus, steps=1500, seed=6):
    """CPUs take turns walking a few fixed block sequences (one per PC) over a
    small pool of 2 kB regions they all share, writing a third of the time:
    patterns recur, so streams start, and every write invalidates the other
    CPUs' copies of a block whose region they may still be streaming."""
    rng = random.Random(seed)
    walks = {0x400 + 4 * i: rng.sample(range(32), 6) for i in range(4)}
    records = []
    for step in range(steps):
        pc = rng.choice(sorted(walks))
        region = 0x100000 + 2048 * rng.randrange(12)
        for offset in walks[pc]:
            records.append(
                MemoryAccess(
                    pc=pc,
                    address=region + 64 * offset,
                    access_type=AccessType.WRITE if rng.random() < 0.33 else AccessType.READ,
                    cpu=step % num_cpus,
                    instruction_count=4 * len(records),
                )
            )
    return tuple(records)


class TestBoundedDrainParity:
    """``max_requests_per_access=1`` with two registers: streams outlive the
    access that started them, so the hook hands the engine blocks of *other*
    regions than the one being accessed, registers fill up and reject, and a
    coherence invalidation cancels a stream in flight."""

    @pytest.mark.parametrize("num_cpus", [2, 4])
    def test_bounded_drain_matches_reference(self, num_cpus, monkeypatch):
        cancelled = []
        rejected = []
        original = PredictionRegisterFile.cancel_region
        original_allocate = PredictionRegisterFile.allocate_bits

        def spy(self, region):
            removed = original(self, region)
            cancelled.append(removed)
            return removed

        def allocate_spy(self, *args, **kwargs):
            # Only the reference loop allocates through here; the lane hook
            # appends to the same register list in place.
            accepted = original_allocate(self, *args, **kwargs)
            rejected.append(not accepted)
            return accepted

        monkeypatch.setattr(PredictionRegisterFile, "cancel_region", spy)
        monkeypatch.setattr(PredictionRegisterFile, "allocate_bits", allocate_spy)
        records = _shared_region_walks(num_cpus)
        outcomes = {}
        for lanes in (False, True):
            del cancelled[:]
            engine = SimulationEngine(
                SimulationConfig.small(num_cpus=num_cpus),
                lambda cpu: SpatialMemoryStreaming(
                    SMSConfig(max_requests_per_access=1, prediction_registers=2)
                ),
            )
            result = engine.run(records, lanes=lanes, warmup_accesses=0)
            files = [prefetcher.registers for prefetcher in engine.prefetchers]
            outcomes[lanes] = (
                result.as_dict(),
                _golden_snapshot(result),
                [f._registers for f in files],
                _memory_state(engine),
                list(cancelled),
            )
            assert result.engine_path == ("lanes" if lanes else "reference")
            assert result.invalidations > 0 and result.prefetches_issued > 0
            assert sum(cancelled) > 0, "no stream was cancelled in flight"
        assert any(rejected), "no prediction met a full register file"
        assert outcomes[True] == outcomes[False]


def test_stream_order_within_a_run_matches_reference():
    """A 1 kB 2-way L1 has 8 sets, so the 32 blocks of a 2 kB region fall four
    to a set and a streamed pattern overflows them: which blocks survive —
    and every counter after that — depends on the hook's runs being drained
    lowest offset first, as the reference path issues its requests."""
    config = SimulationConfig(
        num_cpus=2, l1_capacity=1024, l1_associativity=2, l2_capacity=64 * 1024,
        l2_associativity=4, warmup_fraction=0.0,
    )
    reference, lanes = _run_pair(
        lambda: _shared_region_walks(2, steps=600),
        config=config,
        factory=lambda cpu: SpatialMemoryStreaming(SMSConfig()),
    )
    assert lanes.engine_path == "lanes" and lanes.prefetches_issued > 1000
    assert _golden_snapshot(lanes) == _golden_snapshot(reference)


def _mixed_factory():
    """GHB (boxing adapter) on CPU 0, SMS (lane hook) on 1, none beyond."""
    ghb = PREFETCHER_CHOICES["ghb"]()
    sms = PREFETCHER_CHOICES["sms"]()
    return lambda cpu: (ghb, sms)[cpu](cpu) if cpu < 2 else NullPrefetcher()


def _sectored_sms_factory(trainer):
    """SMS on a sectored trainer (no lane hook) of four sectors, so that the
    walks' twelve regions conflict and the decoupled one forces evictions."""
    return sms_factory(SMSConfig(trainer=trainer, trained_cache_capacity=8 * 1024))


#: Every selectable prefetcher, SMS on the two sectored trainers, and a
#: per-CPU mix.
ADAPTER_PARITY_FACTORIES = {
    **PREFETCHER_CHOICES,
    "sms/logical-sectored": lambda: _sectored_sms_factory("logical-sectored"),
    "sms/decoupled-sectored": lambda: _sectored_sms_factory("decoupled-sectored"),
    "mixed": _mixed_factory,
}


class TestAdapterParity:
    """Every prefetcher takes the lane loop and agrees with the reference
    loop on every counter either of them keeps and on the memory state they
    leave behind (cache sets in recency order, directory words).  The
    shared-region walks make
    the other CPUs' writes invalidate blocks out of each L1 (so a boxed
    ``on_eviction(invalidated=True)`` reaches the adapter CPUs), the ``ocean``
    tail gives the stride prefetcher strides to find, the caches are small
    enough to keep missing after the warm-up, and 1,500 warm-up records over
    1,000-record chunks put the measurement boundary inside a chunk."""

    @pytest.mark.parametrize("num_cpus", [1, 2, 4])
    @pytest.mark.parametrize("prefetcher", sorted(ADAPTER_PARITY_FACTORIES))
    def test_lanes_match_reference(self, prefetcher, num_cpus, monkeypatch):
        invalidated = []
        original_invalidate = SetAssociativeCache.invalidate

        def invalidate_spy(cache, address):
            evicted = original_invalidate(cache, address)
            if evicted is not None:
                invalidated.append(cache)
            return evicted

        monkeypatch.setattr(SetAssociativeCache, "invalidate", invalidate_spy)
        records = _shared_region_walks(num_cpus, steps=700) + tuple(
            make_workload("ocean", num_cpus=num_cpus, accesses_per_cpu=900 // num_cpus, seed=2)
        )
        engines = []
        results = _run_pair(
            lambda: records,
            config=SimulationConfig(
                num_cpus=num_cpus, l1_capacity=4096, l2_capacity=16 * 1024, l2_associativity=4
            ),
            factory=ADAPTER_PARITY_FACTORIES[prefetcher](),
            engines=engines,
            warmup_accesses=1500,
            chunk_size=1000,
        )
        assert [result.engine_path for result in results] == ["reference", "lanes"]
        outcomes = []
        for result, engine in zip(results, engines):
            assert result.accesses == len(records) - 1500
            assert result.l1_read_misses > 0 and result.offchip_read_misses > 0
            assert (result.prefetches_issued > 0) == (prefetcher != "none")
            if num_cpus > 1:
                assert result.invalidations > 0
            outcomes.append((
                result.as_dict(),
                _golden_snapshot(result),
                [prefetcher.stats.trained_patterns for prefetcher in engine.prefetchers],
                _memory_state(engine),
            ))
        assert outcomes[0] == outcomes[1]
        if num_cpus > 1:
            # Both loops invalidated resident copies out of CPU 0's L1, and
            # equally often.
            counts = [
                sum(cache is engine.memory.l1(0) for cache in invalidated) for engine in engines
            ]
            assert counts[0] > 0 and counts[0] == counts[1]


class _OutcomeLog(GlobalHistoryBuffer):
    """GHB (L2-only prefetches) that writes down what the engine tells it
    about every access."""

    def __init__(self):
        super().__init__(GHBConfig(buffer_entries=256))
        self.seen = []

    def on_access(self, record, outcome):
        self.seen.append((
            tuple(record), outcome.record is record, outcome.level,
            outcome.l1_result.outcome, outcome.l1_result.block_addr,
            outcome.false_sharing, outcome.invalidations_sent,
        ))
        return super().on_access(record, outcome)


def test_boxed_outcome_is_what_memory_access_returns():
    """The adapter's record and outcome, field by field, against the ones
    ``memory.access`` hands the reference loop (512-byte blocks over a 64-byte
    sharing granularity, so that misses classify as false sharing)."""
    config = SimulationConfig(
        num_cpus=2, block_size=512, l1_capacity=4096, l2_capacity=32 * 1024,
        l2_associativity=4, warmup_fraction=0.0,
    )
    engines = []
    _run_pair(
        lambda: _shared_region_walks(2, steps=500), config=config,
        factory=lambda cpu: _OutcomeLog(), engines=engines,
    )
    reference, lanes = ([p.seen for p in engine.prefetchers] for engine in engines)
    assert lanes == reference
    seen = [entry for log in lanes for entry in log]
    levels = {entry[2] for entry in seen}
    assert len(levels) == 3  # L1, L2 and memory
    assert {entry[3].value for entry in seen} == {"hit", "miss"}  # L1: GHB fills only the L2
    assert any(entry[5] for entry in seen) and any(entry[6] for entry in seen)


# --------------------------------------------------------------------- #
# read_trace on a binary file: header count and round-trip
# --------------------------------------------------------------------- #


class TestReadTraceBinary:
    def test_round_trip(self, tmp_path):
        records = [
            MemoryAccess(
                pc=0x400000 + 4 * i,
                address=64 * i,
                access_type=AccessType.WRITE if i % 3 == 0 else AccessType.READ,
                cpu=i % 2,
                mode=ExecutionMode.SYSTEM if i % 7 == 0 else ExecutionMode.USER,
                instruction_count=i,
            )
            for i in range(1000)
        ]
        path = tmp_path / "round.strc"
        assert write_trace_binary(path, records) == len(records)
        trace = read_trace(path)
        assert list(trace) == records

    def test_header_count_matches_payload(self, tmp_path):
        path = tmp_path / "counted.strc"
        write_trace_binary(path, [MemoryAccess(pc=1, address=2)] * 17)
        stream = BinaryTraceStream(path)
        assert stream.length_hint() == 17
        assert len(read_trace(path)) == 17
