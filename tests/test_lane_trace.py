"""LaneTrace / LaneChunk.from_records: the boxed <-> lane round trip.

Every trace that is not a ``.strc`` file reaches the engine's lane loop
through ``LaneChunk.from_records`` (per chunk, via ``lane_chunk_iterator``)
or ``LaneTrace.from_records`` (whole trace, the experiment and serve paths),
so the transposition must be exact at the edges of every field's range and
at every chunk-size boundary.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.binary import LaneChunk, LaneTrace, write_trace_binary
from repro.trace.record import MemoryAccess
from repro.trace.stream import ChunkedTraceStream, GeneratedTrace, lane_chunk_iterator

U64 = 2**64 - 1

#: Field-range extremes are drawn far more often than a flat integer
#: strategy would hit them.
_u64 = st.one_of(st.sampled_from([0, 1, 2**63, U64 - 1, U64]), st.integers(0, U64))
_cpu = st.one_of(st.sampled_from([0, 1, 65534, 65535]), st.integers(0, 65535))
_code = st.integers(0, 3)  # bit 0: write, bit 1: system mode

record_strategy = st.tuples(_u64, _u64, _code, _cpu, _u64).map(
    lambda fields: tuple.__new__(MemoryAccess, fields)
)


def _records(count):
    return [
        tuple.__new__(MemoryAccess, (0x400000 + 4 * i, 64 * i, i % 4, i % 3, 5 * i))
        for i in range(count)
    ]


class TestRoundTrip:
    @given(st.lists(record_strategy, max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_from_records_round_trips_every_field(self, records):
        trace = LaneTrace.from_records(iter(records))
        assert len(trace) == trace.length_hint() == len(records)
        assert list(trace) == records
        assert all(type(record) is MemoryAccess for record in trace)
        assert LaneChunk.from_records(records).records() == records

    def test_empty_trace(self):
        trace = LaneTrace.from_records([])
        assert len(trace) == 0 and not trace
        assert list(trace) == []
        assert list(trace.iter_lane_chunks()) == []
        assert list(trace.iter_chunks()) == []

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_chunk_size_boundaries(self, delta):
        chunk_size = 16
        records = _records(2 * chunk_size + delta)
        trace = LaneTrace.from_records(records)
        lane_chunks = list(trace.iter_lane_chunks(chunk_size))
        boxed_chunks = list(trace.iter_chunks(chunk_size))
        expected = [records[i:i + chunk_size] for i in range(0, len(records), chunk_size)]
        assert boxed_chunks == expected
        assert [chunk.records() for chunk in lane_chunks] == expected

    @pytest.mark.parametrize("count", [15, 16])
    def test_resident_lanes_are_handed_out_uncopied_when_they_fit(self, count):
        trace = LaneTrace.from_records(_records(count))
        (chunk,) = trace.iter_lane_chunks(16)
        assert chunk is trace.lanes

    def test_replayable_and_equal_by_content(self):
        records = _records(40)
        trace = LaneTrace.from_records(records)
        assert list(trace) == list(trace) == records
        assert trace == LaneTrace.from_records(iter(records))
        assert trace != LaneTrace.from_records(records[:-1])

    def test_from_file_matches_from_records(self, tmp_path):
        records = _records(5000)  # spans more than one decode batch
        path = tmp_path / "t.strc"
        write_trace_binary(path, records)
        trace = LaneTrace.from_file(path)
        assert trace == LaneTrace.from_records(records)
        assert trace.name == "t"

    def test_from_file_rejects_a_torn_tail(self, tmp_path):
        path = tmp_path / "t.strc"
        write_trace_binary(path, _records(10))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError):
            LaneTrace.from_file(path)

    @pytest.mark.parametrize("fields", [
        (U64 + 1, 0, 0, 0, 0),
        (0, -1, 0, 0, 0),
        (0, 0, 256, 0, 0),
        (0, 0, 0, 65536, 0),
        (0, 0, 0, 0, U64 + 1),
    ])
    def test_out_of_range_field_is_a_value_error(self, fields):
        with pytest.raises(ValueError, match="lane range"):
            LaneChunk.from_records([tuple.__new__(MemoryAccess, fields)])

    def test_metadata_and_name_ride_along(self):
        source = GeneratedTrace(lambda: _records(3), name="gen")
        trace = LaneTrace.from_records(source, metadata="meta")
        assert (trace.name, trace.metadata) == ("gen", "meta")


class TestLaneChunkIterator:
    """Any input type yields lanes; none is a reason to leave the lane path."""

    @pytest.mark.parametrize("make", [
        lambda records: records,
        lambda records: tuple(records),
        lambda records: iter(records),
        lambda records: GeneratedTrace(lambda: iter(records)),
        lambda records: ChunkedTraceStream(GeneratedTrace(lambda: iter(records)), 7),
        lambda records: LaneTrace.from_records(records),
    ], ids=["list", "tuple", "generator", "generated", "chunked", "lanetrace"])
    @pytest.mark.parametrize("limit", [None, 0, 9, 10, 11, 1000])
    def test_every_stream_type_transposes_identically(self, make, limit):
        records = _records(25)
        chunks = list(lane_chunk_iterator(make(records), 10, limit))
        boxed = [record for chunk in chunks for record in chunk.records()]
        assert boxed == records[:limit]
        assert all(isinstance(chunk, LaneChunk) and 0 < len(chunk) <= 10 for chunk in chunks)

    def test_limit_does_finite_work_on_an_endless_generator(self):
        def endless():
            i = 0
            while True:
                yield tuple.__new__(MemoryAccess, (i, i, 0, 0, i))
                i += 1

        chunks = list(lane_chunk_iterator(endless(), 8, limit=20))
        assert [len(chunk) for chunk in chunks] == [8, 8, 4]
