"""Tests for repro.trace.stream."""

import pytest

from repro.trace.record import MemoryAccess
from repro.trace.stream import (
    ChunkedTraceStream,
    GeneratedTrace,
    MaterializedTrace,
    iter_chunks,
    stream_length_hint,
)


def _records(count, cpu=0, base=0):
    return [MemoryAccess(pc=0x400 + 4 * i, address=base + 64 * i, cpu=cpu) for i in range(count)]


class TestMaterializedTrace:
    def test_len_and_iteration(self):
        trace = MaterializedTrace(_records(5))
        assert len(trace) == 5
        assert len(list(trace)) == 5

    def test_replayable(self):
        trace = MaterializedTrace(_records(5))
        assert list(trace) == list(trace)

    def test_indexing(self):
        records = _records(5)
        trace = MaterializedTrace(records)
        assert trace[2] == records[2]

    def test_append_and_extend(self):
        trace = MaterializedTrace(_records(2))
        trace.append(MemoryAccess(pc=1, address=1))
        trace.extend(_records(3, base=4096))
        assert len(trace) == 6

    def test_take(self):
        trace = MaterializedTrace(_records(10))
        assert len(trace.take(4)) == 4

    def test_take_more_than_available(self):
        trace = MaterializedTrace(_records(3))
        assert len(trace.take(10)) == 3

    def test_split_warmup(self):
        trace = MaterializedTrace(_records(10))
        warm, measure = trace.split_warmup(0.3)
        assert len(warm) == 3
        assert len(measure) == 7

    def test_split_warmup_invalid_fraction(self):
        trace = MaterializedTrace(_records(10))
        with pytest.raises(ValueError):
            trace.split_warmup(1.5)

    def test_materialize_returns_copy(self):
        trace = MaterializedTrace(_records(4))
        copy = trace.materialize()
        assert list(copy) == list(trace)


class TestGeneratedTrace:
    def test_replayable_with_deterministic_factory(self):
        trace = GeneratedTrace(lambda: _records(6), name="gen")
        assert list(trace) == list(trace)
        assert len(list(trace)) == 6

    def test_length_hint_defaults_to_none(self):
        assert GeneratedTrace(lambda: _records(6)).length_hint() is None

    def test_length_hint_from_constructor(self):
        trace = GeneratedTrace(lambda: _records(6), length=6)
        assert trace.length_hint() == 6

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            GeneratedTrace(lambda: _records(6), length=-1)


class TestIterChunks:
    def test_chunks_cover_all_records_in_order(self):
        records = _records(10)
        chunks = list(iter_chunks(records, chunk_size=3))
        assert [len(chunk) for chunk in chunks] == [3, 3, 3, 1]
        assert [record for chunk in chunks for record in chunk] == records

    def test_consumes_generators_lazily(self):
        def generate():
            yield from _records(5)

        chunks = iter_chunks(generate(), chunk_size=2)
        assert len(next(chunks)) == 2

    def test_empty_source(self):
        assert list(iter_chunks([], chunk_size=4)) == []

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            list(iter_chunks(_records(3), chunk_size=0))


class TestChunkedTraceStream:
    def test_flat_iteration_matches_source(self):
        records = _records(10)
        chunked = ChunkedTraceStream(MaterializedTrace(records), chunk_size=4)
        assert list(chunked) == records

    def test_iter_chunks_bounded(self):
        chunked = ChunkedTraceStream(MaterializedTrace(_records(10)), chunk_size=4)
        assert max(len(chunk) for chunk in chunked.iter_chunks()) <= 4

    def test_replayable_over_replayable_source(self):
        chunked = ChunkedTraceStream(MaterializedTrace(_records(8)), chunk_size=3)
        assert list(chunked) == list(chunked)

    def test_delegates_length_hint(self):
        chunked = ChunkedTraceStream(MaterializedTrace(_records(8)), chunk_size=3)
        assert chunked.length_hint() == 8

    def test_inherits_source_name(self):
        chunked = ChunkedTraceStream(MaterializedTrace(_records(1), name="src"))
        assert chunked.name == "src"

    def test_chunked_helper_on_streams(self):
        trace = MaterializedTrace(_records(6))
        assert list(trace.chunked(2)) == list(trace)

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            ChunkedTraceStream(MaterializedTrace(_records(1)), chunk_size=0)


class TestStreamLengthHint:
    def test_sized_container(self):
        assert stream_length_hint(_records(4)) == 4

    def test_materialized_trace(self):
        assert stream_length_hint(MaterializedTrace(_records(4))) == 4

    def test_hintless_stream(self):
        assert stream_length_hint(GeneratedTrace(lambda: _records(4))) is None

    def test_generated_trace_with_length(self):
        assert stream_length_hint(GeneratedTrace(lambda: _records(4), length=4)) == 4

    def test_total_accesses_attribute(self):
        class Workloadish:
            total_accesses = 123

            def __iter__(self):
                return iter(())

        assert stream_length_hint(Workloadish()) == 123
