"""Tests for repro.trace.stream."""

import pytest

from repro.trace.binary import LaneTrace
from repro.trace.record import MemoryAccess
from repro.trace.stream import iter_chunks, stream_length_hint


def _records(count, cpu=0, base=0):
    return [MemoryAccess(pc=0x400 + 4 * i, address=base + 64 * i, cpu=cpu) for i in range(count)]


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


class TestStreamLengthHint:
    def test_sized_container(self):
        assert stream_length_hint(_records(4)) == 4

    def test_materialized_trace(self):
        assert stream_length_hint(LaneTrace.from_records(_records(4))) == 4

    def test_hintless_stream(self):
        assert stream_length_hint(iter(_records(4))) is None

    def test_total_accesses_attribute(self):
        class Workloadish:
            total_accesses = 123

            def __iter__(self):
                return iter(())

        assert stream_length_hint(Workloadish()) == 123
