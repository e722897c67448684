"""Tests for repro.trace.binary (struct-packed trace format)."""

import gzip
import struct

import pytest

from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.trace.binary import (
    HEADER,
    MAGIC,
    RECORD_SIZE,
    UNKNOWN_COUNT,
    VERSION,
    BinaryTraceStream,
    is_binary_trace,
    write_trace_binary,
)
from repro.trace.reader import FileTraceStream, read_trace, stream_trace, write_trace
from repro.trace.record import AccessType, ExecutionMode, MemoryAccess
from repro.workloads import make_workload


def _sample_records():
    return [
        MemoryAccess(pc=0x400, address=0x1000, access_type=AccessType.READ, cpu=0,
                     mode=ExecutionMode.USER, instruction_count=3),
        MemoryAccess(pc=0x404, address=0x1040, access_type=AccessType.WRITE, cpu=1,
                     mode=ExecutionMode.SYSTEM, instruction_count=9),
        MemoryAccess(pc=0x7FFF0000, address=0xDEADBE00, access_type=AccessType.READ, cpu=15,
                     mode=ExecutionMode.USER, instruction_count=12345),
        MemoryAccess(pc=2**63, address=2**64 - 64, access_type=AccessType.WRITE, cpu=65535,
                     mode=ExecutionMode.SYSTEM, instruction_count=2**40),
    ]


def _fields(record):
    return (record.pc, record.address, record.access_type, record.cpu,
            record.mode, record.instruction_count)


class TestRoundTrip:
    @pytest.mark.parametrize("suffix", [".strc", ".strc.gz"])
    def test_roundtrip_preserves_all_fields(self, tmp_path, suffix):
        path = tmp_path / f"trace{suffix}"
        records = _sample_records()
        assert write_trace_binary(path, records) == len(records)
        loaded = read_trace(path)
        assert [_fields(r) for r in loaded] == [_fields(r) for r in records]

    def test_gzip_payload_is_compressed(self, tmp_path):
        path = tmp_path / "trace.strc.gz"
        write_trace_binary(path, _sample_records() * 100)
        with path.open("rb") as handle:
            assert handle.read(4) == MAGIC  # header stays plain
            handle.seek(HEADER.size)
            assert handle.read(2) == b"\x1f\x8b"  # payload is a gzip member
        plain = tmp_path / "trace.strc"
        write_trace_binary(plain, _sample_records() * 100)
        assert path.stat().st_size < plain.stat().st_size

    def test_text_and_binary_yield_identical_records(self, tmp_path):
        workload = make_workload("oltp-db2", num_cpus=2, accesses_per_cpu=500, seed=3)
        text_path = tmp_path / "t.trace"
        binary_path = tmp_path / "t.strc"
        assert write_trace(text_path, workload) == write_trace(binary_path, workload)
        text_records = [_fields(r) for r in stream_trace(text_path)]
        binary_records = [_fields(r) for r in stream_trace(binary_path)]
        assert binary_records == text_records

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.strc.gz", tmp_path / "b.strc.gz"
        write_trace_binary(a, _sample_records())
        write_trace_binary(b, _sample_records())
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("suffix", [".strc", ".strc.gz"])
    def test_lane_sources_write_the_same_bytes_as_boxed_records(
        self, tmp_path, suffix, monkeypatch
    ):
        """Lane-native sources are packed from their columns, never boxed."""
        from repro.trace.binary import LaneTrace
        from repro.workloads.base import SyntheticWorkload
        from repro.workloads.suite import make_workload

        def workload():
            # More than one write batch, and not a multiple of it.
            return make_workload("web-apache", num_cpus=3, accesses_per_cpu=3011, seed=4)

        boxed, lanes, generated = (tmp_path / f"{n}{suffix}" for n in "abc")
        records = list(workload())
        assert write_trace_binary(boxed, records) == len(records) == 9033
        assert write_trace_binary(lanes, LaneTrace.from_records(records)) == len(records)
        monkeypatch.setattr(SyntheticWorkload, "__iter__", None)  # boxing would now raise
        assert write_trace_binary(generated, workload()) == len(records)
        assert boxed.read_bytes() == lanes.read_bytes() == generated.read_bytes()
        assert list(BinaryTraceStream(generated)) == records

    def test_header_count_patched_after_generator_write(self, tmp_path):
        path = tmp_path / "gen.strc"
        count = write_trace_binary(path, (r for r in _sample_records()))
        assert count == 4
        with path.open("rb") as handle:
            _, _, _, record_count = HEADER.unpack(handle.read(HEADER.size))
        assert record_count == 4

    def test_out_of_range_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.strc"
        with pytest.raises(ValueError, match="64-bit range"):
            write_trace_binary(path, [MemoryAccess(pc=2**64, address=0)])
        with pytest.raises(ValueError, match="16-bit range"):
            write_trace_binary(path, [MemoryAccess(pc=0, address=0, cpu=2**16)])

    def test_negative_instruction_count_rejected_as_value_error(self, tmp_path):
        # instruction_count is never validated at construction (historical
        # behaviour); the encoder must reject it cleanly, not via struct.error.
        path = tmp_path / "neg.strc"
        with pytest.raises(ValueError, match="64-bit range"):
            write_trace_binary(
                path, [MemoryAccess(pc=0, address=0, instruction_count=-5)]
            )

    def test_reserved_code_bits_ignored_on_read(self, tmp_path):
        path = tmp_path / "reserved.strc"
        write_trace_binary(path, [MemoryAccess(pc=0x400, address=0x1000)])
        data = bytearray(path.read_bytes())
        data[HEADER.size + 16] = 0b0000_0101  # set a reserved bit + write bit
        path.write_bytes(bytes(data))
        (record,) = list(BinaryTraceStream(path))
        assert record.access_type is AccessType.WRITE
        assert record.mode is ExecutionMode.USER


class TestStreaming:
    def test_stream_is_replayable(self, tmp_path):
        path = tmp_path / "trace.strc"
        write_trace_binary(path, _sample_records())
        stream = BinaryTraceStream(path)
        assert list(stream) == list(stream)

    def test_length_hint_from_header(self, tmp_path):
        path = tmp_path / "trace.strc"
        write_trace_binary(path, _sample_records())
        assert BinaryTraceStream(path).length_hint() == 4

    def test_count_records_reads_header_without_decoding(self, tmp_path):
        path = tmp_path / "trace.strc"
        write_trace_binary(path, _sample_records())
        # Corrupt the payload: count_records must not touch it.
        data = bytearray(path.read_bytes())
        data[HEADER.size] ^= 0xFF
        path.write_bytes(bytes(data))
        assert BinaryTraceStream(path).count_records() == 4

    def test_count_records_falls_back_when_header_count_unknown(self, tmp_path):
        path = tmp_path / "trace.strc"
        write_trace_binary(path, _sample_records())
        data = bytearray(path.read_bytes())
        data[8:16] = struct.pack("<Q", UNKNOWN_COUNT)
        path.write_bytes(bytes(data))
        assert BinaryTraceStream(path).count_records() == 4

    def test_iter_chunks_respects_chunk_size(self, tmp_path):
        path = tmp_path / "trace.strc"
        write_trace_binary(path, _sample_records() * 5)  # 20 records
        chunks = list(BinaryTraceStream(path).iter_chunks(chunk_size=8))
        assert [len(c) for c in chunks] == [8, 8, 4]

    def test_name_strips_both_suffixes(self, tmp_path):
        path = tmp_path / "mytrace.strc.gz"
        write_trace_binary(path, _sample_records())
        assert BinaryTraceStream(path).name == "mytrace"

    @pytest.mark.parametrize("suffix", [".strc", ".strc.gz"])
    def test_iteration_closes_underlying_file(self, tmp_path, suffix):
        # GzipFile.close() does not close a caller-supplied fileobj; replays
        # must not leak one OS fd per iteration.
        path = tmp_path / f"fd{suffix}"
        write_trace_binary(path, _sample_records())
        stream = BinaryTraceStream(path)
        raws = []
        original = stream._open_payload

        def capturing_open():
            handle, raw, count = original()
            raws.append(raw)
            return handle, raw, count

        stream._open_payload = capturing_open
        for _ in range(3):
            list(stream)
        assert len(raws) == 3
        assert all(raw.closed for raw in raws)


class TestAutoDetection:
    def test_write_trace_picks_binary_for_strc(self, tmp_path):
        path = tmp_path / "auto.strc"
        write_trace(path, _sample_records())
        assert is_binary_trace(path)

    def test_stream_trace_returns_binary_stream(self, tmp_path):
        path = tmp_path / "auto.strc.gz"
        write_trace(path, _sample_records())
        assert isinstance(stream_trace(path), BinaryTraceStream)

    def test_stream_trace_detects_magic_without_suffix(self, tmp_path):
        path = tmp_path / "oddly.named"
        write_trace_binary(path, _sample_records(), compress=False)
        assert isinstance(stream_trace(path), BinaryTraceStream)

    def test_text_paths_still_stream_text(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, _sample_records())
        assert isinstance(stream_trace(path), FileTraceStream)

    def test_read_trace_handles_both(self, tmp_path):
        records = _sample_records()
        text_path, binary_path = tmp_path / "a.trace", tmp_path / "a.strc"
        write_trace(text_path, records)
        write_trace(binary_path, records)
        assert list(read_trace(text_path)) == list(read_trace(binary_path))


class TestCorruption:
    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.strc"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(ValueError, match="truncated binary trace header"):
            list(BinaryTraceStream(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.strc"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(ValueError, match="bad magic"):
            list(BinaryTraceStream(path))

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "future.strc"
        path.write_bytes(HEADER.pack(MAGIC, VERSION + 1, 0, 0))
        with pytest.raises(ValueError, match="unsupported binary trace version"):
            list(BinaryTraceStream(path))

    def test_torn_record_rejected(self, tmp_path):
        path = tmp_path / "torn.strc"
        write_trace_binary(path, _sample_records())
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the last record
        with pytest.raises(ValueError, match="truncated binary trace"):
            list(BinaryTraceStream(path))

    def test_missing_records_rejected(self, tmp_path):
        path = tmp_path / "missing.strc"
        write_trace_binary(path, _sample_records())
        data = path.read_bytes()
        path.write_bytes(data[:-RECORD_SIZE])  # drop one whole record
        with pytest.raises(ValueError, match="header promises"):
            list(BinaryTraceStream(path))

    def test_empty_trace_roundtrips(self, tmp_path):
        path = tmp_path / "empty.strc"
        assert write_trace_binary(path, []) == 0
        assert list(BinaryTraceStream(path)) == []
        assert BinaryTraceStream(path).count_records() == 0


class TestSimulationEquivalence:
    @pytest.mark.parametrize("suffix", [".strc", ".strc.gz"])
    def test_identical_simulation_result_from_both_readers(self, tmp_path, suffix):
        workload = make_workload("ocean", num_cpus=2, accesses_per_cpu=1500, seed=5)
        text_path = tmp_path / "w.trace"
        binary_path = tmp_path / f"w{suffix}"
        write_trace(text_path, workload)
        write_trace(binary_path, workload)

        def run(path):
            stream = stream_trace(path)
            if stream.length_hint() is None:  # text: one cheap counting pass
                stream.count_records()
            assert stream.length_hint() == 3000  # binary: free from the header
            config = SimulationConfig.small(num_cpus=2)
            return SimulationEngine(config, name="eq").run(stream)

        from_text = run(text_path)
        from_binary = run(binary_path)
        assert from_binary.as_dict() == from_text.as_dict()
        assert from_binary.l1_read_misses == from_text.l1_read_misses
        assert from_binary.offchip_read_misses == from_text.offchip_read_misses
        assert from_binary.instructions == from_text.instructions
