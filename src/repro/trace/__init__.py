"""Trace infrastructure: memory-access records, streams, and statistics.

Every simulation in this repository is trace-driven.  A *trace* is an
iterable of :class:`~repro.trace.record.MemoryAccess` records, each one
describing a single data reference (program counter, byte address,
read/write, issuing CPU, and whether the access occurred in user or system
mode).  Workload generators (:mod:`repro.workloads`) produce traces; the
simulation engine (:mod:`repro.simulation`) consumes them lazily, one chunk
at a time, so traces of any length fit in O(chunk) memory.

On-disk trace formats
---------------------

Two interchangeable file formats are supported, auto-detected by
:func:`~repro.trace.reader.stream_trace` / :func:`~repro.trace.reader.write_trace`
and convertible in either direction with ``repro.cli convert``:

**Text** (``.trace`` / any name; ``.gz`` for gzip) — one record per line,
human-readable and diff-friendly::

    <cpu> <mode:U|S> <type:R|W> <pc-hex> <address-hex> <instruction-count>

Blank lines and ``#`` comments are ignored.  This is the interchange format
for external tools; the reader validates every field.

**Binary** (``.strc`` / ``.strc.gz``) — struct-packed little-endian records
behind a fixed 16-byte header, roughly 6x faster to decode::

    header  := magic(4s = b"STRC") version(u16) flags(u16) record_count(u64)
    record  := pc(u64) address(u64) code(u8) cpu(u16) instruction_count(u64)

``code`` packs the access type and mode (bit 0: write, bit 1: system);
``flags`` bit 0 marks a gzip-compressed payload (the header itself is never
compressed, so the record count is patchable after a streaming write and
readable without decompression).  See :mod:`repro.trace.binary` for the full
specification.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "record": ("AccessType", "ExecutionMode", "MemoryAccess"),
        "stream": (
            "TraceStream",
            "MaterializedTrace",
            "GeneratedTrace",
            "ChunkedTraceStream",
            "iter_chunks",
            "lane_chunk_iterator",
            "resolve_warmup_count",
            "stream_length_hint",
        ),
        "reader": ("FileTraceStream", "read_trace", "stream_trace", "write_trace"),
        "binary": (
            "BinaryTraceStream",
            "LaneChunk",
            "LaneTrace",
            "decode_record_lanes",
            "is_binary_trace",
            "read_trace_binary",
            "write_trace_binary",
        ),
        "stats": ("TraceStatistics", "summarize_trace"),
    },
)
