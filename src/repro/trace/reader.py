"""Trace file I/O: the plain-text format, plus format auto-detection.

Text traces are stored one record per line::

    <cpu> <mode> <type> <pc-hex> <address-hex> <instruction_count>

The format is intentionally simple so traces can be inspected, diffed, and
generated by external tools.  Files whose name ends in ``.gz`` are read and
written gzip-compressed transparently.

A struct-packed binary format (:mod:`repro.trace.binary`, ``.strc`` /
``.strc.gz``) sits alongside the text reader for ~10x faster decode on
full-scale runs; ``repro.cli convert`` translates between the two.  The
entry points below auto-detect the format:

* :func:`stream_trace` returns a lazy, replayable stream — a
  :class:`FileTraceStream` for text files or a
  :class:`~repro.trace.binary.BinaryTraceStream` for binary ones (detected
  by the ``.strc`` suffix or the file's magic bytes);
* :func:`write_trace` writes text by default and binary for ``.strc`` /
  ``.strc.gz`` output paths; and
* :func:`read_trace` eagerly reads either format into a
  :class:`~repro.trace.binary.LaneTrace`, the one in-memory trace.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from repro.trace import binary as _binary
from repro.trace.binary import BinaryTraceStream, LaneTrace, write_trace_binary
from repro.trace.record import AccessType, ExecutionMode, MemoryAccess
from repro.trace.stream import TraceStream

_TYPE_CODES = {AccessType.READ: "R", AccessType.WRITE: "W"}
_TYPE_FROM_CODE = {v: k for k, v in _TYPE_CODES.items()}
_MODE_CODES = {ExecutionMode.USER: "U", ExecutionMode.SYSTEM: "S"}
_MODE_FROM_CODE = {v: k for k, v in _MODE_CODES.items()}


def _open_text(path: Path, mode: str) -> IO[str]:
    """Open ``path`` for text I/O, gzip-compressed when it ends in ``.gz``."""
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return path.open(mode, encoding="utf-8")


def _parse_line(path: Path, line_number: int, line: str) -> Optional[MemoryAccess]:
    """Parse one trace line; return ``None`` for blanks and comments."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split()
    if len(parts) != 6:
        raise ValueError(f"{path}:{line_number}: expected 6 fields, got {len(parts)}")
    cpu, mode_code, type_code, pc_hex, addr_hex, icount = parts
    try:
        return MemoryAccess(
            pc=int(pc_hex, 16),
            address=int(addr_hex, 16),
            access_type=_TYPE_FROM_CODE[type_code],
            cpu=int(cpu),
            mode=_MODE_FROM_CODE[mode_code],
            instruction_count=int(icount),
        )
    except KeyError as exc:
        raise ValueError(f"{path}:{line_number}: unknown code {exc}") from exc


def write_trace(path: Union[str, Path], records: Iterable[MemoryAccess]) -> int:
    """Write ``records`` to ``path``; return the count written.

    The format follows the file name: ``.strc`` / ``.strc.gz`` paths are
    written in the binary format, anything else as text (gzip-compressed for
    ``.gz``).  ``records`` is consumed lazily either way, so a generated
    stream of any length can be written without materializing it.
    """
    path = Path(path)
    if _binary.has_binary_suffix(path):
        return write_trace_binary(path, records)
    count = 0
    with _open_text(path, "w") as handle:
        for record in records:
            handle.write(
                f"{record.cpu} {_MODE_CODES[record.mode]} {_TYPE_CODES[record.access_type]} "
                f"{record.pc:x} {record.address:x} {record.instruction_count}\n"
            )
            count += 1
    return count


class FileTraceStream(TraceStream):
    """A replayable stream backed by a (possibly gzip-compressed) trace file.

    Each iteration re-opens the file and parses records lazily, so iterating
    the stream costs O(1) memory regardless of file size.  The file must not
    change between iterations for the stream to be replayable.

    ``length`` is an optional record-count hint used to size fraction-based
    warmup phases without reading the file; when omitted and a consumer
    needs one, :meth:`count_records` makes one counting pass (still O(1)
    memory) and caches the result.
    """

    def __init__(
        self, path: Union[str, Path], name: str = "", length: Optional[int] = None
    ) -> None:
        self.path = Path(path)
        super().__init__(name=name or _stem(self.path))
        if length is not None and length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        self._length = length

    def __iter__(self) -> Iterator[MemoryAccess]:
        with _open_text(self.path, "r") as handle:
            for line_number, line in enumerate(handle, start=1):
                record = _parse_line(self.path, line_number, line)
                if record is not None:
                    yield record

    def length_hint(self) -> Optional[int]:
        return self._length

    def count_records(self) -> int:
        """Count the file's records in one O(1)-memory pass and cache it.

        Counting only needs to classify lines (record / blank / comment), so
        this pass skips field parsing and record construction entirely —
        about an order of magnitude cheaper than iterating the stream.
        """
        if self._length is None:
            count = 0
            with _open_text(self.path, "r") as handle:
                for line in handle:
                    stripped = line.strip()
                    if stripped and not stripped.startswith("#"):
                        count += 1
            self._length = count
        return self._length


def _stem(path: Path) -> str:
    """File stem with a trailing ``.gz`` peeled off (``trace.txt.gz`` → ``trace``)."""
    stem = path.stem
    return Path(stem).stem if path.suffix == ".gz" else stem


def stream_trace(
    path: Union[str, Path], name: str = "", length: Optional[int] = None
) -> TraceStream:
    """Return a lazy, replayable stream over the trace file at ``path``.

    The format is auto-detected: paths named ``.strc`` / ``.strc.gz`` — or
    existing files that start with the binary magic — yield a
    :class:`~repro.trace.binary.BinaryTraceStream`, everything else a text
    :class:`FileTraceStream`.

    Pass ``length`` (the known record count) when running the stream through
    an engine with a fraction-based warmup; binary traces carry the count in
    their header, text streams can fall back to
    :meth:`FileTraceStream.count_records`.
    """
    if _binary.has_binary_suffix(path) or _binary.is_binary_trace(path):
        return BinaryTraceStream(path, name=name, length=length)
    return FileTraceStream(path, name=name, length=length)


def read_trace(path: Union[str, Path], name: str = "") -> LaneTrace:
    """Eagerly read a trace file written by :func:`write_trace` (either format)."""
    return LaneTrace.from_records(stream_trace(path, name=name))
