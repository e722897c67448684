"""Binary (struct-packed) trace file I/O — the ``.strc`` format.

Text traces are convenient to inspect and diff, but parsing them dominates
end-to-end reproduction time on full-scale runs: every line costs a split,
two hex conversions, and two code-table lookups.  The binary format stores
the same records struct-packed so the decoder is a single
:meth:`struct.Struct.iter_unpack` sweep over buffered reads (measured as
``trace.decode_boxed_us_per_record`` / ``trace.decode_lanes_us_per_record``
by ``benchmarks/e2e/layers.py``).

File layout
-----------

A ``.strc`` file is a fixed 16-byte header followed by a record payload::

    header  := magic(4s = b"STRC") version(u16) flags(u16) record_count(u64)
    payload := record *
    record  := pc(u64) address(u64) code(u8) cpu(u16) instruction_count(u64)

All integers are little-endian; records are 27 bytes with no padding.  The
``code`` byte is the packed :attr:`~repro.trace.record.MemoryAccess.code`
field (bit 0: write, bit 1: system mode), and the five record fields are laid
out in exactly the order of the :class:`~repro.trace.record.MemoryAccess`
tuple, so decoding a record is ``tuple.__new__(MemoryAccess, unpacked)`` with
no per-record transformation.

Bits 2–7 of ``code`` are reserved: writers emit zero, and readers ignore
them (the enum views mask to the low two bits), so corrupt or
future-format records degrade instead of raising.

``flags`` bit 0 marks a gzip-compressed payload (the ``.strc.gz`` variant).
The header itself is *never* compressed: the writer streams records of
unknown count, then seeks back and patches ``record_count`` — which works
for gzip files too precisely because the header lives outside the compressed
member.  ``record_count`` is ``0xFFFF_FFFF_FFFF_FFFF`` when unknown (e.g. a
foreign writer that could not seek); readers then fall back to counting.

The record count in the header gives :class:`BinaryTraceStream` an exact
``length_hint`` for free, which fraction-based warmup sizing needs and the
text reader can only obtain with a full counting pass.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Union

from repro.trace.record import MemoryAccess
from repro.trace.stream import (
    DEFAULT_CHUNK_SIZE,
    MaterializedTrace,
    TraceStream,
    lane_chunk_iterator,
)

import struct

#: First four bytes of every binary trace file.
MAGIC = b"STRC"

#: Current format version (bumped on any incompatible layout change).
VERSION = 1

#: Header flag bit: the payload is a gzip member.
FLAG_GZIP = 0x0001

#: ``record_count`` sentinel meaning "not recorded".
UNKNOWN_COUNT = 0xFFFF_FFFF_FFFF_FFFF

HEADER = struct.Struct("<4sHHQ")
#: Byte offset of ``record_count`` within the header (patched after writing).
_COUNT_OFFSET = 8

#: One record, in MemoryAccess tuple order: pc, address, code, cpu, icount.
RECORD = struct.Struct("<QQBHQ")
RECORD_SIZE = RECORD.size

_MAX_U64 = 2**64 - 1
_MAX_U16 = 2**16 - 1

#: Records encoded or decoded per I/O batch (~220 kB of payload).
_BATCH_RECORDS = 8192

#: Byte offsets of the u64 fields within one packed record.
_PC_OFFSET = 0
_ADDRESS_OFFSET = 8
_CODE_OFFSET = 16
_CPU_OFFSET = 17
_ICOUNT_OFFSET = 19

#: The strided-slice gather writes raw little-endian bytes straight into
#: ``array`` buffers, so it is only valid where the machine layout matches
#: the file layout.  Everywhere else (big-endian, exotic ``array`` item
#: sizes) the decoder falls back to ``iter_unpack``, which is portable.
_LANES_NATIVE = (
    sys.byteorder == "little"
    and array("Q").itemsize == 8
    and array("H").itemsize == 2
)


class LaneChunk:
    """One decoded chunk as parallel SoA integer lanes.

    Five flat ``array`` columns hold the same fields a list of
    :class:`~repro.trace.record.MemoryAccess` tuples would, without boxing a
    single record: ``pc``/``address``/``instruction_count`` are ``array('Q')``,
    ``code`` is ``array('B')``, ``cpu`` is ``array('H')``.  The engine's lane
    path walks these with a single ``zip``; boxed records exist only where a
    slow path explicitly asks for them (:meth:`record` / :meth:`records`).
    """

    __slots__ = ("pc", "address", "code", "cpu", "instruction_count")

    def __init__(self, pc, address, code, cpu, instruction_count) -> None:
        self.pc = pc
        self.address = address
        self.code = code
        self.cpu = cpu
        self.instruction_count = instruction_count

    @classmethod
    def empty(cls) -> "LaneChunk":
        return cls(array("Q"), array("Q"), array("B"), array("H"), array("Q"))

    @classmethod
    def from_records(cls, records: Iterable[MemoryAccess]) -> "LaneChunk":
        """Transpose boxed records into lanes — the inverse of :meth:`records`.

        One ``zip(*records)`` splits the tuples into five columns and each
        ``array`` constructor adopts its column at C speed; no per-record
        Python bytecode runs.  A field outside the ``.strc`` record range
        (u64 ``pc``/``address``/``instruction_count``, u16 ``cpu``, u8
        ``code``) raises ``ValueError``, as :func:`write_trace_binary` does.
        """
        columns = tuple(zip(*records))
        if not columns:
            return cls.empty()
        try:
            pc, address, code, cpu, icount = columns
            return cls(
                array("Q", pc), array("Q", address), array("B", code),
                array("H", cpu), array("Q", icount),
            )
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(
                f"record field outside the lane range (u64 pc/address/"
                f"instruction_count, u16 cpu, u8 code): {exc}"
            ) from exc

    def __len__(self) -> int:
        return len(self.address)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaneChunk):
            return NotImplemented
        return (
            self.address == other.address
            and self.pc == other.pc
            and self.code == other.code
            and self.cpu == other.cpu
            and self.instruction_count == other.instruction_count
        )

    __hash__ = None  # mutable columns; equality is by content

    def extend(self, other: "LaneChunk") -> None:
        """Append ``other``'s records lane-wise (bulk trace assembly only)."""
        self.pc.extend(other.pc)
        self.address.extend(other.address)
        self.code.extend(other.code)
        self.cpu.extend(other.cpu)
        self.instruction_count.extend(other.instruction_count)

    def slice(self, start: int, stop: Optional[int] = None) -> "LaneChunk":
        """Lane-wise ``[start:stop]`` view copy (warmup/limit boundaries only)."""
        return LaneChunk(
            self.pc[start:stop],
            self.address[start:stop],
            self.code[start:stop],
            self.cpu[start:stop],
            self.instruction_count[start:stop],
        )

    def record(self, index: int) -> MemoryAccess:
        """Box one record (slow paths: snapshots, diagnostics)."""
        return tuple.__new__(
            MemoryAccess,
            (
                self.pc[index],
                self.address[index],
                self.code[index],
                self.cpu[index],
                self.instruction_count[index],
            ),
        )

    def records(self) -> List[MemoryAccess]:
        """Box every record — the deliberate lane → namedtuple escape hatch."""
        new = tuple.__new__
        cls = MemoryAccess
        return [
            new(cls, fields)
            for fields in zip(
                self.pc, self.address, self.code, self.cpu, self.instruction_count
            )
        ]


def _gather_u64(data: bytes, offset: int, count: int) -> array:
    """Collect one u64 column from packed records via strided byte slices.

    Eight C-speed slice assignments (one per byte position) transpose the
    column into a contiguous little-endian buffer, which ``array('Q')``
    adopts wholesale — no per-record Python bytecode at all.
    """
    buf = bytearray(8 * count)
    for j in range(8):
        buf[j::8] = data[offset + j :: RECORD_SIZE]
    out = array("Q")
    out.frombytes(bytes(buf))
    return out


def _gather_u16(data: bytes, offset: int, count: int) -> array:
    buf = bytearray(2 * count)
    buf[0::2] = data[offset::RECORD_SIZE]
    buf[1::2] = data[offset + 1 :: RECORD_SIZE]
    out = array("H")
    out.frombytes(bytes(buf))
    return out


def _decode_lanes_portable(data: bytes) -> LaneChunk:
    """Reference lane decoder over ``iter_unpack`` (any byte order)."""
    return LaneChunk.from_records(RECORD.iter_unpack(data))


def decode_record_lanes(data: bytes) -> LaneChunk:
    """Decode a whole-record payload slice straight into SoA lanes.

    ``data`` must be a multiple of :data:`RECORD_SIZE` bytes (the chunk
    iterator guarantees this; anything else raises ``ValueError`` exactly as
    a torn tail would).  Field-for-field identical to boxing via
    ``RECORD.iter_unpack`` — pinned by a hypothesis property test.
    """
    count, remainder = divmod(len(data), RECORD_SIZE)
    if remainder:
        raise ValueError(
            f"lane decode needs whole records "
            f"({remainder} trailing bytes are not a whole record)"
        )
    if not _LANES_NATIVE:
        return _decode_lanes_portable(data)
    return LaneChunk(
        _gather_u64(data, _PC_OFFSET, count),
        _gather_u64(data, _ADDRESS_OFFSET, count),
        array("B", data[_CODE_OFFSET::RECORD_SIZE]),
        _gather_u16(data, _CPU_OFFSET, count),
        _gather_u64(data, _ICOUNT_OFFSET, count),
    )


def is_binary_trace(path: Union[str, Path]) -> bool:
    """True when ``path`` exists and starts with the binary trace magic."""
    path = Path(path)
    try:
        with path.open("rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def has_binary_suffix(path: Union[str, Path]) -> bool:
    """True when ``path`` is named as a binary trace (``.strc`` / ``.strc.gz``)."""
    name = Path(path).name
    return name.endswith(".strc") or name.endswith(".strc.gz")


def _read_header(handle: IO[bytes], path: Path) -> tuple:
    """Read and validate the 16-byte header; return (flags, record_count)."""
    raw = handle.read(HEADER.size)
    if len(raw) < HEADER.size:
        raise ValueError(
            f"{path}: truncated binary trace header "
            f"(got {len(raw)} bytes, need {HEADER.size})"
        )
    magic, version, flags, record_count = HEADER.unpack(raw)
    if magic != MAGIC:
        raise ValueError(
            f"{path}: not a binary trace (bad magic {magic!r}; expected {MAGIC!r})"
        )
    if version != VERSION:
        raise ValueError(
            f"{path}: unsupported binary trace version {version} "
            f"(this reader supports version {VERSION})"
        )
    return flags, record_count


def _write_checked_records(payload: IO[bytes], records: Iterable[MemoryAccess]) -> int:
    """Pack boxed records into ``payload`` in batches, range-checking each."""
    count = 0
    pack = RECORD.pack
    batch: List[bytes] = []
    append = batch.append
    for record in records:
        pc, address, code, cpu, icount = record
        if not (0 <= pc <= _MAX_U64 and 0 <= address <= _MAX_U64
                and 0 <= icount <= _MAX_U64):
            raise ValueError(
                f"record {count}: field outside the unsigned 64-bit range "
                f"(pc={pc:#x}, address={address:#x}, "
                f"instruction_count={icount})"
            )
        if not 0 <= cpu <= _MAX_U16:
            raise ValueError(
                f"record {count}: cpu {cpu} outside the unsigned 16-bit range"
            )
        append(pack(pc, address, code, cpu, icount))
        count += 1
        if len(batch) >= _BATCH_RECORDS:
            payload.write(b"".join(batch))
            batch.clear()
    if batch:
        payload.write(b"".join(batch))
    return count


def write_trace_binary(
    path: Union[str, Path],
    records: Iterable[MemoryAccess],
    compress: Optional[bool] = None,
) -> int:
    """Write ``records`` to ``path`` in the binary format; return the count.

    ``records`` is consumed lazily in batches, so streams of any length can
    be written in O(batch) memory.  A lane-native source (``iter_lane_chunks``:
    a :class:`LaneTrace`, a synthetic workload, another ``.strc`` stream) is
    packed straight from its columns, which are in range by construction;
    anything else is unpacked and range-checked record by record.
    ``compress`` defaults to the file name (``.gz`` suffix); the header stays
    uncompressed either way so the record count can be patched in after the
    stream has been consumed.  Output is byte-for-byte deterministic (the
    gzip member carries no timestamp) and the same for either kind of source.
    """
    path = Path(path)
    if compress is None:
        compress = path.suffix == ".gz"
    flags = FLAG_GZIP if compress else 0
    count = 0
    with path.open("wb") as raw:
        raw.write(HEADER.pack(MAGIC, VERSION, flags, UNKNOWN_COUNT))
        payload: IO[bytes] = (
            gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
            if compress
            else raw
        )
        try:
            lane_chunks = getattr(records, "iter_lane_chunks", None)
            if lane_chunks is None:
                count = _write_checked_records(payload, records)
            else:
                for chunk in lane_chunks(_BATCH_RECORDS):
                    payload.write(b"".join(map(
                        RECORD.pack, chunk.pc, chunk.address, chunk.code, chunk.cpu,
                        chunk.instruction_count,
                    )))
                    count += len(chunk)
        finally:
            if compress:
                payload.close()  # finish the gzip member before patching
        raw.seek(_COUNT_OFFSET)
        raw.write(struct.pack("<Q", count))
    return count


class BinaryTraceStream(TraceStream):
    """A replayable stream backed by a binary (``.strc``) trace file.

    Each iteration re-opens the file and decodes records in batches, so
    iterating costs O(batch) memory regardless of file size.  The header's
    record count doubles as an exact :meth:`length_hint`, making
    fraction-based warmup sizing free.

    :meth:`iter_chunks` yields the decoder's batch lists directly, letting
    chunk-oriented consumers (the simulation engine) skip the per-record
    generator hop entirely.
    """

    def __init__(
        self, path: Union[str, Path], name: str = "", length: Optional[int] = None
    ) -> None:
        self.path = Path(path)
        super().__init__(name=name or _binary_stem(self.path))
        if length is not None and length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        self._length = length

    # ------------------------------------------------------------------ #
    def _open_payload(self):
        """Open the file, validate the header; return (handle, raw, count).

        ``raw`` is the underlying file object — callers must close it as
        well as ``handle``, because closing a ``GzipFile`` does not close
        the fileobj it wraps.
        """
        raw = self.path.open("rb")
        try:
            flags, record_count = _read_header(raw, self.path)
        except (OSError, ValueError):
            # Header validation can only fail these two ways (short read /
            # bad magic-version); anything else would leak the handle on
            # purpose so the real bug surfaces undisturbed.
            raw.close()
            raise
        handle: IO[bytes] = (
            gzip.GzipFile(filename="", mode="rb", fileobj=raw) if flags & FLAG_GZIP else raw
        )
        count = None if record_count == UNKNOWN_COUNT else record_count
        return handle, raw, count

    def _iter_record_bytes(self, chunk_size: int) -> Iterator[bytes]:
        """The payload as whole-record byte slices of up to ``chunk_size``
        records — the framing both decoders below share: a torn tail or a
        payload that disagrees with the header's count raises ``ValueError``
        once the file is exhausted, and a full pass records the length."""
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        handle, raw, expected = self._open_payload()
        read_bytes = chunk_size * RECORD_SIZE
        decoded = 0
        pending = b""
        try:
            while True:
                data = handle.read(read_bytes)
                if not data:
                    break
                if pending:
                    data = pending + data
                    pending = b""
                remainder = len(data) % RECORD_SIZE
                if remainder:
                    pending = data[-remainder:]
                    data = data[:-remainder]
                if not data:
                    continue
                decoded += len(data) // RECORD_SIZE
                yield data
        finally:
            handle.close()
            raw.close()
        if pending:
            raise ValueError(
                f"{self.path}: truncated binary trace "
                f"({len(pending)} trailing bytes are not a whole record)"
            )
        if expected is not None and decoded != expected:
            raise ValueError(
                f"{self.path}: header promises {expected} records "
                f"but the payload holds {decoded}"
            )
        if self._length is None:
            self._length = decoded

    def iter_chunks(
        self, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[List[MemoryAccess]]:
        """Decode the file as successive record lists of ``chunk_size``."""
        new = tuple.__new__
        cls = MemoryAccess
        iter_unpack = RECORD.iter_unpack
        for data in self._iter_record_bytes(chunk_size):
            yield [new(cls, fields) for fields in iter_unpack(data)]

    def iter_lane_chunks(
        self, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[LaneChunk]:
        """Decode the file as successive :class:`LaneChunk` SoA batches.

        Identical framing to :meth:`iter_chunks` (same chunk boundaries, same
        torn-tail and header-count validation, same errors) but each chunk is
        five flat integer lanes instead of a list of boxed records — the
        engine's lane path consumes these directly.
        """
        for data in self._iter_record_bytes(chunk_size):
            yield decode_record_lanes(data)

    def __iter__(self) -> Iterator[MemoryAccess]:
        for chunk in self.iter_chunks():
            yield from chunk

    # ------------------------------------------------------------------ #
    def length_hint(self) -> Optional[int]:
        if self._length is None:
            try:
                with self.path.open("rb") as raw:
                    _, record_count = _read_header(raw, self.path)
            except (OSError, ValueError):
                return None
            if record_count != UNKNOWN_COUNT:
                self._length = record_count
        return self._length

    def count_records(self) -> int:
        """Record count — free from the header, one pass only if unrecorded."""
        if self._length is None and self.length_hint() is None:
            count = 0
            for chunk in self.iter_chunks():
                count += len(chunk)
            self._length = count
        return self._length


class LaneTrace(TraceStream):
    """A whole trace resident in memory as one set of SoA lanes.

    The replayable, immutable in-memory trace of the experiment and serve
    paths: 27 bytes per record instead of a boxed tuple, handed to the
    engine's lane loop as-is.  Consumers that want records (density and
    opportunity analysis) iterate it
    like any stream and get them boxed lazily, one chunk at a time.  Nothing
    mutates the lanes after construction; every configuration of a figure
    replays the same instance.
    """

    def __init__(self, lanes: LaneChunk, name: str = "trace", metadata=None) -> None:
        super().__init__(name=name)
        self.lanes = lanes
        self.metadata = metadata

    @classmethod
    def from_records(
        cls, records: Iterable[MemoryAccess], metadata=None, name: Optional[str] = None
    ) -> "LaneTrace":
        """Drain ``records`` (any iterable, consumed once) into lanes.

        Only one chunk is alive beside the growing lanes, so building from a
        lazy generator peaks at the lanes plus O(chunk) boxed records — and a
        lane-native source (a ``.strc`` stream) is never boxed at all.
        """
        lanes = LaneChunk.empty()
        for chunk in lane_chunk_iterator(records):
            lanes.extend(chunk)
        return cls(lanes, name or getattr(records, "name", "trace"), metadata)

    @classmethod
    def from_file(cls, path: Union[str, Path], metadata=None, name: str = "") -> "LaneTrace":
        """Decode a ``.strc`` file straight into lanes — no record is boxed.

        Raises ``OSError``/``ValueError`` exactly as :class:`BinaryTraceStream`
        does for a missing file, bad header, torn tail or count mismatch.
        """
        return cls.from_records(BinaryTraceStream(path, name=name), metadata)

    def __len__(self) -> int:
        return len(self.lanes)

    def length_hint(self) -> int:
        return len(self.lanes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaneTrace):
            return NotImplemented
        return self.lanes == other.lanes

    __hash__ = None

    def iter_lane_chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[LaneChunk]:
        """The resident lanes in ``chunk_size`` steps; uncopied when they fit one."""
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        lanes = self.lanes
        total = len(lanes)
        if total <= chunk_size:
            if total:
                yield lanes
            return
        for start in range(0, total, chunk_size):
            yield lanes.slice(start, start + chunk_size)

    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[List[MemoryAccess]]:
        for chunk in self.iter_lane_chunks(chunk_size):
            yield chunk.records()

    def __iter__(self) -> Iterator[MemoryAccess]:
        for chunk in self.iter_chunks():
            yield from chunk


def _binary_stem(path: Path) -> str:
    """File stem with ``.gz`` and ``.strc`` peeled off (``t.strc.gz`` → ``t``)."""
    stem = path.stem
    while stem != (stripped := Path(stem).stem):
        stem = stripped
    return stem


def read_trace_binary(path: Union[str, Path], name: str = "") -> MaterializedTrace:
    """Eagerly read a binary trace into a :class:`MaterializedTrace`.

    The result list is preallocated from the header's record count (when
    recorded) and filled by boxing whole lane chunks at a time, then adopted
    by the trace without the defensive copy ``MaterializedTrace(records)``
    would make — one list, sized once, built once.
    """
    stream = BinaryTraceStream(path, name=name)
    expected = stream.length_hint()
    cursor = 0
    if expected is None:
        records: List[MemoryAccess] = []
        for chunk in stream.iter_lane_chunks():
            records.extend(chunk.records())
            cursor += len(chunk)
    else:
        records = [None] * expected  # type: ignore[list-item]
        for chunk in stream.iter_lane_chunks():
            boxed = chunk.records()
            records[cursor : cursor + len(boxed)] = boxed
            cursor += len(boxed)
    return MaterializedTrace.adopt(records, name=stream.name)
