"""Trace streams.

A :class:`TraceStream` is a reusable, named source of
:class:`~repro.trace.record.MemoryAccess` records.  Streams can be
materialized (a list in memory), generated lazily from a callable, or
wrapped in a :class:`ChunkedTraceStream` for bounded-memory chunk iteration.

Streams are *single-pass on each iteration but replayable across
iterations*: consumers such as the simulation engine iterate them lazily and
never materialize them, so a billion-record stream costs O(chunk) memory.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from repro.trace.record import MemoryAccess

#: Default number of records per chunk for chunked iteration.  Large enough
#: to amortize generator dispatch overhead, small enough to stay cache- and
#: memory-friendly.
DEFAULT_CHUNK_SIZE = 4096


def iter_chunks(
    records: Iterable[MemoryAccess], chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[List[MemoryAccess]]:
    """Yield ``records`` as successive lists of up to ``chunk_size`` records.

    Only one chunk is resident at a time, so this is the building block for
    single-pass consumers (the simulation engine's fast path iterates chunks
    rather than individual records).
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    iterator = iter(records)
    while True:
        chunk = list(islice(iterator, chunk_size))
        if not chunk:
            return
        yield chunk


def _limit_lane_chunks(chunks, limit: int):
    """Truncate a lane-chunk iterator to ``limit`` records (lazy ``islice``)."""
    remaining = limit
    if remaining <= 0:
        return
    for chunk in chunks:
        size = len(chunk)
        if size < remaining:
            remaining -= size
            yield chunk
        else:
            yield chunk.slice(0, remaining)
            return


def lane_chunk_iterator(
    stream, chunk_size: int = DEFAULT_CHUNK_SIZE, limit: Optional[int] = None
):
    """Iterate any trace as SoA lane chunks, at most ``limit`` records in all.

    Streams that hold, decode or generate lanes natively (``iter_lane_chunks``:
    binary trace files, :class:`~repro.trace.binary.LaneTrace`, synthetic
    workloads, chunked views over any of them) hand theirs out.  Everything
    else — text traces, record lists, plain generators — is read one boxed
    chunk at a time and transposed with ``LaneChunk.from_records``, so a lazy
    stream still costs O(chunk) memory and ``limit`` still does finite work
    on an endless one.
    """
    method = getattr(stream, "iter_lane_chunks", None)
    if method is not None:
        chunks = method(chunk_size)
        return chunks if limit is None else _limit_lane_chunks(chunks, limit)
    from repro.trace.binary import LaneChunk  # binary imports this module

    records = iter(stream) if limit is None else islice(iter(stream), limit)
    return map(LaneChunk.from_records, iter_chunks(records, chunk_size))


def stream_length_hint(stream) -> Optional[int]:
    """Best-effort record count of ``stream`` without iterating it.

    Returns the exact ``len`` for sized containers, the stream's own
    :meth:`TraceStream.length_hint` when it provides one, or a
    ``total_accesses`` attribute (synthetic workloads), else ``None``.
    """
    try:
        return len(stream)
    except TypeError:
        pass
    hint_method = getattr(stream, "length_hint", None)
    if callable(hint_method):
        hint = hint_method()
        if hint is not None and hint >= 0:
            return hint
    total = getattr(stream, "total_accesses", None)
    if isinstance(total, int) and total >= 0:
        return total
    return None


def resolve_warmup_count(
    stream,
    fraction: float,
    limit: Optional[int] = None,
    warmup_accesses: Optional[int] = None,
) -> int:
    """Number of leading records that warm state without being measured.

    Resolution order: an explicit ``warmup_accesses``, then ``fraction`` of
    the stream's length hint (``len`` / ``length_hint()`` /
    ``total_accesses`` — never by materializing the stream), with ``limit``
    standing in for the length when no hint exists.  Raises ``ValueError``
    when a fraction-based warmup is requested but no length source exists.
    """
    if warmup_accesses is not None:
        if warmup_accesses < 0:
            raise ValueError(f"warmup_accesses must be non-negative, got {warmup_accesses}")
        return warmup_accesses if limit is None else min(warmup_accesses, limit)
    if fraction == 0.0:
        return 0
    length = stream_length_hint(stream)
    if length is None:
        length = limit
    elif limit is not None:
        length = min(length, limit)
    if length is None:
        raise ValueError(
            "cannot size the warmup phase: the trace has no length hint; "
            "pass warmup_accesses=..., give the stream a length hint, or use "
            "a warmup fraction of 0"
        )
    return int(length * fraction)


class TraceStream:
    """Base class for replayable access streams.

    Subclasses must implement :meth:`__iter__` such that iterating the stream
    twice yields the same sequence of records (replayability is what lets the
    benchmark harness run the same trace through many predictor
    configurations).
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name

    def __iter__(self) -> Iterator[MemoryAccess]:  # pragma: no cover - interface
        raise NotImplementedError

    def length_hint(self) -> Optional[int]:
        """Expected number of records, or ``None`` when unknown.

        Consumers use this to size warmup phases without materializing the
        stream; an estimate is acceptable.
        """
        return None

    def materialize(self) -> "MaterializedTrace":
        """Return an in-memory copy of this stream."""
        return MaterializedTrace(list(self), name=self.name)

    def take(self, count: int) -> "MaterializedTrace":
        """Return the first ``count`` records as a materialized trace."""
        records = list(islice(iter(self), count))
        return MaterializedTrace(records, name=f"{self.name}[:{count}]")

    def chunked(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> "ChunkedTraceStream":
        """Wrap this stream for bounded-memory chunk iteration."""
        return ChunkedTraceStream(self, chunk_size=chunk_size)

    def iter_chunks(
        self, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[List[MemoryAccess]]:
        """Iterate this stream as successive record lists of ``chunk_size``."""
        return iter_chunks(self, chunk_size)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class MaterializedTrace(TraceStream):
    """A trace held entirely in memory."""

    def __init__(self, records: Sequence[MemoryAccess], name: str = "trace") -> None:
        super().__init__(name=name)
        self._records = list(records)

    @classmethod
    def adopt(cls, records: List[MemoryAccess], name: str = "trace") -> "MaterializedTrace":
        """Wrap an existing record list without copying it.

        The caller cedes ownership: mutating ``records`` afterwards mutates
        the trace.  Used by bulk readers that already built the exact list
        (``read_trace_binary`` preallocates from the header count) so the
        constructor's defensive ``list(records)`` copy is not paid twice.
        """
        trace = cls.__new__(cls)
        TraceStream.__init__(trace, name=name)
        trace._records = records
        return trace

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def length_hint(self) -> Optional[int]:
        return len(self._records)

    def __getitem__(self, index):
        return self._records[index]

    def append(self, record: MemoryAccess) -> None:
        self._records.append(record)

    def extend(self, records: Iterable[MemoryAccess]) -> None:
        self._records.extend(records)

    @property
    def records(self) -> List[MemoryAccess]:
        return self._records

    def split_warmup(self, fraction: float = 0.5) -> tuple:
        """Split into (warmup, measurement) traces.

        The paper uses half of each trace for warm-up prior to collecting
        experimental results (Section 4); this helper mirrors that.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        cut = int(len(self._records) * fraction)
        warm = MaterializedTrace(self._records[:cut], name=f"{self.name}:warmup")
        meas = MaterializedTrace(self._records[cut:], name=f"{self.name}:measure")
        return warm, meas


class GeneratedTrace(TraceStream):
    """A trace produced lazily by a factory callable.

    The factory is invoked afresh on every iteration so that the stream is
    replayable provided the factory is deterministic.  ``length`` is an
    optional record-count hint (it need not be exact) that lets consumers
    size warmup phases without materializing the stream.
    """

    def __init__(
        self,
        factory: Callable[[], Iterable[MemoryAccess]],
        name: str = "generated",
        length: Optional[int] = None,
    ) -> None:
        super().__init__(name=name)
        if length is not None and length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        self._factory = factory
        self._length = length

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self._factory())

    def length_hint(self) -> Optional[int]:
        return self._length


class ChunkedTraceStream(TraceStream):
    """A view of another stream that iterates in bounded-size chunks.

    Flat iteration (``for record in stream``) behaves exactly like the source
    stream; :meth:`iter_chunks` exposes the chunk granularity directly.  Only
    one chunk is ever resident, so wrapping a lazy source keeps memory
    O(chunk_size) regardless of trace length.
    """

    def __init__(
        self,
        source: Iterable[MemoryAccess],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        name: Optional[str] = None,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        super().__init__(name=name or getattr(source, "name", "chunked"))
        self._source = source
        self.chunk_size = chunk_size

    def __iter__(self) -> Iterator[MemoryAccess]:
        for chunk in self.iter_chunks():
            yield from chunk

    def iter_chunks(
        self, chunk_size: Optional[int] = None
    ) -> Iterator[List[MemoryAccess]]:
        return iter_chunks(self._source, chunk_size or self.chunk_size)

    def iter_lane_chunks(self, chunk_size: Optional[int] = None):
        """Lane iteration over the source at this view's chunk size."""
        return lane_chunk_iterator(self._source, chunk_size or self.chunk_size)

    def length_hint(self) -> Optional[int]:
        return stream_length_hint(self._source)

