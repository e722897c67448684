"""Trace streams.

A :class:`TraceStream` is a reusable, named source of
:class:`~repro.trace.record.MemoryAccess` records.  Four kinds exist: a
binary file (:class:`~repro.trace.binary.BinaryTraceStream`), a text file
(:class:`~repro.trace.reader.FileTraceStream`), a trace resident in memory as
SoA lanes (:class:`~repro.trace.binary.LaneTrace`) and a synthetic workload
(:class:`~repro.workloads.base.SyntheticWorkload`).  Any other iterable of
records — a list, a generator — is a trace too; :func:`lane_chunk_iterator`
and :func:`iter_chunks` read it one chunk at a time.

Streams are *single-pass on each iteration but replayable across
iterations*: consumers such as the simulation engine iterate them lazily and
never materialize them, so a billion-record stream costs O(chunk) memory.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, Optional

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
    workloads) hand theirs out.  Everything
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

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
