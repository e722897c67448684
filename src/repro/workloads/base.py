"""Workload-generator framework: synthetic traces, generated straight into lanes.

A :class:`SyntheticWorkload` produces a deterministic, replayable
multiprocessor memory-access trace.  Each concrete workload implements
:meth:`SyntheticWorkload.lane_batches` — one processor's access stream, a
batch at a time — and :meth:`SyntheticWorkload.iter_lane_chunks` interleaves
the per-CPU batches at fine granularity, mirroring independent processors
sharing one memory system, straight into
:class:`~repro.trace.binary.LaneChunk` columns.  A
:class:`~repro.trace.record.MemoryAccess` exists only if a consumer iterates
the workload record by record, which boxes the lane chunks.

Row layout
    A generated access is the row ``(pc, address, code, instruction_count)``:
    ``code`` is the packed ``MemoryAccess.code`` (bit 0 write, bit 1 system
    mode), ``instruction_count`` the processor's running instruction total up
    to and including the access.  The interleaver adds the CPU.

Batch contract
    ``lane_batches(cpu, rng)`` is an endless generator of batches, each a
    natural unit of the workload (a transaction group, a database page, a
    stencil row) of at least one row, held as four equal-length lists
    ``(pcs, addresses, codes, instruction_counts)`` that the interleaver only
    reads.  :meth:`SyntheticWorkload.lane_writer` builds the closures that
    write rows and hand the finished batch over.

RNG order
    Every trace — and so every golden, census row and ``sim_digest`` — is a
    function of the order in which each generator draws from its own
    ``random.Random``.  Draws may be *spelled* differently (on CPython 3.9 -
    3.12 ``randrange(n)`` / ``randint`` / ``choice`` are rejection sampling on
    ``getrandbits(n.bit_length())`` and ``expovariate(l)`` is
    ``-log(1.0 - random()) / l``), never reordered, added or skipped: a draw
    whose result is unused (a write draw at probability 0) is still made.
    ``tests/test_workload_digests.py`` pins the result.

Exhaustion
    A CPU emits exactly ``accesses_per_cpu`` rows.  A burst that asks for
    more than the CPU has left emits what is left and retires the CPU; one
    that asks for exactly what is left does not — the next pick of that CPU
    emits nothing and retires it then.

:class:`AddressSpace` hands out non-overlapping, region-aligned address ranges
for named data structures (buffer pool, log, hash table, grids, ...) so
workloads can be composed without accidental aliasing;
:class:`FootprintLibrary` stores the per-operation spatial footprints (sets of
block offsets) that give each workload its code-correlated spatial structure,
with controlled jitter.
"""

from __future__ import annotations

import random
from array import array
from itertools import accumulate
from math import log
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.trace.binary import LaneChunk
from repro.trace.record import CODE_SYSTEM, CODE_WRITE, MemoryAccess
from repro.trace.stream import DEFAULT_CHUNK_SIZE, TraceStream
from repro.workloads.names import WorkloadMetadata  # noqa: F401 - its long-standing import path

#: One batch of rows as columns: pcs, addresses, codes, instruction counts.
Batch = Tuple[List[int], List[int], List[int], List[int]]


class AddressSpace:
    """Allocates non-overlapping, aligned address ranges for named structures."""

    def __init__(self, base: int = 0x1000_0000, alignment: int = 8192) -> None:
        if alignment <= 0 or alignment & (alignment - 1):
            raise ValueError(f"alignment must be a power of two, got {alignment}")
        self._next = base
        self._alignment = alignment
        self._ranges: Dict[str, Tuple[int, int]] = {}

    def allocate(self, name: str, size_bytes: int) -> int:
        """Reserve ``size_bytes`` for ``name`` and return the base address."""
        if name in self._ranges:
            raise ValueError(f"structure {name!r} already allocated")
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {size_bytes}")
        base = self._next
        aligned_size = (size_bytes + self._alignment - 1) & ~(self._alignment - 1)
        self._next = base + aligned_size
        self._ranges[name] = (base, aligned_size)
        return base

    def base(self, name: str) -> int:
        return self._ranges[name][0]

    def size(self, name: str) -> int:
        return self._ranges[name][1]

    def contains(self, name: str, address: int) -> bool:
        base, size = self._ranges[name]
        return base <= address < base + size

    def structures(self) -> List[str]:
        return list(self._ranges)


class FootprintLibrary:
    """Per-operation spatial footprints with controlled jitter.

    A *footprint* is a set of block offsets (relative to a region base) that
    one code sequence touches when it operates on an instance of a data
    structure.  ``sample`` re-draws the footprint with small jitter so that
    patterns recur without being perfectly identical — this is what limits
    coverage below 100% and produces realistic overpredictions.
    """

    def __init__(self, blocks_per_region: int = 32) -> None:
        self.blocks_per_region = blocks_per_region
        self._footprints: Dict[str, List[int]] = {}
        #: The offsets of the region *outside* each footprint, in offset order.
        self._complements: Dict[str, List[int]] = {}

    def define(self, name: str, offsets: Sequence[int]) -> None:
        for offset in offsets:
            if not 0 <= offset < self.blocks_per_region:
                raise ValueError(
                    f"offset {offset} out of range for {self.blocks_per_region}-block region"
                )
        members = set(offsets)
        self._footprints[name] = sorted(members)
        self._complements[name] = [
            offset for offset in range(self.blocks_per_region) if offset not in members
        ]

    def define_dense(self, name: str, start: int, count: int) -> None:
        self.define(name, list(range(start, min(start + count, self.blocks_per_region))))

    def offsets(self, name: str) -> List[int]:
        return list(self._footprints[name])

    def names(self) -> List[str]:
        return list(self._footprints)

    def sample(
        self,
        name: str,
        rng: random.Random,
        drop_probability: float = 0.0,
        add_probability: float = 0.0,
    ) -> List[int]:
        """Return the footprint with per-block jitter applied.

        Draws once per footprint offset when dropping, then once per offset
        outside the footprint when adding, both in offset order.
        """
        uniform = rng.random
        base = self._footprints[name]
        result = [
            offset for offset in base if not drop_probability or uniform() >= drop_probability
        ]
        if add_probability:
            result += [
                offset for offset in self._complements[name] if uniform() < add_probability
            ]
            result.sort()
        if not result:
            result = [base[0]] if base else [0]
        return result


def _lane_interleave(getrandbits: Callable[[int], int], bounds: List[int]) -> List[int]:
    """Order in which the rows of several concurrent operations are issued.

    Operation ``k`` wrote rows ``bounds[k]`` to ``bounds[k + 1]``.  A live
    operation is picked (``choice``) and issues its next 1-3 rows
    (``randint(1, 3)``) until all have issued every row: each operation keeps
    its own order while the group interleaves.
    """
    cursors = bounds[:-1]
    stops = bounds[1:]
    live = [op for op, stop in enumerate(stops) if cursors[op] < stop]
    order: List[int] = []
    issue = order.extend
    while live:
        count = len(live)
        bits = count.bit_length()
        pick = getrandbits(bits)
        while pick >= count:
            pick = getrandbits(bits)
        op = live[pick]
        extra = getrandbits(2)
        while extra >= 3:
            extra = getrandbits(2)
        start = cursors[op]
        stop = start + 1 + extra
        if stop >= stops[op]:
            stop = stops[op]
            del live[pick]
        issue(range(start, stop))
        cursors[op] = stop
    return order


def _lane_chunk(columns) -> LaneChunk:
    return LaneChunk(*map(array, "QQBHQ", columns))


class SyntheticWorkload(TraceStream):
    """Base class for all synthetic workloads."""

    #: Override in subclasses.
    metadata = WorkloadMetadata(name="abstract", category="none")

    #: Cache block size used when laying out footprints.
    block_size = 64

    def __init__(
        self,
        num_cpus: int = 16,
        accesses_per_cpu: int = 8000,
        seed: int = 42,
        interleave_burst: int = 6,
        instructions_per_access: float = 3.0,
    ) -> None:
        super().__init__(name=self.metadata.name)
        if num_cpus <= 0:
            raise ValueError(f"num_cpus must be positive, got {num_cpus}")
        if accesses_per_cpu <= 0:
            raise ValueError(f"accesses_per_cpu must be positive, got {accesses_per_cpu}")
        if instructions_per_access <= 0:
            raise ValueError(
                f"instructions_per_access must be positive, got {instructions_per_access}"
            )
        self.num_cpus = num_cpus
        self.accesses_per_cpu = accesses_per_cpu
        self.seed = seed
        self.interleave_burst = interleave_burst
        self.instructions_per_access = instructions_per_access

    # ------------------------------------------------------------------ #
    # Subclass interface
    # ------------------------------------------------------------------ #
    def lane_batches(self, cpu: int, rng: random.Random) -> Iterator[Batch]:
        """Yield the (unbounded) access stream of processor ``cpu``, a batch at a time."""
        raise NotImplementedError

    def lane_writer(self, rng: random.Random):
        """Build one processor's row writer: ``(access, footprint, end_operation, take)``.

        ``access(pc, address, code=0)`` writes one row, advancing the
        instruction counter by ``1 + int(expovariate(1 /
        instructions_per_access))`` — one draw per row.

        ``footprint(region_base, offsets, pc_base, write_probability=0.0,
        system=False, loop_pc=False)`` writes one row per block offset,
        drawing the write decision and then the instruction step for each.
        With ``loop_pc=False`` each position gets its own PC, as when
        straight-line code walks the fields of a structure; with
        ``loop_pc=True`` every row comes from the same PC, as when one load
        inside a loop strides through a buffer — the case delta-correlation
        prefetchers such as GHB can exploit.

        ``end_operation()`` closes one of several concurrent operations;
        ``take()`` returns the rows written since the last ``take`` (at least
        one) as a :data:`Batch`.  Closed operations are interleaved
        (:func:`_lane_interleave`) while the instruction counts stay in the
        order they were drawn, which keeps the counter monotonic and preserves
        the group's instruction budget and its distribution.
        """
        uniform = rng.random
        getrandbits = rng.getrandbits
        rate = 1.0 / self.instructions_per_access
        block_size = self.block_size
        pcs, addresses, codes, steps = scratch = ([], [], [], [])
        bounds = [0]
        add_pc = pcs.append
        add_address = addresses.append
        add_code = codes.append
        add_step = steps.append
        instruction_count = 0

        def access(pc: int, address: int, code: int = 0) -> None:
            add_pc(pc)
            add_address(address)
            add_code(code)
            add_step(int(-log(1.0 - uniform()) / rate) + 1)

        def footprint(
            region_base: int,
            offsets: Sequence[int],
            pc_base: int,
            write_probability: float = 0.0,
            system: bool = False,
            loop_pc: bool = False,
        ) -> None:
            read = CODE_SYSTEM if system else 0
            write = read | CODE_WRITE
            pc = pc_base
            pc_step = 0 if loop_pc else 4
            for offset in offsets:
                add_code(write if uniform() < write_probability else read)
                add_step(int(-log(1.0 - uniform()) / rate) + 1)
                add_pc(pc)
                add_address(region_base + offset * block_size)
                pc += pc_step

        def end_operation() -> None:
            bounds.append(len(pcs))

        def take() -> Batch:
            nonlocal instruction_count
            steps[0] += instruction_count
            counts = list(accumulate(steps))
            instruction_count = counts[-1]
            if len(bounds) > 1:
                order = _lane_interleave(getrandbits, bounds)
                del bounds[1:]
                batch = tuple(list(map(column.__getitem__, order)) for column in scratch[:3])
            else:
                batch = (pcs[:], addresses[:], codes[:])
            for column in scratch:
                column.clear()
            return batch + (counts,)

        return access, footprint, end_operation, take

    # ------------------------------------------------------------------ #
    # Trace production
    # ------------------------------------------------------------------ #
    def iter_lane_chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[LaneChunk]:
        """Interleave the per-CPU batches into one multiprocessor trace.

        Lazy: batches are produced as bursts consume them, and every chunk
        but the last holds exactly ``chunk_size`` records.
        """
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        scheduler = random.Random(self.seed * 7919 + 13)
        getrandbits = scheduler.getrandbits
        uniform = scheduler.random
        rate = 1.0 / self.interleave_burst
        cpus = range(self.num_cpus)
        producers = [
            self.lane_batches(cpu, random.Random(self.seed * 1_000_003 + cpu)) for cpu in cpus
        ]
        # Per CPU: the columns of its latest batches and how far they are consumed.
        columns: List[Batch] = [([], [], [], []) for _ in cpus]
        cursors = [0] * self.num_cpus
        left = [self.accesses_per_cpu] * self.num_cpus
        active = list(cpus)
        out: Tuple[List[int], ...] = ([], [], [], [], [])  # in LaneChunk column order
        rows = (out[0], out[1], out[2], out[4])
        while active:
            count = len(active)
            bits = count.bit_length()
            pick = getrandbits(bits)
            while pick >= count:
                pick = getrandbits(bits)
            cpu = active[pick]
            burst = 1 + int(-log(1.0 - uniform()) / rate)
            if burst > left[cpu]:
                burst = left[cpu]
                del active[pick]
            left[cpu] -= burst
            held = columns[cpu]
            start = cursors[cpu]
            stop = start + burst
            while stop > len(held[0]):
                more = next(producers[cpu])
                held = columns[cpu] = tuple(old[start:] + new for old, new in zip(held, more))
                stop -= start
                start = 0
            cursors[cpu] = stop
            for column, source in zip(rows, held):
                column += source[start:stop]
            out[3].extend((cpu,) * burst)
            while len(out[0]) >= chunk_size:
                yield _lane_chunk([column[:chunk_size] for column in out])
                for column in out:
                    del column[:chunk_size]
        if out[0]:
            yield _lane_chunk(out)

    def __iter__(self) -> Iterator[MemoryAccess]:
        """The trace record by record: the lane chunks, boxed."""
        for chunk in self.iter_lane_chunks():
            yield from chunk.records()

    # ------------------------------------------------------------------ #
    @property
    def total_accesses(self) -> int:
        return self.num_cpus * self.accesses_per_cpu

    def length_hint(self) -> int:
        """Exact trace length."""
        return self.total_accesses

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(cpus={self.num_cpus}, "
            f"accesses_per_cpu={self.accesses_per_cpu}, seed={self.seed})"
        )
