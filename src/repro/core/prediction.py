"""Prediction registers and stream request generation.

When a trigger access hits in the PHT, the region base address and predicted
pattern are copied into one of several *prediction registers* (Section 3.2).
SMS then streams the predicted blocks into the primary cache, clearing each
bit as its block is requested and freeing the register once the pattern is
exhausted.  When several registers are active, requests are drawn from them
in round-robin order.

Layout
------

A register is a ``(region, remaining)`` pair of ints: the region's base
address and the pattern bits still to stream (bit *i* = the block at
``region + i * block_size``; never zero — an exhausted register is removed).
:class:`PredictionRegisterFile` keeps them in one list in allocation order
plus the round-robin cursor, and the list object is never rebound, so the
lane closures of :mod:`repro.core.sms` — the one other place that knows this
layout — may hold on to it.

Streams leave the file as **runs**, also ``(region, bits)`` pairs, which the
consumer walks lowest offset first (``low = bits & -bits``):
:meth:`PredictionRegisterFile.drain_bits` hands a lone register over whole,
and otherwise one block per run so the round-robin interleaving is kept.
:meth:`~PredictionRegisterFile.drain` boxes the same runs as
:class:`StreamRequest` objects.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.core.pattern import SpatialPattern
from repro.core.region import RegionGeometry


class StreamRequest(NamedTuple):
    """One block SMS wants to stream into the cache."""

    address: int
    region: int
    offset: int


class PredictionRegisterFile:
    """A bounded pool of prediction registers drained round-robin."""

    def __init__(self, geometry: RegionGeometry, num_registers: int = 16) -> None:
        if num_registers <= 0:
            raise ValueError(f"num_registers must be positive, got {num_registers}")
        self.geometry = geometry
        self.num_registers = num_registers
        self._region_mask = ~(geometry.region_size - 1)
        #: ``(region, remaining bits)`` pairs in allocation order (see module
        #: docstring); mutated in place only.
        self._registers: List[Tuple[int, int]] = []
        self._next_index = 0

    def allocate(self, region: int, pattern: SpatialPattern, exclude_offset: Optional[int] = None) -> bool:
        """Start streaming ``pattern`` for the region based at ``region``.

        ``exclude_offset`` removes the trigger block from the stream (it is
        being fetched by the demand miss itself).  Returns False and drops
        the prediction if no register is free.
        """
        if pattern.num_blocks != self.geometry.blocks_per_region:
            raise ValueError(
                f"pattern width {pattern.num_blocks} does not match region geometry "
                f"({self.geometry.blocks_per_region} blocks)"
            )
        return self.allocate_bits(region, pattern.bits, exclude_offset)

    def allocate_bits(
        self, region: int, bits: int, exclude_offset: Optional[int] = None
    ) -> bool:
        """:meth:`allocate` for a raw PHT bit mask.

        The caller vouches that ``bits`` fits the region's pattern width (true
        for anything read back out of the PHT for this geometry).
        """
        if exclude_offset is not None and exclude_offset >= 0:
            bits &= ~(1 << exclude_offset)
        if bits == 0:
            return True
        if len(self._registers) >= self.num_registers:
            return False
        self._registers.append((region & self._region_mask, bits))
        return True

    def drain_bits(self, max_requests: Optional[int] = None) -> List[Tuple[int, int]]:
        """Issue up to ``max_requests`` blocks, round-robin, as ``(region, bits)`` runs.

        Each run is streamed lowest offset first, the runs in list order.  A
        lone register drained without a limit leaves as one run; otherwise a
        run carries one block and the cursor moves on, which is what keeps
        the registers interleaved.
        """
        registers = self._registers
        runs: List[Tuple[int, int]] = []
        index = self._next_index
        issued = 0
        while registers and issued != max_requests:
            if index >= len(registers):
                index = 0
            region, remaining = registers[index]
            if max_requests is None and len(registers) == 1:
                bits = remaining  # no limit to count against
            else:
                bits = remaining & -remaining
                issued += 1
            runs.append((region, bits))
            if bits == remaining:
                registers.pop(index)
            else:
                registers[index] = (region, remaining ^ bits)
                index += 1
        self._next_index = index
        return runs

    def drain(self, max_requests: Optional[int] = None) -> List[StreamRequest]:
        """:meth:`drain_bits`, each block boxed as a :class:`StreamRequest`."""
        requests: List[StreamRequest] = []
        block_size = self.geometry.block_size
        for region, bits in self.drain_bits(max_requests):
            while bits:
                offset = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                requests.append(
                    StreamRequest(address=region + offset * block_size, region=region, offset=offset)
                )
        return requests

    def cancel_region(self, region: int) -> int:
        """Drop any active register for ``region`` (e.g. on invalidation); return count.

        The round-robin cursor is only adjusted when a register is actually
        removed (shifted past removed slots, then clamped), so cancelling an
        inactive region does not perturb drain fairness.
        """
        base = region & self._region_mask
        registers = self._registers
        removed = 0
        for index in range(len(registers) - 1, -1, -1):
            if registers[index][0] == base:
                del registers[index]
                removed += 1
                if index < self._next_index:
                    self._next_index -= 1
        if removed and self._next_index >= len(registers):
            self._next_index = 0
        return removed

    def clear(self) -> None:
        self._registers.clear()
        self._next_index = 0
