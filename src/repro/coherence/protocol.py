"""Coherence protocol state definitions.

The directory tracks each block in one of three stable states (an MSI-style
protocol is sufficient for a functional model): Invalid (no cached copies),
Shared (one or more read-only copies), or Modified (exactly one writable
copy).
"""

from __future__ import annotations

import enum
from typing import Optional, Set


class CoherenceState(enum.Enum):
    """Directory-visible state of one block."""

    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


class DirectoryEntry:
    """Directory state of one block, as :meth:`Directory.lookup` reports it.

    A snapshot: the directory itself stores packed words (see
    :mod:`repro.coherence.directory`), so changing an entry changes nothing.
    """

    __slots__ = ("block_addr", "state", "sharers", "owner")

    def __init__(
        self,
        block_addr: int,
        state: CoherenceState = CoherenceState.INVALID,
        sharers: Optional[Set[int]] = None,
        owner: Optional[int] = None,
    ) -> None:
        self.block_addr = block_addr
        self.state = state
        self.sharers = set() if sharers is None else sharers
        self.owner = owner

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.block_addr, self.state, self.sharers, self.owner) == (
            other.block_addr,
            other.state,
            other.sharers,
            other.owner,
        )

    def validate(self) -> None:
        """Check the protocol invariants for this entry; raise on violation."""
        if self.state is CoherenceState.INVALID:
            if self.sharers or self.owner is not None:
                raise AssertionError(f"invalid block {self.block_addr:#x} has sharers/owner")
        elif self.state is CoherenceState.SHARED:
            if not self.sharers:
                raise AssertionError(f"shared block {self.block_addr:#x} has no sharers")
            if self.owner is not None:
                raise AssertionError(f"shared block {self.block_addr:#x} has an owner")
        elif self.state is CoherenceState.MODIFIED:
            if self.owner is None:
                raise AssertionError(f"modified block {self.block_addr:#x} has no owner")
            if self.sharers != {self.owner}:
                raise AssertionError(
                    f"modified block {self.block_addr:#x} sharers {self.sharers} != owner {self.owner}"
                )


class CoherenceActions:
    """Actions the directory requests in response to one write:
    ``invalidate_cpus`` lists the CPUs whose copy of the block must go."""

    __slots__ = ("invalidate_cpus",)

    def __init__(self, invalidate_cpus: Optional[Set[int]] = None) -> None:
        self.invalidate_cpus = set() if invalidate_cpus is None else invalidate_cpus
