"""Coherence protocol state definitions.

The directory tracks each block in one of three stable states (an MSI-style
protocol is sufficient for a functional model): Invalid (no cached copies),
Shared (one or more read-only copies), or Modified (exactly one writable
copy).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Set


class CoherenceState(enum.Enum):
    """Directory-visible state of one block."""

    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


@dataclass
class DirectoryEntry:
    """Directory state of one block, as :meth:`Directory.lookup` reports it.

    A snapshot: the directory itself stores packed words (see
    :mod:`repro.coherence.directory`), so changing an entry changes nothing.
    """

    block_addr: int
    state: CoherenceState = CoherenceState.INVALID
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None

    def has_sharer(self, cpu: int) -> bool:
        return cpu in self.sharers

    @property
    def num_sharers(self) -> int:
        return len(self.sharers)

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


@dataclass
class CoherenceActions:
    """Actions the directory requests in response to one access.

    ``invalidate`` maps a CPU index to the block it must invalidate;
    ``downgrade`` lists CPUs whose modified copy must be written back and
    demoted to shared.
    """

    invalidate_cpus: Set[int] = field(default_factory=set)
    downgrade_cpus: Set[int] = field(default_factory=set)
    was_remote_modified: bool = False
    was_shared_elsewhere: bool = False

    @property
    def coherence_traffic(self) -> int:
        """Number of coherence messages implied by these actions."""
        return len(self.invalidate_cpus) + len(self.downgrade_cpus)
