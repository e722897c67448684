"""Directory controller for the MSI protocol.

The directory is a purely functional model: given a write by a CPU it returns
the invalidations that other CPUs' caches must perform (a read demotes a
remote modified copy to shared and invalidates nothing), and it updates its
own sharer bookkeeping.  Applying the invalidations to the caches is the
caller's responsibility (see
:class:`repro.coherence.multiprocessor.MultiprocessorMemorySystem`), which
keeps the directory reusable for caches of any organisation.

Storage layout
--------------
``Directory._entries`` maps a block address to one **packed word**, a plain
``int``::

    bit 0        MODIFIED mark
    bit cpu + 1  CPU ``cpu`` holds a copy   (``sharer_bit(cpu) == 2 << cpu``)

so ``sharer_bit(cpu) | MODIFIED`` is "modified, owned by ``cpu``" and any other
non-zero even word is "shared by these CPUs".  The invariants every mutation
keeps (``tests/test_directory_oracle.py`` checks them against an independent
model after each step):

* **no entry <=> INVALID** — the word of a block whose last sharer left is
  deleted, never stored as 0, so the table holds only blocks somebody caches:
  O(L1 contents), not O(trace footprint);
* **MODIFIED => exactly one sharer bit**, the owner's (which is why the owner
  needs no field of its own);
* **a sharer bit <=> an L1 copy**, as long as every request is followed by
  the cache fill it stands for and every replacement by :meth:`evict` — what
  the memory system does for demand accesses and for stream requests that
  target the L1.  (A stream request filled into the L2 only still registers
  its CPU, as the protocol of Section 3.2 treats it as a read; that bit lasts
  until another CPU writes the block.)

The fused lane loop (``SimulationEngine._step_lanes``) reads and writes these
words in place; this module and that loop are the only two places that know
the layout.  Everything else sees :meth:`Directory.lookup`, which *builds* a
:class:`~repro.coherence.protocol.DirectoryEntry` snapshot per call — never
``None`` (an untracked block reads as INVALID with no sharers) and never
aliased to directory state (mutating it changes nothing), exactly as
``SetAssociativeCache.probe`` returns a ``CacheLine`` snapshot.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.coherence.protocol import CoherenceActions, CoherenceState, DirectoryEntry

#: Bit 0 of a directory word: the block is modified (its one sharer owns it).
MODIFIED = 1


def sharer_bit(cpu: int) -> int:
    """The bit CPU ``cpu`` occupies in a directory word."""
    return 2 << cpu


def _sharer_cpus(word: int) -> Set[int]:
    """CPUs whose sharer bit is set in ``word``, built in ascending order."""
    bits = word >> 1
    return {cpu for cpu in range(bits.bit_length()) if bits >> cpu & 1}


class Directory:
    """Tracks the sharers of every cached block at a fixed coherence granularity."""

    def __init__(self, coherence_unit: int = 64) -> None:
        if coherence_unit <= 0 or coherence_unit & (coherence_unit - 1):
            raise ValueError(f"coherence_unit must be a power of two, got {coherence_unit}")
        self._unit_mask = ~(coherence_unit - 1)
        self._entries: Dict[int, int] = {}

    def lookup(self, address: int) -> DirectoryEntry:
        """Snapshot of the directory state of the block covering ``address``."""
        block = address & self._unit_mask
        word = self._entries.get(block, 0)
        sharers = _sharer_cpus(word)
        if word & MODIFIED:
            (owner,) = sharers
            return DirectoryEntry(block, CoherenceState.MODIFIED, sharers, owner)
        state = CoherenceState.SHARED if word else CoherenceState.INVALID
        return DirectoryEntry(block, state, sharers)

    def sharers(self, address: int) -> Set[int]:
        return _sharer_cpus(self._entries.get(address & self._unit_mask, 0))

    # ------------------------------------------------------------------ #
    def read(self, cpu: int, address: int) -> None:
        """CPU ``cpu`` reads ``address``: it becomes a sharer.

        A remote modified copy is written back and demoted to shared; a read
        never invalidates, so it requests no action.
        """
        block = address & self._unit_mask
        bit = sharer_bit(cpu)
        word = self._entries.get(block, 0)
        if word & MODIFIED and not word & bit:
            word ^= MODIFIED  # remote owner downgraded; an owner's re-read changes nothing
        self._entries[block] = word | bit

    def write(self, cpu: int, address: int) -> CoherenceActions:
        """CPU ``cpu`` writes ``address``: invalidate all other copies."""
        block = address & self._unit_mask
        mine = sharer_bit(cpu) | MODIFIED
        word = self._entries.get(block, 0)
        actions = CoherenceActions()
        others = word & ~mine
        if others:
            actions.invalidate_cpus = _sharer_cpus(others)
        self._entries[block] = mine
        return actions

    def evict(self, cpu: int, address: int) -> None:
        """CPU ``cpu`` dropped its copy (replacement); update sharer bookkeeping."""
        block = address & self._unit_mask
        bit = sharer_bit(cpu)
        word = self._entries.get(block, 0)
        if not word & bit:
            return
        # A MODIFIED word holds the owner's bit only, so clearing the mark
        # along with the bit leaves 0 there and the other sharers otherwise.
        word &= ~(bit | MODIFIED)
        if word:
            self._entries[block] = word
        else:
            del self._entries[block]
