"""Prediction index schemes.

The key problem in SMS is choosing an index that is strongly correlated with
recurring spatial patterns (Section 2.2).  The paper compares four schemes
(Figure 6):

* **Address** — the trigger access's block address.  Storage scales with data
  set size and cold (never-visited) data cannot be predicted.
* **PC+address** — trigger PC combined with the trigger block address; the
  most precise but also the most storage-hungry.
* **PC** — trigger PC alone; compact but cannot distinguish traversals of
  different data structures by the same code.
* **PC+offset** — trigger PC combined with the trigger's spatial region
  offset; compact (scales with code size), distinguishes alignment-shifted
  traversals, and can predict previously-unvisited data.  This is SMS's
  choice.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple, Type

from repro.core.region import RegionGeometry


class TriggerInfo(NamedTuple):
    """Information about the trigger access of a spatial region generation."""

    pc: int
    address: int
    region: int
    offset: int


class IndexScheme:
    """Maps a trigger access to a prediction-table key."""

    name = "abstract"
    uses_pc = False
    uses_address = False
    uses_offset = False

    def __init__(self, geometry: RegionGeometry) -> None:
        self.geometry = geometry

    def key_of(self, pc: int, block_address: int, offset: int) -> Tuple[int, ...]:
        """Return the hashable PHT key of a trigger access, unboxed.

        Every scheme reads at most the trigger's PC, the address of its
        *block* and its spatial region offset, so these three are the whole
        interface; the lane closures of :mod:`repro.core.sms` call this
        directly.  A key is a flat tuple of ints and strs
        (:data:`repro.core.pht.hash_index_key` relies on it).
        """
        raise NotImplementedError

    def key(self, trigger: TriggerInfo) -> Tuple[int, ...]:
        """Return the hashable PHT key for ``trigger``."""
        return self.key_of(
            trigger.pc, self.geometry.block_address(trigger.address), trigger.offset
        )

    def key_for(self, pc: int, address: int) -> Tuple[int, ...]:
        """Convenience wrapper building the key directly from a (pc, address) pair."""
        return self.key_of(pc, self.geometry.block_address(address), self.geometry.offset(address))

    def storage_scales_with_data(self) -> bool:
        """True if the number of distinct keys grows with the data set size."""
        return self.uses_address

    def can_predict_unvisited_data(self) -> bool:
        """True if the scheme can predict accesses to never-before-seen addresses."""
        return not self.uses_address

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.geometry.describe()})"


class AddressIndex(IndexScheme):
    """Index by the trigger access's block address."""

    name = "address"
    uses_address = True

    def key_of(self, pc: int, block_address: int, offset: int) -> Tuple[int, ...]:
        return ("addr", block_address)


class PCIndex(IndexScheme):
    """Index by the trigger access's program counter alone."""

    name = "pc"
    uses_pc = True

    def key_of(self, pc: int, block_address: int, offset: int) -> Tuple[int, ...]:
        return ("pc", pc)


class PCAddressIndex(IndexScheme):
    """Index by the trigger PC combined with the trigger block address."""

    name = "pc+address"
    uses_pc = True
    uses_address = True

    def key_of(self, pc: int, block_address: int, offset: int) -> Tuple[int, ...]:
        return ("pc+addr", pc, block_address)


class PCOffsetIndex(IndexScheme):
    """Index by the trigger PC combined with the spatial region offset (SMS default)."""

    name = "pc+offset"
    uses_pc = True
    uses_offset = True

    def key_of(self, pc: int, block_address: int, offset: int) -> Tuple[int, ...]:
        return ("pc+off", pc, offset)


_SCHEMES: Dict[str, Type[IndexScheme]] = {
    "address": AddressIndex,
    "addr": AddressIndex,
    "pc": PCIndex,
    "pc+address": PCAddressIndex,
    "pc+addr": PCAddressIndex,
    "pc+offset": PCOffsetIndex,
    "pc+off": PCOffsetIndex,
}


def make_index_scheme(name: str, geometry: RegionGeometry) -> IndexScheme:
    """Construct an index scheme by name.

    Accepted names: ``"address"``, ``"pc"``, ``"pc+address"``, ``"pc+offset"``
    (plus the short aliases ``"addr"``, ``"pc+addr"``, ``"pc+off"``).
    """
    key = name.lower().strip()
    if key not in _SCHEMES:
        raise ValueError(
            f"unknown index scheme {name!r}; choose from "
            f"{sorted(set(cls.name for cls in _SCHEMES.values()))}"
        )
    return _SCHEMES[key](geometry)
