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

from typing import Dict, Tuple, Type

from repro.core.region import RegionGeometry


class IndexScheme:
    """Maps a trigger access to a prediction-table key."""

    name = "abstract"

    def __init__(self, geometry: RegionGeometry) -> None:
        self.geometry = geometry

    def key_of(self, pc: int, block_address: int, offset: int) -> Tuple[int, ...]:
        """Return the hashable PHT key of a trigger access.

        Every scheme reads at most the trigger's PC, the address of its
        *block* and its spatial region offset, so these three are the whole
        interface.  A key is a flat tuple of ints and strs
        (:data:`repro.core.pht.hash_index_key` relies on it).
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.geometry.describe()})"


class AddressIndex(IndexScheme):
    """Index by the trigger access's block address."""

    name = "address"

    def key_of(self, pc: int, block_address: int, offset: int) -> Tuple[int, ...]:
        return ("addr", block_address)


class PCIndex(IndexScheme):
    """Index by the trigger access's program counter alone."""

    name = "pc"

    def key_of(self, pc: int, block_address: int, offset: int) -> Tuple[int, ...]:
        return ("pc", pc)


class PCAddressIndex(IndexScheme):
    """Index by the trigger PC combined with the trigger block address."""

    name = "pc+address"

    def key_of(self, pc: int, block_address: int, offset: int) -> Tuple[int, ...]:
        return ("pc+addr", pc, block_address)


class PCOffsetIndex(IndexScheme):
    """Index by the trigger PC combined with the spatial region offset (SMS default)."""

    name = "pc+offset"

    def key_of(self, pc: int, block_address: int, offset: int) -> Tuple[int, ...]:
        return ("pc+off", pc, offset)


_SCHEMES: Dict[str, Type[IndexScheme]] = {
    scheme.name: scheme for scheme in (AddressIndex, PCIndex, PCAddressIndex, PCOffsetIndex)
}


def make_index_scheme(name: str, geometry: RegionGeometry) -> IndexScheme:
    """Construct an index scheme by name: ``"address"``, ``"pc"``,
    ``"pc+address"`` or ``"pc+offset"``."""
    if name not in _SCHEMES:
        raise ValueError(f"unknown index scheme {name!r}; choose from {sorted(_SCHEMES)}")
    return _SCHEMES[name](geometry)
