"""Spatial patterns.

A *spatial pattern* is a bit vector with one bit per cache block in a spatial
region; bit *i* is set if block *i* was accessed during the spatial region
generation (Section 2.1).  The class wraps an integer bit mask with the
operations the predictor, the analysis code, and the tests need.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List


class SpatialPattern:
    """An immutable spatial pattern over ``num_blocks`` cache blocks.

    Compares and hashes by value.
    """

    __slots__ = ("num_blocks", "bits")

    def __init__(self, num_blocks: int, bits: int = 0) -> None:
        if num_blocks <= 0:
            raise ValueError(f"num_blocks must be positive, got {num_blocks}")
        if bits < 0:
            raise ValueError(f"bits must be non-negative, got {bits}")
        if bits >> num_blocks:
            raise ValueError(f"bits {bits:#x} has bits set beyond {num_blocks} blocks")
        object.__setattr__(self, "num_blocks", num_blocks)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable SpatialPattern")

    def __reduce__(self):
        return SpatialPattern, (self.num_blocks, self.bits)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num_blocks == other.num_blocks and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.num_blocks, self.bits))

    def __repr__(self) -> str:
        return f"SpatialPattern(num_blocks={self.num_blocks!r}, bits={self.bits!r})"

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, num_blocks: int) -> "SpatialPattern":
        """A pattern with no blocks set."""
        return cls(num_blocks=num_blocks, bits=0)

    @classmethod
    def full(cls, num_blocks: int) -> "SpatialPattern":
        """A pattern with every block set."""
        return cls(num_blocks=num_blocks, bits=(1 << num_blocks) - 1)

    @classmethod
    def from_offsets(cls, num_blocks: int, offsets: Iterable[int]) -> "SpatialPattern":
        """Build a pattern from the block offsets that were accessed."""
        bits = 0
        for offset in offsets:
            if not 0 <= offset < num_blocks:
                raise ValueError(f"offset {offset} out of range for {num_blocks}-block pattern")
            bits |= 1 << offset
        return cls(num_blocks=num_blocks, bits=bits)

    @classmethod
    def from_string(cls, text: str) -> "SpatialPattern":
        """Build a pattern from a string like ``"1011"`` (bit 0 first)."""
        cleaned = text.strip().replace(" ", "")
        if not cleaned or any(ch not in "01" for ch in cleaned):
            raise ValueError(f"pattern string must contain only 0/1, got {text!r}")
        bits = 0
        for index, ch in enumerate(cleaned):
            if ch == "1":
                bits |= 1 << index
        return cls(num_blocks=len(cleaned), bits=bits)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def test(self, offset: int) -> bool:
        """Return True if block ``offset`` is set."""
        self._check_offset(offset)
        return bool(self.bits >> offset & 1)

    def offsets(self) -> List[int]:
        """Return the sorted list of set block offsets."""
        return [i for i in range(self.num_blocks) if self.bits >> i & 1]

    @property
    def population(self) -> int:
        """Number of blocks set (the generation's access density)."""
        return bin(self.bits).count("1")

    @property
    def density(self) -> float:
        """Fraction of the region's blocks that are set."""
        return self.population / self.num_blocks

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def is_singleton(self) -> bool:
        """True if exactly one block is set (a trigger-only generation)."""
        return self.population == 1

    # ------------------------------------------------------------------ #
    # Derivations (all return new patterns; SpatialPattern is immutable)
    # ------------------------------------------------------------------ #
    def with_offset(self, offset: int) -> "SpatialPattern":
        """Return a copy of this pattern with block ``offset`` set."""
        self._check_offset(offset)
        return SpatialPattern(num_blocks=self.num_blocks, bits=self.bits | (1 << offset))

    def without_offset(self, offset: int) -> "SpatialPattern":
        """Return a copy of this pattern with block ``offset`` cleared."""
        self._check_offset(offset)
        return SpatialPattern(num_blocks=self.num_blocks, bits=self.bits & ~(1 << offset))

    def union(self, other: "SpatialPattern") -> "SpatialPattern":
        self._check_compatible(other)
        return SpatialPattern(num_blocks=self.num_blocks, bits=self.bits | other.bits)

    def intersection(self, other: "SpatialPattern") -> "SpatialPattern":
        self._check_compatible(other)
        return SpatialPattern(num_blocks=self.num_blocks, bits=self.bits & other.bits)

    def difference(self, other: "SpatialPattern") -> "SpatialPattern":
        """Blocks set in self but not in ``other``."""
        self._check_compatible(other)
        return SpatialPattern(num_blocks=self.num_blocks, bits=self.bits & ~other.bits)

    def __or__(self, other: "SpatialPattern") -> "SpatialPattern":
        return self.union(other)

    def __and__(self, other: "SpatialPattern") -> "SpatialPattern":
        return self.intersection(other)

    def __sub__(self, other: "SpatialPattern") -> "SpatialPattern":
        return self.difference(other)

    def __iter__(self) -> Iterator[int]:
        return iter(self.offsets())

    def __len__(self) -> int:
        return self.num_blocks

    # ------------------------------------------------------------------ #
    # Scoring (used by the analysis package)
    # ------------------------------------------------------------------ #
    def covered_by(self, prediction: "SpatialPattern") -> int:
        """Number of this pattern's blocks that ``prediction`` also predicts."""
        self._check_compatible(prediction)
        return bin(self.bits & prediction.bits).count("1")

    def overpredicted_by(self, prediction: "SpatialPattern") -> int:
        """Number of blocks ``prediction`` predicts that this pattern never accesses."""
        self._check_compatible(prediction)
        return bin(prediction.bits & ~self.bits).count("1")

    # ------------------------------------------------------------------ #
    def to_string(self) -> str:
        """Render as a 0/1 string, bit 0 (lowest offset) first."""
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.num_blocks))

    def __str__(self) -> str:
        return self.to_string()

    def _check_offset(self, offset: int) -> None:
        if not 0 <= offset < self.num_blocks:
            raise ValueError(f"offset {offset} out of range for {self.num_blocks}-block pattern")

    def _check_compatible(self, other: "SpatialPattern") -> None:
        if self.num_blocks != other.num_blocks:
            raise ValueError(
                f"patterns have different widths ({self.num_blocks} vs {other.num_blocks})"
            )
