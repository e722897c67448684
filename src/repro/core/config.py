"""SMS configuration.

Default values follow the practical configuration evaluated in the paper
(Figure 11): 2 kB spatial regions over 64 B blocks, PC+offset indexing, AGT
training with a 32-entry filter table and 64-entry accumulation table, and a
16k-entry 16-way set-associative PHT.
"""

from __future__ import annotations

from typing import Optional

from repro.core.pht import PatternHistoryTable
from repro.core.region import RegionGeometry


class SMSConfig:
    """Configuration for :class:`repro.core.sms.SpatialMemoryStreaming`.

    Attributes
    ----------
    region_size, block_size:
        Spatial region geometry in bytes.
    index_scheme:
        Prediction index: ``"address"``, ``"pc"``, ``"pc+address"`` or
        ``"pc+offset"``.
    trainer:
        Training structure: ``"agt"`` (the paper's design), ``"logical-sectored"``
        or ``"decoupled-sectored"`` (the prior designs of Figure 8).
    filter_entries, accumulation_entries:
        AGT sizing; ``None`` means unbounded (used by opportunity studies).
    pht_entries, pht_associativity:
        Pattern History Table sizing; ``pht_entries=None`` means unbounded.
    prediction_registers:
        Number of simultaneously-active streamed regions.
    stream_into_l1:
        SMS streams predicted blocks into the primary cache; set False to
        restrict streaming to the L2 (used in ablations).
    max_requests_per_access:
        Cap on stream requests drained per demand access (``None`` = drain
        everything immediately; the functional default).
    trained_cache_capacity, trained_cache_associativity:
        Geometry the sectored training structures mirror (the L1 by default).
    """

    #: The fields, in constructor order (what ``replace``, ``==`` and
    #: ``repr`` walk).  A plain object, not a tuple of them: a configuration
    #: passed as a sweep-task argument has no cache-key encoding.
    __slots__ = (
        "region_size",
        "block_size",
        "index_scheme",
        "trainer",
        "filter_entries",
        "accumulation_entries",
        "pht_entries",
        "pht_associativity",
        "prediction_registers",
        "stream_into_l1",
        "max_requests_per_access",
        "trained_cache_capacity",
        "trained_cache_associativity",
    )

    def __init__(
        self,
        region_size: int = 2048,
        block_size: int = 64,
        index_scheme: str = "pc+offset",
        trainer: str = "agt",
        filter_entries: Optional[int] = 32,
        accumulation_entries: Optional[int] = 64,
        pht_entries: Optional[int] = 16384,
        pht_associativity: int = 16,
        prediction_registers: int = 16,
        stream_into_l1: bool = True,
        max_requests_per_access: Optional[int] = None,
        trained_cache_capacity: int = 64 * 1024,
        trained_cache_associativity: int = 2,
    ) -> None:
        if pht_entries is not None and pht_entries <= 0:
            raise ValueError(f"pht_entries must be positive or None, got {pht_entries}")
        if pht_associativity <= 0:
            raise ValueError(f"pht_associativity must be positive, got {pht_associativity}")
        if prediction_registers <= 0:
            raise ValueError(f"prediction_registers must be positive, got {prediction_registers}")
        self.region_size = region_size
        self.block_size = block_size
        self.index_scheme = index_scheme
        self.trainer = trainer
        self.filter_entries = filter_entries
        self.accumulation_entries = accumulation_entries
        self.pht_entries = pht_entries
        self.pht_associativity = pht_associativity
        self.prediction_registers = prediction_registers
        self.stream_into_l1 = stream_into_l1
        self.max_requests_per_access = max_requests_per_access
        self.trained_cache_capacity = trained_cache_capacity
        self.trained_cache_associativity = trained_cache_associativity

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"SMSConfig({fields})"

    @property
    def geometry(self) -> RegionGeometry:
        return RegionGeometry(region_size=self.region_size, block_size=self.block_size)

    @classmethod
    def paper_practical(cls) -> "SMSConfig":
        """The practical configuration of Figure 11 (also the class defaults)."""
        return cls()

    @classmethod
    def unbounded(cls, index_scheme: str = "pc+offset", region_size: int = 2048) -> "SMSConfig":
        """Unbounded PHT/AGT configuration used by the opportunity studies."""
        return cls(
            region_size=region_size,
            index_scheme=index_scheme,
            filter_entries=None,
            accumulation_entries=None,
            pht_entries=None,
        )

    def replace(self, **overrides) -> "SMSConfig":
        """Return a copy of this configuration with ``overrides`` applied."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(overrides)
        return SMSConfig(**values)

    def make_pht(self, num_blocks: Optional[int] = None) -> PatternHistoryTable:
        """Construct the configured Pattern History Table."""
        return PatternHistoryTable(
            num_blocks=num_blocks if num_blocks is not None else self.geometry.blocks_per_region,
            num_entries=self.pht_entries,
            associativity=self.pht_associativity,
        )
