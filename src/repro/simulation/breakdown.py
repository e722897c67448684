"""Execution-time breakdown categories (Figure 13).

The paper decomposes execution time into user busy, system busy, off-chip
read stalls, on-chip (L2) read stalls, store-buffer-full stalls, and a
residual "other" category.  :class:`ExecutionBreakdown` holds the per-category
cycle counts produced by the timing model and supports the paper's
presentation: normalising the base and SMS bars of one application to the
same amount of completed work so that relative bar height equals speedup.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional


class BreakdownCategory(enum.Enum):
    """Stall / busy categories of Figure 13."""

    USER_BUSY = "user_busy"
    SYSTEM_BUSY = "system_busy"
    OFFCHIP_READ = "offchip_read"
    ONCHIP_READ = "onchip_read"
    STORE_BUFFER = "store_buffer"
    OTHER = "other"


#: Presentation order used by the paper's stacked bars (bottom to top).
CATEGORY_ORDER = [
    BreakdownCategory.USER_BUSY,
    BreakdownCategory.SYSTEM_BUSY,
    BreakdownCategory.OTHER,
    BreakdownCategory.STORE_BUFFER,
    BreakdownCategory.ONCHIP_READ,
    BreakdownCategory.OFFCHIP_READ,
]


class ExecutionBreakdown:
    """Per-category cycle counts for one simulated configuration."""

    #: The fields; ``serve.jobs.jsonify`` sends them by these names.
    __slots__ = ("cycles", "instructions")

    def __init__(
        self,
        cycles: Optional[Dict[BreakdownCategory, float]] = None,
        instructions: int = 1,
    ) -> None:
        self.cycles = {} if cycles is None else cycles
        self.instructions = instructions

    def add(self, category: BreakdownCategory, cycles: float) -> None:
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        self.cycles[category] = self.cycles.get(category, 0.0) + cycles

    def get(self, category: BreakdownCategory) -> float:
        return self.cycles.get(category, 0.0)

    @property
    def total_cycles(self) -> float:
        return sum(self.cycles.values())

    @property
    def cpi(self) -> float:
        return self.total_cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        total = self.total_cycles
        return self.instructions / total if total else 0.0

    def busy_fraction(self) -> float:
        busy = self.get(BreakdownCategory.USER_BUSY) + self.get(BreakdownCategory.SYSTEM_BUSY)
        total = self.total_cycles
        return busy / total if total else 0.0

    def normalized(self, reference: Optional["ExecutionBreakdown"] = None) -> Dict[BreakdownCategory, float]:
        """Per-category fractions, normalised to ``reference`` (or self).

        Figure 13 plots both the base and SMS bars per unit of completed
        work, normalised to the base system's total: the SMS bar is shorter
        by the speedup factor.  Both breakdowns must describe the same
        instruction count per processor for the comparison to be meaningful,
        so the normalisation is done per instruction.
        """
        reference = reference or self
        reference_cpi = reference.cpi
        if reference_cpi <= 0:
            return {category: 0.0 for category in self.cycles}
        return {
            category: (cycles / self.instructions) / reference_cpi
            for category, cycles in self.cycles.items()
        }

    def speedup_over(self, baseline: "ExecutionBreakdown") -> float:
        """Speedup of this configuration relative to ``baseline`` (per instruction)."""
        if self.cpi <= 0:
            raise ValueError("cannot compute speedup with non-positive CPI")
        return baseline.cpi / self.cpi

    def as_dict(self) -> Dict[str, float]:
        data = {category.value: self.get(category) for category in CATEGORY_ORDER}
        data["total_cycles"] = self.total_cycles
        data["cpi"] = self.cpi
        return data
