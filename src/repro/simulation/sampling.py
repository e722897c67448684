"""Statistical sampling (SMARTS-style) and paired-measurement confidence intervals.

The paper launches cycle-accurate measurements from many checkpoints drawn
over the application's steady state and reports 95% confidence intervals on
the *change* in performance using paired-measurement sampling [31, 32].  We
mirror that methodology: each sample is one trace segment (a different seed
or a different slice of the workload) simulated under both the base and the
SMS configuration; the per-sample speedups form the paired population whose
mean and confidence interval Figure 12 reports.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence

# Two-sided 97.5% Student-t quantiles for small sample sizes (degrees of
# freedom 1..30); beyond 30 the normal quantile 1.96 is used.  Tabulated so
# the sampling module has no SciPy dependency on the hot path.
_T_TABLE = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def t_quantile_975(degrees_of_freedom: int) -> float:
    """Two-sided 95% Student-t critical value."""
    if degrees_of_freedom < 1:
        raise ValueError("degrees_of_freedom must be >= 1")
    return _T_TABLE.get(degrees_of_freedom, 1.96)


class ConfidenceInterval(NamedTuple):
    """A mean with a symmetric half-width at 95% confidence.

    What a fig12 sweep task returns; never a task argument.
    """

    mean: float
    half_width: float

    @property
    def lower(self) -> float:
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.half_width:.3f}"


class SampledMeasurement:
    """A population of per-sample measurements of one metric."""

    __slots__ = ("values",)

    def __init__(self, values: Optional[List[float]] = None) -> None:
        self.values = [] if values is None else values

    def add(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        if not self.values:
            raise ValueError("no samples collected")
        return sum(self.values) / len(self.values)

    @property
    def variance(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mean = self.mean
        return sum((v - mean) ** 2 for v in self.values) / (len(self.values) - 1)

    @property
    def std_dev(self) -> float:
        return math.sqrt(self.variance)

    def confidence_interval(self) -> ConfidenceInterval:
        """95% confidence interval on the mean."""
        if not self.values:
            raise ValueError("no samples collected")
        if len(self.values) == 1:
            return ConfidenceInterval(mean=self.values[0], half_width=0.0)
        critical = t_quantile_975(len(self.values) - 1)
        half_width = critical * self.std_dev / math.sqrt(len(self.values))
        return ConfidenceInterval(mean=self.mean, half_width=half_width)


def paired_speedup(
    baseline_values: Sequence[float],
    improved_values: Sequence[float],
) -> ConfidenceInterval:
    """Paired-measurement speedup confidence interval.

    ``baseline_values`` and ``improved_values`` are per-sample execution times
    (or CPIs) measured on the *same* sample under the two configurations; the
    per-pair ratio ``baseline / improved`` is the sample speedup.
    """
    if len(baseline_values) != len(improved_values):
        raise ValueError(
            f"paired sampling requires equal sample counts "
            f"({len(baseline_values)} vs {len(improved_values)})"
        )
    if not baseline_values:
        raise ValueError("no samples provided")
    ratios = SampledMeasurement()
    for base, improved in zip(baseline_values, improved_values):
        if improved <= 0:
            raise ValueError("improved-configuration time must be positive")
        ratios.add(base / improved)
    return ratios.confidence_interval()
