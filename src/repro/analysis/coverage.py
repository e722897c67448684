"""Coverage and overprediction reporting.

The paper's predictor comparisons (Figures 6, 8, 11) present, for each
configuration, the fraction of baseline read misses that are *covered*
(eliminated), *uncovered* (still missed), and the *overpredictions*
(prefetched blocks never used) as a fraction of the same baseline.  This
module derives those three numbers from a pair of simulation results: the
baseline (no prefetcher) and the prefetching configuration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, NamedTuple

if TYPE_CHECKING:  # annotations only: reading a cached report must not import the engine
    from repro.simulation.engine import SimulationResult


class CoverageReport(NamedTuple):
    """Coverage / uncovered / overprediction fractions for one configuration.

    All three values are fractions of the baseline read-miss count, so
    ``coverage + uncovered`` is ~1.0 (small deviations arise when prefetching
    perturbs replacement behaviour) and ``overpredictions`` may exceed 1.0
    for aggressive, inaccurate predictors (as in the paper's Figure 6, where
    PC indexing overshoots 100%).

    A ``NamedTuple`` rather than a dataclass, so that reading cached reports
    (an all-hits fig06 / fig08 / fig11) imports neither ``dataclasses`` nor
    ``inspect``.  ``serve.jobs.jsonify`` still sends it as a field dict, and
    it is a task *result*, never a task argument, so its tuple encoding in
    ``result_cache._canonical`` reaches no cache key.
    """

    name: str
    level: str
    baseline_misses: int
    covered: int
    uncovered: int
    overpredictions: int

    @property
    def coverage(self) -> float:
        return self.covered / self.baseline_misses if self.baseline_misses else 0.0

    @property
    def uncovered_fraction(self) -> float:
        return self.uncovered / self.baseline_misses if self.baseline_misses else 0.0

    @property
    def overprediction_fraction(self) -> float:
        return self.overpredictions / self.baseline_misses if self.baseline_misses else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "level": self.level,
            "coverage": self.coverage,
            "uncovered": self.uncovered_fraction,
            "overpredictions": self.overprediction_fraction,
        }


def coverage_from_result(result: SimulationResult, level: str = "L1", name: str = "") -> CoverageReport:
    """Build a coverage report directly from a prefetching run's own counters.

    The baseline miss count is reconstructed as covered + uncovered, which is
    the paper's own normalisation when a separate baseline run is not
    available.
    """
    level_key = level.upper()
    if level_key == "L1":
        covered = result.l1_read_covered
        uncovered = result.l1_read_misses
        overpredictions = result.l1_overpredictions
    elif level_key in ("L2", "OFFCHIP", "OFF-CHIP"):
        covered = result.l2_read_covered
        uncovered = result.offchip_read_misses
        overpredictions = result.l2_overpredictions
        level_key = "L2"
    else:
        raise ValueError(f"unknown level {level!r}; use 'L1' or 'L2'")
    return CoverageReport(
        name=name or result.name,
        level=level_key,
        baseline_misses=covered + uncovered,
        covered=covered,
        uncovered=uncovered,
        overpredictions=overpredictions,
    )


def compare_coverage(
    baseline: SimulationResult,
    prefetching: SimulationResult,
    level: str = "L1",
    name: str = "",
) -> CoverageReport:
    """Build a coverage report using an explicit no-prefetch baseline run.

    Coverage is the reduction in read misses relative to the baseline run;
    overpredictions come from the prefetching run's unused-prefetch counter.
    """
    level_key = level.upper()
    if level_key == "L1":
        base_misses = baseline.l1_read_misses
        with_misses = prefetching.l1_read_misses
        overpredictions = prefetching.l1_overpredictions
    elif level_key in ("L2", "OFFCHIP", "OFF-CHIP"):
        base_misses = baseline.offchip_read_misses
        with_misses = prefetching.offchip_read_misses
        overpredictions = prefetching.l2_overpredictions
        level_key = "L2"
    else:
        raise ValueError(f"unknown level {level!r}; use 'L1' or 'L2'")
    covered = max(0, base_misses - with_misses)
    return CoverageReport(
        name=name or prefetching.name,
        level=level_key,
        baseline_misses=max(base_misses, 1),
        covered=covered,
        uncovered=with_misses,
        overpredictions=overpredictions,
    )
