"""Opportunity study (Figure 4).

Figure 4 compares, across block/region sizes from 64 B to the 8 kB OS page:

* the read miss rate of a cache whose *block size* equals the region size
  (holding capacity fixed), with the false-sharing component separated for
  block sizes beyond the 64 B coherence unit; and
* the *opportunity* — the miss rate of an oracle spatial predictor that
  incurs exactly one miss per spatial region generation at that region size
  (with the block size held at 64 B).

Both are reported as misses per instruction, normalised to the 64 B-block,
no-predictor baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional

if TYPE_CHECKING:  # the measuring functions import what they run; results stay light
    from repro.simulation.config import SimulationConfig
    from repro.simulation.engine import SimulationResult
    from repro.trace.stream import TraceStream


class OpportunityResult(NamedTuple):
    """Measurements for one block/region size.

    What a fig04 sweep task returns per size; never a task argument.
    """

    size: int
    l1_misses: int = 0
    l2_misses: int = 0
    l1_false_sharing: int = 0
    l2_false_sharing: int = 0
    l1_oracle_misses: int = 0
    l2_oracle_misses: int = 0
    instructions: int = 1

    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.instructions

    def l2_miss_rate(self) -> float:
        return self.l2_misses / self.instructions

    def l1_oracle_rate(self) -> float:
        return self.l1_oracle_misses / self.instructions

    def l2_oracle_rate(self) -> float:
        return self.l2_oracle_misses / self.instructions


def measure_block_size_miss_rate(
    trace: TraceStream,
    config: SimulationConfig,
    block_size: int,
    limit: Optional[int] = None,
) -> SimulationResult:
    """Simulate the baseline hierarchy with ``block_size`` blocks (no prefetching)."""
    from repro.simulation.engine import SimulationEngine

    sized = config.with_block_size(block_size)
    engine = SimulationEngine(config=sized, name=f"baseline-{block_size}B")
    return engine.run(trace, limit=limit)


def measure_opportunity(
    trace: TraceStream,
    config: Optional[SimulationConfig] = None,
    sizes: Optional[List[int]] = None,
    limit: Optional[int] = None,
) -> Dict[int, OpportunityResult]:
    """Run the Figure-4 study for ``trace`` over ``sizes`` (block = region sizes)."""
    from repro.analysis.density import measure_densities
    from repro.simulation.config import SimulationConfig

    config = config or SimulationConfig()
    sizes = sizes or [64, 128, 512, 2048, 8192]
    results: Dict[int, OpportunityResult] = {}

    # The oracle's hierarchy keeps 64 B blocks whatever the region size, so
    # one pass measures every size's generations.
    densities = measure_densities(trace, config, sizes, reads_only=True, limit=limit)
    for size in sizes:
        baseline = measure_block_size_miss_rate(trace, config, block_size=size, limit=limit)
        density = densities[size]
        results[size] = OpportunityResult(
            size=size,
            l1_misses=baseline.l1_read_misses,
            l2_misses=baseline.offchip_read_misses,
            l1_false_sharing=baseline.false_sharing_misses if size > 64 else 0,
            l2_false_sharing=baseline.false_sharing_misses if size > 64 else 0,
            l1_oracle_misses=density["L1"].oracle_misses,
            l2_oracle_misses=density["L2"].oracle_misses,
            instructions=max(baseline.instructions, 1),
        )
    return results


def normalized_miss_rates(
    results: Dict[int, OpportunityResult],
    baseline_size: int = 64,
) -> Dict[int, Dict[str, float]]:
    """Normalise every size's miss rates to the 64 B baseline (Figure 4's y-axis)."""
    if baseline_size not in results:
        raise ValueError(f"baseline size {baseline_size} missing from results")
    base = results[baseline_size]
    base_l1 = max(base.l1_miss_rate(), 1e-12)
    base_l2 = max(base.l2_miss_rate(), 1e-12)
    normalized = {}
    for size, result in results.items():
        normalized[size] = {
            "l1_miss_rate": result.l1_miss_rate() / base_l1,
            "l2_miss_rate": result.l2_miss_rate() / base_l2,
            "l1_opportunity": result.l1_oracle_rate() / base_l1,
            "l2_opportunity": result.l2_oracle_rate() / base_l2,
            "l1_false_sharing": (result.l1_false_sharing / result.instructions) / base_l1,
            "l2_false_sharing": (result.l2_false_sharing / result.instructions) / base_l2,
        }
    return normalized
