"""Figure 5 — memory access density.

For every application, at both cache levels, the figure breaks read misses
down by the density of the spatial region generation they occur in (how many
of the 2 kB region's 32 blocks miss during the generation).  The paper's
claims checked by the benchmark: with the exception of ``ocean`` and
``sparse`` (dense), applications exhibit wide density variation at both
levels, so no single block size can capture the spatial correlation
efficiently.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.density import DENSITY_BINS, DensityHistogram, measure_density
from repro.analysis.reporting import ResultTable
from repro.experiments import common
from repro.simulation.sweep import sweep_map


def run_application(
    name: str,
    region_size: int = 2048,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
) -> Dict[str, DensityHistogram]:
    """Measure the L1/L2 density histograms for one application."""
    trace, _ = common.build_trace(name, num_cpus=num_cpus, scale=scale)
    config = common.default_config(num_cpus=num_cpus)
    return measure_density(trace, config=config, region_size=region_size)


#: One task per application, at the paper's 2 kB regions.
SWEEP = common.SweepFigure(run_application, common.APPLICATION_ITEMS, {"region_size": 2048})


def run(
    applications: Optional[List[str]] = None,
    region_size: Optional[int] = None,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
    workers: Optional[int] = None,
) -> ResultTable:
    """Regenerate Figure 5's stacked-bar data (fraction of misses per density bin)."""
    kwargs = SWEEP.kwargs(region_size=region_size, scale=scale, num_cpus=num_cpus)
    applications = applications or SWEEP.items
    bin_labels = [label for label, _, _ in DENSITY_BINS]
    table = ResultTable(
        title=f"Figure 5: memory access density ({kwargs['region_size']}B regions)",
        headers=["application", "level", "mean_density", "multi_block_fraction"] + bin_labels,
    )
    sweep = sweep_map(SWEEP.fn, applications, workers=workers, **kwargs)
    for name, histograms in zip(applications, sweep):
        for level in ("L1", "L2"):
            histogram = histograms[level]
            fractions = histogram.fractions()
            table.add_row(
                name,
                level,
                histogram.mean_density(),
                histogram.multi_block_fraction(),
                *[fractions[label] for label in bin_labels],
            )
    return table
