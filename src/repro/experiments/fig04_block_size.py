"""Figure 4 — L1 and L2 (off-chip) miss rates versus block/region size.

For each workload category the study sweeps the block/region size from 64 B
to the 8 kB OS page and reports, normalised to the 64 B-block baseline:

* the read miss rate of a cache built with that block size (capacity held
  fixed), with the false-sharing component separated beyond 64 B; and
* the *opportunity* — the miss rate of an oracle spatial predictor that
  incurs one miss per spatial region generation of that size.

The paper's claims checked by the benchmark: opportunity keeps improving out
to 8 kB regions; large physical blocks are much worse than the oracle at L1
(conflicts) and suffer false sharing at L2; and therefore no single block
size can capture the available spatial correlation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.opportunity import OpportunityResult, measure_opportunity, normalized_miss_rates
from repro.analysis.reporting import ResultTable
from repro.experiments import common
from repro.simulation.sweep import sweep_map

#: Block/region sizes swept by the paper's Figure 4.
SIZES: List[int] = [64, 128, 512, 2048, 8192]


def run_category(
    category: str,
    sizes: Optional[List[int]] = None,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
) -> Dict[int, OpportunityResult]:
    """Run the block-size/opportunity sweep for one workload category."""
    trace, _ = common.representative_trace(category, num_cpus=num_cpus, scale=scale)
    config = common.default_config(num_cpus=num_cpus)
    return measure_opportunity(trace, config=config, sizes=sizes or SIZES)


#: One task per category, over every block/region size.
SWEEP = common.SweepFigure(run_category, common.CATEGORY_ITEMS, {"sizes": SIZES})


def run(
    categories: Optional[List[str]] = None,
    sizes: Optional[List[int]] = None,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
    workers: Optional[int] = None,
) -> ResultTable:
    """Regenerate Figure 4's series for the requested categories."""
    kwargs = SWEEP.kwargs(sizes=sizes, scale=scale, num_cpus=num_cpus)
    categories = categories or SWEEP.items
    table = ResultTable(
        title="Figure 4: normalized read miss rate vs block/region size",
        headers=[
            "category",
            "size",
            "l1_miss_rate",
            "l1_opportunity",
            "l2_miss_rate",
            "l2_opportunity",
            "l2_false_sharing",
        ],
    )
    sweep = sweep_map(SWEEP.fn, categories, workers=workers, **kwargs)
    for category, results in zip(categories, sweep):
        normalized = normalized_miss_rates(results, baseline_size=64)
        for size in kwargs["sizes"]:
            row = normalized[size]
            table.add_row(
                category,
                size,
                row["l1_miss_rate"],
                row["l1_opportunity"],
                row["l2_miss_rate"],
                row["l2_opportunity"],
                row["l2_false_sharing"],
            )
    return table
