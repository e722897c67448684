"""Figure 10 — spatial region size sweep.

Sweeps the spatial region size from 128 B (two blocks) to the 8 kB OS page
with PC+offset indexing, AGT training, and an unbounded PHT.

Paper claims checked by the benchmark: coverage rises steeply up to ~2 kB
regions for every category; OLTP (page-aligned structures) keeps improving
slightly beyond 2 kB, while the other categories flatten or decline as larger
regions start spanning unrelated data structures — making 2 kB the chosen
operating point.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.coverage import coverage_from_result
from repro.analysis.reporting import ResultTable
from repro.experiments import common

#: Region sizes swept by the paper's Figure 10.
REGION_SIZES: List[int] = [128, 256, 512, 1024, 2048, 4096, 8192]


def run_category(
    category: str,
    region_sizes: Optional[List[int]] = None,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
) -> Dict[int, float]:
    """Return coverage keyed by region size for one category."""
    from repro.core.config import SMSConfig

    region_sizes = region_sizes or REGION_SIZES
    trace, metadata = common.representative_trace(category, num_cpus=num_cpus, scale=scale)
    config = common.default_config(num_cpus=num_cpus)
    coverage: Dict[int, float] = {}
    for region_size in region_sizes:
        sms_config = SMSConfig.unbounded(region_size=region_size)
        result = common.simulate(
            trace,
            common.sms_factory(sms_config),
            config=config,
            name=f"{category}-{region_size}B",
            metadata=metadata,
        )
        coverage[region_size] = coverage_from_result(result, level="L1").coverage
    return coverage


def run(
    categories: Optional[List[str]] = None,
    region_sizes: Optional[List[int]] = None,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
    workers: Optional[int] = None,
) -> ResultTable:
    """Regenerate Figure 10's curves."""
    categories = categories or list(common.CATEGORY_REPRESENTATIVE)
    region_sizes = region_sizes or REGION_SIZES
    table = ResultTable(
        title="Figure 10: coverage vs spatial region size (PC+offset, AGT, unbounded PHT)",
        headers=["category", "region_size", "coverage"],
    )
    sweep = common.run_sweep(
        run_category,
        categories,
        workers=workers,
        region_sizes=region_sizes,
        scale=scale,
        num_cpus=num_cpus,
    )
    for category, coverage in zip(categories, sweep):
        for region_size in region_sizes:
            table.add_row(category, region_size, coverage[region_size])
    return table
