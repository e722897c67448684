"""Figure 8 — comparison of training structures.

Compares the decoupled sectored cache (DS), the logical sectored tag array
(LS), and the paper's Active Generation Table (AGT) as the structure that
observes spatial region generations, with an unbounded PHT so that only the
training organisation differs.

Paper claims checked by the benchmark: in the commercial workloads, DS's
constraints on cache contents cost it coverage relative to both LS and AGT;
LS and AGT achieve similar coverage; in the scientific workloads all three
behave similarly because blocks of a sector tend to live and die together.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.coverage import CoverageReport, compare_coverage
from repro.analysis.reporting import ResultTable
from repro.experiments import common
from repro.simulation.sweep import sweep_map

#: Training structures in the paper's presentation order.
TRAINERS: List[str] = ["decoupled-sectored", "logical-sectored", "agt"]

_SHORT_NAMES = {"decoupled-sectored": "DS", "logical-sectored": "LS", "agt": "AGT"}


def run_category(
    category: str,
    trainers: Optional[List[str]] = None,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
) -> Dict[str, CoverageReport]:
    """Run every training structure over one category's representative trace."""
    from repro.core.config import SMSConfig

    trainers = trainers or TRAINERS
    trace, metadata = common.representative_trace(category, num_cpus=num_cpus, scale=scale)
    config = common.default_config(num_cpus=num_cpus)
    baseline = common.simulate(trace, None, config=config, name=f"{category}-base", metadata=metadata)
    reports: Dict[str, CoverageReport] = {}
    for trainer in trainers:
        sms_config = SMSConfig(
            trainer=trainer,
            pht_entries=None,
            trained_cache_capacity=config.l1_capacity,
            trained_cache_associativity=config.l1_associativity,
        )
        result = common.simulate(
            trace,
            common.sms_factory(sms_config),
            config=config,
            name=f"{category}-{trainer}",
            metadata=metadata,
        )
        # Coverage is measured against the no-prefetch baseline cache so that
        # the extra conflict misses of the decoupled sectored organisation
        # show up as lost coverage, exactly as in the paper.
        reports[trainer] = compare_coverage(baseline, result, level="L1", name=trainer)
    return reports


#: One task per category, over every training structure.
SWEEP = common.SweepFigure(run_category, common.CATEGORY_ITEMS, {"trainers": TRAINERS})


def run(
    categories: Optional[List[str]] = None,
    trainers: Optional[List[str]] = None,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
    workers: Optional[int] = None,
) -> ResultTable:
    """Regenerate Figure 8's bars."""
    kwargs = SWEEP.kwargs(trainers=trainers, scale=scale, num_cpus=num_cpus)
    categories = categories or SWEEP.items
    table = ResultTable(
        title="Figure 8: training structure comparison (unbounded PHT, L1 read misses)",
        headers=["category", "trainer", "coverage", "uncovered", "overpredictions"],
    )
    sweep = sweep_map(SWEEP.fn, categories, workers=workers, **kwargs)
    for category, reports in zip(categories, sweep):
        for trainer in kwargs["trainers"]:
            report = reports[trainer]
            table.add_row(
                category,
                _SHORT_NAMES.get(trainer, trainer),
                report.coverage,
                report.uncovered_fraction,
                report.overprediction_fraction,
            )
    return table
