"""Figure 6 — prediction index comparison.

Compares Address, PC+address, PC, and PC+offset indexing with an unbounded
PHT, reporting L1 read-miss coverage, the uncovered remainder, and
overpredictions as fractions of the baseline miss count.

Paper claims checked by the benchmark: PC+offset achieves the highest (or
tied-highest) coverage in every category; address-based indices collapse on
DSS because its scans touch data only once; PC-only indexing overpredicts
more than PC+offset because it cannot distinguish different traversals by the
same code.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.coverage import CoverageReport, coverage_from_result
from repro.analysis.reporting import ResultTable
from repro.experiments import common

#: Index schemes in the paper's presentation order.
INDEX_SCHEMES: List[str] = ["address", "pc+address", "pc", "pc+offset"]


def run_category(
    category: str,
    schemes: Optional[List[str]] = None,
    region_size: int = 2048,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
) -> Dict[str, CoverageReport]:
    """Run every index scheme over one category's representative trace."""
    from repro.core.config import SMSConfig

    schemes = schemes or INDEX_SCHEMES
    trace, metadata = common.representative_trace(category, num_cpus=num_cpus, scale=scale)
    config = common.default_config(num_cpus=num_cpus)
    reports: Dict[str, CoverageReport] = {}
    for scheme in schemes:
        sms_config = SMSConfig.unbounded(index_scheme=scheme, region_size=region_size)
        result = common.simulate(
            trace,
            common.sms_factory(sms_config),
            config=config,
            name=f"{category}-{scheme}",
            metadata=metadata,
        )
        reports[scheme] = coverage_from_result(result, level="L1", name=scheme)
    return reports


def run(
    categories: Optional[List[str]] = None,
    schemes: Optional[List[str]] = None,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
    workers: Optional[int] = None,
) -> ResultTable:
    """Regenerate Figure 6's bars."""
    categories = categories or list(common.CATEGORY_REPRESENTATIVE)
    schemes = schemes or INDEX_SCHEMES
    table = ResultTable(
        title="Figure 6: index comparison (unbounded PHT, L1 read misses)",
        headers=["category", "index", "coverage", "uncovered", "overpredictions"],
    )
    sweep = common.run_sweep(
        run_category, categories, workers=workers, schemes=schemes, scale=scale, num_cpus=num_cpus
    )
    for category, reports in zip(categories, sweep):
        for scheme in schemes:
            report = reports[scheme]
            table.add_row(
                category,
                scheme,
                report.coverage,
                report.uncovered_fraction,
                report.overprediction_fraction,
            )
    return table
