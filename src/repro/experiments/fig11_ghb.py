"""Figure 11 — practical SMS versus the Global History Buffer.

Compares the practical SMS configuration (32-entry filter table, 64-entry
accumulation table, 2 kB regions, 16k-entry 16-way PHT) against GHB PC/DC
with 256-entry and 16k-entry history buffers, reporting off-chip read-miss
coverage and overpredictions for every application.

Paper claims checked by the benchmark: SMS outperforms GHB on OLTP and web
workloads (whose interleaved access sequences disrupt delta correlation);
GHB nearly matches SMS on DSS and the scientific applications; and the
larger 16k-entry GHB helps little where interleaving is the problem.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.coverage import CoverageReport, coverage_from_result
from repro.analysis.reporting import ResultTable
from repro.experiments import common

#: Configurations compared, in the paper's presentation order.
CONFIGURATIONS: List[str] = ["ghb-256", "ghb-16k", "sms"]


def _factory_for(configuration: str):
    if configuration == "ghb-256":
        return common.ghb_factory(buffer_entries=256)
    if configuration == "ghb-16k":
        return common.ghb_factory(buffer_entries=16384)
    if configuration == "sms":
        return common.sms_factory()
    raise ValueError(f"unknown configuration {configuration!r}")


def run_application(
    name: str,
    configurations: Optional[List[str]] = None,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
) -> Dict[str, CoverageReport]:
    """Run every configuration over one application's trace (off-chip coverage)."""
    configurations = configurations or CONFIGURATIONS
    trace, metadata = common.build_trace(name, num_cpus=num_cpus, scale=scale)
    config = common.default_config(num_cpus=num_cpus)
    reports: Dict[str, CoverageReport] = {}
    for configuration in configurations:
        result = common.simulate(
            trace,
            _factory_for(configuration),
            config=config,
            name=f"{name}-{configuration}",
            metadata=metadata,
        )
        reports[configuration] = coverage_from_result(result, level="L2", name=configuration)
    return reports


def run(
    applications: Optional[List[str]] = None,
    configurations: Optional[List[str]] = None,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
    workers: Optional[int] = None,
) -> ResultTable:
    """Regenerate Figure 11's bars."""
    applications = applications or common.application_names()
    configurations = configurations or CONFIGURATIONS
    table = ResultTable(
        title="Figure 11: off-chip read miss coverage, SMS vs GHB",
        headers=["application", "configuration", "coverage", "uncovered", "overpredictions"],
    )
    sweep = common.run_sweep(
        run_application,
        applications,
        workers=workers,
        configurations=configurations,
        scale=scale,
        num_cpus=num_cpus,
    )
    for name, reports in zip(applications, sweep):
        for configuration in configurations:
            report = reports[configuration]
            table.add_row(
                name,
                configuration,
                report.coverage,
                report.uncovered_fraction,
                report.overprediction_fraction,
            )
    return table
