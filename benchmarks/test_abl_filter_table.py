"""Ablation — the filter table's purpose.

The filter table keeps single-access (trigger-only) generations out of the
accumulation table.  This ablation measures, for the commercial
representatives, what fraction of generations never see a second block —
the paper's justification ("a significant minority") — and verifies the
practical AGT does not lose coverage relative to one with a much larger
accumulation table that could absorb those singletons directly.
"""

from benchmarks.conftest import run_once, show
from repro.analysis.coverage import coverage_from_result
from repro.analysis.reporting import ResultTable
from repro.core import SMSConfig, SpatialMemoryStreaming
from repro.experiments import common
from repro.simulation.engine import SimulationEngine


def run_ablation(scale: float, num_cpus: int) -> ResultTable:
    table = ResultTable(
        title="Ablation: filter table (singleton generations and coverage impact)",
        headers=["category", "singleton_fraction", "coverage_practical", "coverage_big_accumulation"],
    )
    config = common.default_config(num_cpus=num_cpus)
    for category in ("OLTP", "Web", "DSS"):
        trace, metadata = common.representative_trace(category, num_cpus=num_cpus, scale=scale)

        # Practical configuration: 32-entry filter + 64-entry accumulation.
        engine = SimulationEngine(
            config, lambda cpu: SpatialMemoryStreaming(SMSConfig(pht_entries=None)), name="practical"
        )
        practical = engine.run(trace)
        practical.workload = metadata
        agt = engine.prefetchers[0].trainer
        total = agt.generations_started or 1
        singleton_fraction = agt.filter_only_generations / total

        # No filter table, but a 4x accumulation table to absorb singletons.
        big_config = SMSConfig(filter_entries=1, accumulation_entries=256, pht_entries=None)
        big = common.simulate(
            trace, common.sms_factory(big_config), config=config, name="big", metadata=metadata
        )

        table.add_row(
            category,
            singleton_fraction,
            coverage_from_result(practical, level="L1").coverage,
            coverage_from_result(big, level="L1").coverage,
        )
    return table


def test_abl_filter_table(benchmark, scale, num_cpus):
    table = run_once(benchmark, run_ablation, scale=scale, num_cpus=num_cpus)
    show(table)
    rows = {row["category"]: row for row in table.to_dicts()}

    # "A significant minority of spatial region generations never have a
    # second block accessed" (Section 3.1).  The synthetic workloads touch at
    # least a couple of blocks in most regions, so the singleton fraction is
    # smaller here than in the paper's full-system traces, but it is present
    # and bounded away from "all generations".
    assert any(row["singleton_fraction"] > 0.002 for row in rows.values())
    for category, row in rows.items():
        assert row["singleton_fraction"] < 0.9
        # The filter-table design does not cost coverage relative to simply
        # enlarging the accumulation table.
        assert row["coverage_practical"] >= row["coverage_big_accumulation"] - 0.06
