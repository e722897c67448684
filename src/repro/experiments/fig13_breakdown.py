"""Figure 13 — execution time breakdown, base versus SMS.

For every application the base and SMS configurations are simulated over the
same trace, converted into per-category cycle counts by the timing model, and
normalised to the base system's CPI so that (as in the paper) the two bars of
one application represent the same amount of completed work and their
relative height equals the speedup.

Paper claims checked by the benchmark: SMS's gains come from reducing the
off-chip read stall component; busy time per unit work is unchanged; Qry1's
store-buffer component is not reduced (and limits its speedup).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.reporting import ResultTable
from repro.experiments import common
from repro.simulation.breakdown import CATEGORY_ORDER, BreakdownCategory, ExecutionBreakdown

if TYPE_CHECKING:
    from repro.simulation.timing import TimingModel


def run_application(
    name: str,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
    timing_model: Optional[TimingModel] = None,
) -> Tuple[ExecutionBreakdown, ExecutionBreakdown]:
    """Return the (base, SMS) execution breakdowns for one application."""
    from repro.simulation.timing import TimingModel

    timing_model = timing_model or TimingModel()
    config = common.default_config(num_cpus=num_cpus)
    trace, metadata = common.build_trace(name, num_cpus=num_cpus, scale=scale)
    base, sms = common.simulate_pair(
        trace,
        common.sms_factory(),
        config=config,
        name=name,
        metadata=metadata,
    )
    base_timing, sms_timing = timing_model.evaluate_pair(base, sms, workload=metadata)
    return base_timing.breakdown, sms_timing.breakdown


def run(
    applications: Optional[List[str]] = None,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
    workers: Optional[int] = None,
) -> ResultTable:
    """Regenerate Figure 13's stacked bars (normalised to the base system)."""
    applications = applications or common.application_names()
    category_headers = [category.value for category in CATEGORY_ORDER]
    table = ResultTable(
        title="Figure 13: normalized execution time breakdown (base vs SMS)",
        headers=["application", "system", "total"] + category_headers,
    )
    sweep = common.run_sweep(
        run_application, applications, workers=workers, scale=scale, num_cpus=num_cpus
    )
    for name, (base_breakdown, sms_breakdown) in zip(applications, sweep):
        for label, breakdown in (("base", base_breakdown), ("SMS", sms_breakdown)):
            normalized = breakdown.normalized(reference=base_breakdown)
            table.add_row(
                name,
                label,
                sum(normalized.values()),
                *[normalized.get(category, 0.0) for category in CATEGORY_ORDER],
            )
    return table
