"""Figure 12 — speedup of SMS over the baseline system.

For every application, the baseline (no prefetching) and SMS configurations
are simulated over several trace samples (different seeds — the analogue of
the paper's SMARTS checkpoints) and the analytical timing model converts the
measured miss behaviour into execution time.  The per-sample paired speedups
give the mean speedup and its 95% confidence interval.

Paper claims checked by the benchmark: every workload class shows a speedup
at or above 1.0; the scientific ``sparse`` kernel shows by far the largest
gain; the scan-dominated DSS Qry1, which is store-buffer limited, shows the
smallest; and the geometric-mean speedup is well above 1.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.analysis.reporting import ResultTable
from repro.experiments import common
from repro.simulation.sampling import ConfidenceInterval, paired_speedup

if TYPE_CHECKING:
    from repro.simulation.timing import TimingModel


def run_application(
    name: str,
    samples: int = 3,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
    timing_model: Optional[TimingModel] = None,
) -> ConfidenceInterval:
    """Measure the SMS speedup (with CI) for one application."""
    from repro.simulation.timing import TimingModel

    timing_model = timing_model or TimingModel()
    config = common.default_config(num_cpus=num_cpus)
    base_times: List[float] = []
    sms_times: List[float] = []
    for sample in range(samples):
        trace, metadata = common.build_trace(
            name, num_cpus=num_cpus, scale=scale, seed=common.DEFAULT_SEED + sample
        )
        base, sms = common.simulate_pair(
            trace,
            common.sms_factory(),
            config=config,
            name=name,
            metadata=metadata,
        )
        base_timing, sms_timing = timing_model.evaluate_pair(base, sms, workload=metadata)
        base_times.append(base_timing.cpi)
        sms_times.append(sms_timing.cpi)
    return paired_speedup(base_times, sms_times)


def geometric_mean(values: List[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run(
    applications: Optional[List[str]] = None,
    samples: int = 3,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
    workers: Optional[int] = None,
) -> ResultTable:
    """Regenerate Figure 12's speedup bars (with 95% confidence intervals)."""
    applications = applications or common.application_names()
    table = ResultTable(
        title="Figure 12: SMS speedup over the baseline system",
        headers=["application", "speedup", "ci_half_width", "ci_low", "ci_high"],
    )
    speedups: Dict[str, float] = {}
    sweep = common.run_sweep(
        run_application, applications, workers=workers, samples=samples, scale=scale, num_cpus=num_cpus
    )
    for name, interval in zip(applications, sweep):
        speedups[name] = interval.mean
        table.add_row(name, interval.mean, interval.half_width, interval.lower, interval.upper)
    table.add_row(
        "geometric-mean", geometric_mean(list(speedups.values())), 0.0, 0.0, 0.0
    )
    return table
