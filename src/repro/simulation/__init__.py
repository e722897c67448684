"""Trace-driven simulation engine and timing model.

:class:`~repro.simulation.engine.SimulationEngine` drives a multiprocessor
memory system (:mod:`repro.coherence`) and a per-CPU prefetcher through a
trace, producing a :class:`~repro.simulation.engine.SimulationResult` with
the miss, coverage, and overprediction counters every figure of the paper is
built from.  :mod:`repro.simulation.timing` converts those counters into the
execution-time breakdowns and speedups of Figures 12-13 using the Table-1
machine parameters, and :mod:`repro.simulation.sampling` supplies the
SMARTS-style paired-measurement confidence intervals.
:class:`~repro.simulation.sweep.SweepRunner` fans experiment sweeps out over
the workers of a short-lived :class:`repro.serve.pool.WorkerPool`, memoizing
completed task results through a
:class:`~repro.simulation.result_cache.SweepResultCache`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "result_cache": (
            "SweepResultCache",
            "default_cache",
            "quarantine_file",
            "set_default_cache",
        ),
        "config": ("MachineConfig", "SimulationConfig"),
        "engine": ("SimulationEngine", "SimulationResult"),
        "timing": ("TimingModel",),
        "breakdown": ("BreakdownCategory", "ExecutionBreakdown"),
        "sampling": ("ConfidenceInterval", "paired_speedup"),
        "sweep": ("SweepTask", "set_default_max_retries", "sweep_map"),
    },
)
