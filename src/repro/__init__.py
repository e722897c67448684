"""Spatial Memory Streaming (ISCA 2006) — a trace-driven reproduction.

The package is organised as the paper's system is:

* :mod:`repro.core` — the SMS predictor (AGT, PHT, prediction registers,
  index schemes, training structures);
* :mod:`repro.memory`, :mod:`repro.coherence`, :mod:`repro.interconnect` —
  the multiprocessor memory-system substrate;
* :mod:`repro.trace`, :mod:`repro.workloads` — access traces and the
  synthetic commercial/scientific workload models;
* :mod:`repro.prefetch` — the prefetcher interface and baselines (GHB PC/DC,
  stride, next-line, temporal);
* :mod:`repro.simulation` — the trace-driven engine, timing model, and
  sampling statistics;
* :mod:`repro.analysis` — coverage, density, and opportunity analyses;
* :mod:`repro.experiments` — one runner per paper table/figure.

Quickstart::

    from repro import SMSConfig, SpatialMemoryStreaming
    from repro.simulation import SimulationConfig, SimulationEngine
    from repro.workloads import make_workload

    workload = make_workload("oltp-db2", num_cpus=4, accesses_per_cpu=5000)
    config = SimulationConfig.small(num_cpus=4)
    engine = SimulationEngine(config, lambda cpu: SpatialMemoryStreaming(SMSConfig()))
    result = engine.run(workload)
    print(f"L1 coverage: {result.l1_coverage():.1%}")
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "core": ("SMSConfig", "SpatialMemoryStreaming"),
        "simulation": ("SimulationConfig", "SimulationEngine", "MachineConfig", "TimingModel"),
    },
)
__all__.append("__version__")
