"""Experiment runners — one module per table/figure of the paper.

Each module exposes a ``run(...)`` function that regenerates the rows/series
of its figure using the synthetic workload suite and returns a
:class:`repro.analysis.reporting.ResultTable` (plus, where useful, the raw
results).  The benchmark harness under ``benchmarks/`` simply calls these
runners with its scaled-down defaults and asserts the paper's qualitative
claims on the output.

| Module | Paper artifact |
| --- | --- |
| :mod:`repro.experiments.fig04_block_size` | Fig. 4 — miss rate vs block/region size + oracle opportunity |
| :mod:`repro.experiments.fig05_density` | Fig. 5 — memory access density |
| :mod:`repro.experiments.fig06_indexing` | Fig. 6 — index scheme comparison |
| :mod:`repro.experiments.fig07_pht_storage` | Fig. 7 — PHT storage sensitivity (PC+addr vs PC+off) |
| :mod:`repro.experiments.fig08_training` | Fig. 8 — training structure comparison (DS/LS/AGT) |
| :mod:`repro.experiments.fig09_training_storage` | Fig. 9 — PHT storage sensitivity (LS vs AGT) |
| :mod:`repro.experiments.fig10_region_size` | Fig. 10 — spatial region size sweep |
| :mod:`repro.experiments.fig11_ghb` | Fig. 11 — SMS vs GHB off-chip coverage |
| :mod:`repro.experiments.fig12_speedup` | Fig. 12 — speedup with confidence intervals |
| :mod:`repro.experiments.fig13_breakdown` | Fig. 13 — execution time breakdown |
| :mod:`repro.experiments.tab01_config` | Table 1 — system and application parameters |
"""

from repro._lazy import lazy_exports

# No re-exported names: ``common`` and the figure modules are submodules, which
# the lazy ``__getattr__`` imports on first use.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {}, submodules=("common",))
