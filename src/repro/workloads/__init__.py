"""Synthetic workload models.

The paper evaluates SMS on full-system traces of commercial and scientific
applications (Table 1).  Those traces cannot be regenerated outside the
authors' FLEXUS/Simics environment, so this package provides synthetic
generators that reproduce the *structural* properties each workload class is
characterised by in the paper:

* **OLTP** (DB2, Oracle on TPC-C) — buffer-pool pages with fixed structural
  elements (header, slot index) plus per-table tuple footprints, B-tree
  descents, heavy interleaving across concurrently-open pages, shared log /
  lock structures written by all processors.
* **DSS** (TPC-H Q1, Q2, Q16, Q17 on DB2) — scan- and join-dominated queries
  that sweep data touched only once (so address-indexed predictors fail but
  code-indexed predictors succeed), with dense per-page footprints and little
  cross-region interleaving (so delta-correlation prefetchers also do well).
* **Web** (Apache, Zeus on SPECweb99) — per-connection structures and packet
  header/trailer walks with fixed layout, many interleaved connections, and a
  large system-mode component.
* **Scientific** (em3d, ocean, sparse) — dense, regular sweeps with partition
  boundary sharing; em3d adds bursty irregular remote accesses, sparse is a
  large working-set streaming kernel.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": ("SyntheticWorkload", "AddressSpace", "FootprintLibrary"),
        "oltp": ("OLTPWorkload",),
        "dss": ("DSSQueryWorkload",),
        "web": ("WebServerWorkload",),
        "scientific": ("Em3dWorkload", "OceanWorkload", "SparseWorkload"),
        "names": ("WorkloadMetadata", "APPLICATION_NAMES", "CATEGORIES"),
        "suite": ("make_workload",),
    },
)
