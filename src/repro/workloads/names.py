"""The workload suite's names and metadata type — data only, no generator imported.

Table 1 of the paper lists eleven applications in four categories.  Argparse
``choices``, request validation and the experiment runners need the names, and
the engine and the timing model need the :class:`WorkloadMetadata` type (a
trace replay has no generator at all); only building a workload needs the six
generator modules, which :mod:`repro.workloads.suite` (re-exporting everything
here) imports.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional


class WorkloadMetadata(NamedTuple):
    """Descriptive and timing-model metadata for a workload.

    ``mlp_hint`` is the average number of overlappable outstanding off-chip
    misses the paper reports or implies for the workload class (e.g. ~1.3 for
    OLTP [6], >4.5 for em3d, Section 4.7); the analytical timing model uses
    it to convert miss counts into stall time.  ``store_intensity`` scales
    the store-buffer-full stall component (high for the scan-dominated DSS
    Qry1, which copies large amounts of data into a temporary table).
    ``overlap_discount`` is the fraction of a *covered* miss's latency that
    the out-of-order core would have hidden anyway — the paper observes that
    in OLTP the misses SMS predicts tend to coincide with the ones the core
    can already overlap, so the speedup is lower than the coverage suggests
    (Section 4.7).
    ``memory_stall_fraction`` is the fraction of baseline execution time spent
    on memory stalls (off-chip reads, L2 hits, store buffer) that the paper's
    execution-time breakdowns report for the workload class; the timing model
    calibrates the core's busy time against it (see
    :meth:`repro.simulation.timing.TimingModel.evaluate_pair`).
    """

    name: str
    category: str
    description: str = ""
    mlp_hint: float = 1.5
    store_intensity: float = 0.1
    system_fraction: float = 0.1
    overlap_discount: float = 0.0
    memory_stall_fraction: float = 0.6


#: Category names in the paper's presentation order.
CATEGORIES: List[str] = ["OLTP", "DSS", "Web", "Scientific"]

#: Application names in the paper's presentation order (Table 1 / Figure 11).
APPLICATION_NAMES: List[str] = [
    "oltp-db2",
    "oltp-oracle",
    "dss-qry1",
    "dss-qry2",
    "dss-qry16",
    "dss-qry17",
    "web-apache",
    "web-zeus",
    "em3d",
    "ocean",
    "sparse",
]

CATEGORY_MEMBERS: Dict[str, List[str]] = {
    "OLTP": ["oltp-db2", "oltp-oracle"],
    "DSS": ["dss-qry1", "dss-qry2", "dss-qry16", "dss-qry17"],
    "Web": ["web-apache", "web-zeus"],
    "Scientific": ["em3d", "ocean", "sparse"],
}

#: The application that represents each category in the class-level studies
#: (Figures 6-10 report per-category bars/lines).
CATEGORY_REPRESENTATIVE: Dict[str, str] = {
    "OLTP": "oltp-db2",
    "DSS": "dss-qry2",
    "Web": "web-apache",
    "Scientific": "ocean",
}


def category_members(category: str) -> List[str]:
    """Return the application names belonging to ``category``."""
    if category not in CATEGORY_MEMBERS:
        raise ValueError(f"unknown category {category!r}; choose from {CATEGORIES}")
    return list(CATEGORY_MEMBERS[category])


def category_of(name: str) -> Optional[str]:
    """Return the category an application belongs to, or None if unknown."""
    for category, members in CATEGORY_MEMBERS.items():
        if name in members:
            return category
    return None
