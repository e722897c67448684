"""The workload suite's names — data only, no generator imported.

Table 1 of the paper lists eleven applications in four categories.  Argparse
``choices``, request validation and the experiment runners need the names;
only building a workload needs the six generator modules, which
:mod:`repro.workloads.suite` (re-exporting everything here) imports.
"""

from __future__ import annotations

from typing import Dict, List, Optional

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
