"""Workload suite registry.

Table 1 of the paper lists eleven applications in four categories.  This
module provides factories that build any of them by name, grouped access by
category, and the default representative used by the class-level sensitivity
studies (Figures 6-10), which the paper reports per category.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.workloads.base import SyntheticWorkload
from repro.workloads.dss import DSSQueryWorkload
from repro.workloads.names import (  # noqa: F401 - the suite's public names live in the data-only module
    APPLICATION_NAMES,
    CATEGORIES,
    CATEGORY_REPRESENTATIVE,
    category_members,
    category_of,
)
from repro.workloads.oltp import OLTPWorkload
from repro.workloads.scientific import Em3dWorkload, OceanWorkload, SparseWorkload
from repro.workloads.web import WebServerWorkload

_FACTORIES: Dict[str, Callable[..., SyntheticWorkload]] = {
    "oltp-db2": lambda **kw: OLTPWorkload(variant="db2", **kw),
    "oltp-oracle": lambda **kw: OLTPWorkload(variant="oracle", **kw),
    "dss-qry1": lambda **kw: DSSQueryWorkload(variant="qry1", **kw),
    "dss-qry2": lambda **kw: DSSQueryWorkload(variant="qry2", **kw),
    "dss-qry16": lambda **kw: DSSQueryWorkload(variant="qry16", **kw),
    "dss-qry17": lambda **kw: DSSQueryWorkload(variant="qry17", **kw),
    "web-apache": lambda **kw: WebServerWorkload(variant="apache", **kw),
    "web-zeus": lambda **kw: WebServerWorkload(variant="zeus", **kw),
    "em3d": lambda **kw: Em3dWorkload(**kw),
    "ocean": lambda **kw: OceanWorkload(**kw),
    "sparse": lambda **kw: SparseWorkload(**kw),
}


def make_workload(name: str, **overrides) -> SyntheticWorkload:
    """Build a workload by its Table-1 name (e.g. ``"oltp-db2"``, ``"sparse"``)."""
    key = name.lower().strip()
    if key not in _FACTORIES:
        raise ValueError(f"unknown workload {name!r}; choose from {APPLICATION_NAMES}")
    return _FACTORIES[key](**overrides)


def all_workloads(**overrides) -> List[SyntheticWorkload]:
    """Build every application in the suite."""
    return [make_workload(name, **overrides) for name in APPLICATION_NAMES]


def workloads_by_category(category: str, **overrides) -> List[SyntheticWorkload]:
    """Build every application of one category (``"OLTP"``, ``"DSS"``, ``"Web"``,
    ``"Scientific"``)."""
    return [make_workload(name, **overrides) for name in category_members(category)]


def representative_workloads(**overrides) -> Dict[str, SyntheticWorkload]:
    """One representative application per category (used by Figures 6-10)."""
    return {
        category: make_workload(name, **overrides)
        for category, name in CATEGORY_REPRESENTATIVE.items()
    }
