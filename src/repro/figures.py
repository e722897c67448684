"""The paper's figures and tables by name: the one list every front end reads.

``repro.cli experiment --figure NAME`` runs the ``run()`` of ``FIGURES[NAME]``.
The service's ``sweep`` and ``experiment`` verbs accept every figure whose
module declares its sweep as ``SWEEP`` (a
:class:`~repro.experiments.common.SweepFigure`): all of them but ``tab01``.
Data only, because the CLI builds its parser from it and ``submit`` must not
load :mod:`repro.experiments`.
"""

from __future__ import annotations

from types import ModuleType

#: Figure or table name -> the :mod:`repro.experiments` module that regenerates it.
FIGURES = {
    "fig04": "fig04_block_size",
    "fig05": "fig05_density",
    "fig06": "fig06_indexing",
    "fig07": "fig07_pht_storage",
    "fig08": "fig08_training",
    "fig09": "fig09_training_storage",
    "fig10": "fig10_region_size",
    "fig11": "fig11_ghb",
    "fig12": "fig12_speedup",
    "fig13": "fig13_breakdown",
    "tab01": "tab01_config",
}


def figure_module(name: str) -> ModuleType:
    """Import the module that regenerates figure ``name``."""
    from importlib import import_module

    return import_module(f"repro.experiments.{FIGURES[name]}")
