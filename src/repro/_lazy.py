"""Lazy package exports (PEP 562), so start-up is proportional to the command.

A package ``__init__`` that only re-exports hands :func:`lazy_exports` a
``submodule -> names`` table instead of importing its submodules::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {"pht": ("PatternHistoryTable",)})

``from repro.core import PatternHistoryTable`` then imports ``repro.core.pht``
on first use — and importing ``repro.trace.binary`` no longer executes the
sweep runner.  A new public name goes into its package's table, never into a
module-level import of the ``__init__``.

The rule's counterpart is :func:`preload_simulation`: a process that exists
to be warm imports, before it forks, what its workers would otherwise each
import on their first job.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, Iterable[str]], submodules: Iterable[str] = ()
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``'s re-export table.

    Any other public attribute is tried as a submodule, so ``repro.core.pht``
    and ``repro.experiments.common`` still resolve after a bare package import;
    ``submodules`` names the ones that belong in ``__all__``.
    """
    owner = {name: submodule for submodule, names in table.items() for name in names}
    exported = [*owner, *submodules]
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        if name.startswith("_"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        submodule = owner.get(name)
        try:
            module = import_module(f"{package}.{submodule or name}")
        except ModuleNotFoundError as exc:
            if submodule is not None or exc.name != f"{package}.{name}":
                raise
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(module, name) if submodule else module
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exported))

    return __getattr__, __dir__, exported


def preload_simulation() -> None:
    """Import everything a simulation job touches: the engine, the workload
    generators and every selectable prefetcher's class.  Called right before a
    process forks workers, so they inherit the modules instead of importing
    them once each on their first point or request."""
    import repro.simulation.engine  # noqa: F401
    import repro.workloads.suite  # noqa: F401
    from repro.prefetch.registry import PREFETCHER_CHOICES

    for make_factory in PREFETCHER_CHOICES.values():
        make_factory()  # building the per-CPU factory imports the class; no prefetcher is built
