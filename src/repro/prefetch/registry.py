"""Per-CPU prefetcher factories and the name -> factory table.

One table for every front end that selects a prefetcher by name
(``repro.cli simulate --prefetcher``, the service's ``simulate`` verb) and
for the experiment runners' ``*_factory`` helpers.  Each factory imports its
prefetcher's class when it is called, so listing the names — argparse
``choices``, request validation — imports no predictor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

if TYPE_CHECKING:
    from repro.core.config import SMSConfig
    from repro.prefetch.base import Prefetcher

#: A factory building the prefetcher for one CPU.
PrefetcherFactory = Callable[[int], "Prefetcher"]


def null_factory() -> PrefetcherFactory:
    """Per-CPU factory for the no-prefetching baseline."""
    from repro.prefetch.base import NullPrefetcher

    return lambda cpu: NullPrefetcher()


def sms_factory(config: Optional[SMSConfig] = None) -> PrefetcherFactory:
    """Per-CPU factory for SMS with ``config`` (practical paper config by default)."""
    from repro.core.config import SMSConfig
    from repro.core.sms import SpatialMemoryStreaming

    sms_config = config or SMSConfig()
    return lambda cpu: SpatialMemoryStreaming(sms_config)


def ghb_factory(buffer_entries: int = 256, degree: int = 4) -> PrefetcherFactory:
    """Per-CPU factory for the GHB PC/DC baseline."""
    from repro.prefetch.ghb import GHBConfig, GlobalHistoryBuffer

    return lambda cpu: GlobalHistoryBuffer(GHBConfig(buffer_entries=buffer_entries, degree=degree))


def stride_factory(degree: int = 4) -> PrefetcherFactory:
    """Per-CPU factory for the stride prefetcher baseline."""
    from repro.prefetch.stride import StridePrefetcher

    return lambda cpu: StridePrefetcher(degree=degree)


def next_line_factory(degree: int = 1) -> PrefetcherFactory:
    """Per-CPU factory for the sequential next-line baseline."""
    from repro.prefetch.nextline import NextLinePrefetcher

    return lambda cpu: NextLinePrefetcher(degree=degree)


def temporal_factory() -> PrefetcherFactory:
    """Per-CPU factory for the temporal (miss-pair) correlation baseline."""
    from repro.prefetch.temporal import TemporalCorrelationPrefetcher

    return lambda cpu: TemporalCorrelationPrefetcher()


#: Prefetchers selectable by name: ``PREFETCHER_CHOICES[name]()`` is the
#: per-CPU factory a :class:`~repro.simulation.engine.SimulationEngine` takes.
PREFETCHER_CHOICES: Dict[str, Callable[[], PrefetcherFactory]] = {
    "none": null_factory,
    "sms": sms_factory,
    "ghb": ghb_factory,
    "ghb-16k": lambda: ghb_factory(buffer_entries=16384),
    "stride": stride_factory,
    "next-line": next_line_factory,
    "temporal": temporal_factory,
}
