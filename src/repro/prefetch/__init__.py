"""Prefetchers.

This package defines the prefetcher interface shared by SMS and every
baseline, plus the baselines themselves:

* :class:`~repro.prefetch.ghb.GlobalHistoryBuffer` — the GHB PC/DC prefetcher
  the paper compares against (Figure 11);
* :class:`~repro.prefetch.stride.StridePrefetcher` — a classic per-PC stride
  prefetcher (reference point / extension ablation);
* :class:`~repro.prefetch.nextline.NextLinePrefetcher` — trivial sequential
  prefetcher used as a sanity baseline;
* :class:`~repro.prefetch.temporal.TemporalCorrelationPrefetcher` — a
  Markov-style miss-pair correlation predictor representing the temporal
  correlation approaches of the related-work section.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": ("Prefetcher", "PrefetcherResponse", "PrefetchRequest", "NullPrefetcher"),
        "ghb": ("GlobalHistoryBuffer", "GHBConfig"),
        "stride": ("StridePrefetcher",),
        "nextline": ("NextLinePrefetcher",),
        "temporal": ("TemporalCorrelationPrefetcher",),
    },
)
