"""Spatial Memory Streaming — the paper's primary contribution.

The public surface of this package mirrors the two hardware structures of the
design (Section 3):

* the :class:`~repro.core.agt.ActiveGenerationTable` (filter table +
  accumulation table) observes L1 accesses and records spatial patterns over
  the course of each spatial region generation; and
* the :class:`~repro.core.pht.PatternHistoryTable` stores previously observed
  patterns, indexed by a configurable prediction index (PC+offset by
  default), and is consulted at each trigger access to predict and stream the
  blocks of the new generation.

:class:`~repro.core.sms.SpatialMemoryStreaming` ties the two together behind
the generic :class:`repro.prefetch.base.Prefetcher` interface so the
simulation engine can swap SMS, GHB, and the oracle predictor freely.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "config": ("SMSConfig",),
        "region": ("RegionGeometry",),
        "indexing": ("IndexScheme", "make_index_scheme"),
        "agt": ("ActiveGenerationTable", "GenerationRecord"),
        "pht": ("PatternHistoryTable",),
        "prediction": ("PredictionRegisterFile",),
        "training": ("make_trainer",),
        "sms": ("SpatialMemoryStreaming",),
    },
)
