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

from repro.core.config import SMSConfig
from repro.core.region import RegionGeometry
from repro.core.pattern import SpatialPattern
from repro.core.indexing import (
    AddressIndex,
    IndexScheme,
    PCAddressIndex,
    PCIndex,
    PCOffsetIndex,
    make_index_scheme,
)
from repro.core.agt import ActiveGenerationTable, AGTEvent, GenerationRecord
from repro.core.pht import PatternHistoryTable, stable_hash
from repro.core.prediction import PredictionRegisterFile, StreamRequest
from repro.core.training import (
    AGTTrainer,
    CompletedGeneration,
    DecoupledSectoredTrainer,
    LogicalSectoredTrainer,
    SpatialTrainer,
    TrainerResponse,
    make_trainer,
)
from repro.core.sms import SpatialMemoryStreaming

__all__ = [
    "SMSConfig",
    "RegionGeometry",
    "SpatialPattern",
    "IndexScheme",
    "AddressIndex",
    "PCIndex",
    "PCAddressIndex",
    "PCOffsetIndex",
    "make_index_scheme",
    "ActiveGenerationTable",
    "AGTEvent",
    "GenerationRecord",
    "PatternHistoryTable",
    "stable_hash",
    "PredictionRegisterFile",
    "StreamRequest",
    "SpatialTrainer",
    "AGTTrainer",
    "LogicalSectoredTrainer",
    "DecoupledSectoredTrainer",
    "CompletedGeneration",
    "TrainerResponse",
    "make_trainer",
    "SpatialMemoryStreaming",
]
