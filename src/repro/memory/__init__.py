"""Cache-hierarchy substrate.

This package provides the memory-system components the paper's evaluation is
built on: set-associative caches with configurable block size, replacement
policies, a two-level hierarchy, and the sectored / decoupled-sectored /
logical-sectored tag arrays that prior spatial predictors (Kumar &
Wilkerson's Spatial Footprint Predictor and Chen et al.'s Spatial Pattern
Predictor) trained on.
"""

from repro.memory.block import (
    align_down,
    block_address,
    block_index_in_region,
    blocks_per_region,
    is_power_of_two,
    region_base,
)
from repro.memory.cache import AccessOutcome, CacheLine, EvictedLine, SetAssociativeCache
from repro.memory.replacement import LRUPolicy, RandomPolicy, ReplacementPolicy, make_policy
from repro.memory.hierarchy import CacheHierarchy, HierarchyOutcome, MemoryLevel
from repro.memory.sectored import (
    LogicalSectoredTagArray,
    SectoredTagArray,
    SectorState,
)
from repro.memory.decoupled import DecoupledSectoredCache
from repro.memory.stats import CacheStatistics

__all__ = [
    "align_down",
    "block_address",
    "block_index_in_region",
    "blocks_per_region",
    "is_power_of_two",
    "region_base",
    "AccessOutcome",
    "CacheLine",
    "EvictedLine",
    "SetAssociativeCache",
    "ReplacementPolicy",
    "LRUPolicy",
    "RandomPolicy",
    "make_policy",
    "CacheHierarchy",
    "HierarchyOutcome",
    "MemoryLevel",
    "SectoredTagArray",
    "LogicalSectoredTagArray",
    "SectorState",
    "DecoupledSectoredCache",
    "CacheStatistics",
]
