"""Cache-hierarchy substrate.

This package provides the memory-system components the paper's evaluation is
built on: set-associative caches with configurable block size, LRU replacement
state, and the sectored / decoupled-sectored /
logical-sectored tag arrays that prior spatial predictors (Kumar &
Wilkerson's Spatial Footprint Predictor and Chen et al.'s Spatial Pattern
Predictor) trained on.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "block": (
            "block_address",
            "block_index_in_region",
            "blocks_per_region",
            "is_power_of_two",
            "region_base",
        ),
        "cache": ("AccessOutcome", "CacheLine", "EvictedLine", "SetAssociativeCache"),
        "replacement": ("LRUPolicy",),
        "hierarchy": ("MemoryLevel",),
        "sectored": ("LogicalSectoredTagArray", "SectorState"),
    },
)
