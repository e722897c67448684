"""Interconnect substrate.

The paper's system (Table 1) is a 16-node directory machine on a 4x4 2D
torus with 25 ns per-hop latency and 128 GB/s peak bisection bandwidth.  The
timing model uses this package to translate off-chip misses into latency
(average hop count x per-hop latency + memory access time) and to account for
the bandwidth consumed by demand fetches, prefetches, and overpredictions.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "torus": ("TorusTopology",),
        "traffic": ("BandwidthAccountant", "TrafficClass"),
    },
)
