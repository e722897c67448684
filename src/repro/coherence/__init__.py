"""Coherence substrate.

A functional directory-based invalidation protocol over the per-processor L1
caches, plus the false-sharing classification used in the block-size study of
Figure 4.  The protocol is deliberately untimed — the point of modelling
coherence here is its *behavioural* interaction with SMS: invalidations end
spatial region generations and can kill prefetched blocks before use, and
larger coherence units create false sharing.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "protocol": ("CoherenceState", "DirectoryEntry"),
        "directory": ("Directory",),
        "false_sharing": ("FalseSharingClassifier", "MissClassification"),
        "multiprocessor": ("AccessOutcomeRecord", "MultiprocessorMemorySystem"),
    },
)
