"""Prefetcher interface.

Every predictor (SMS, GHB, stride, next-line, temporal) is driven the same way by the
simulation engine: it observes each demand access together with its cache
outcome, observes evictions/invalidations from the cache it streams into, and
returns the prefetch requests (and, for the decoupled-sectored training
model, forced evictions) the engine should apply.

The engine instantiates one prefetcher per processor, mirroring the paper's
per-core hardware.
"""

from __future__ import annotations

from typing import List, Optional

from repro.coherence.multiprocessor import AccessOutcomeRecord
from repro.trace.record import MemoryAccess


class PrefetcherStatistics:
    """What a prefetcher counts: patterns trained into its history table."""

    __slots__ = ("trained_patterns",)

    def __init__(self) -> None:
        self.trained_patterns = 0


class PrefetchRequest:
    """A request to bring one block into the cache hierarchy ahead of demand.

    Allocated per prefetched block on the boxed paths, so a plain slotted
    class (its constructor is about half the cost of a named tuple's).
    """

    __slots__ = ("address", "target_l1")

    def __init__(self, address: int, target_l1: bool = True) -> None:
        self.address = address
        self.target_l1 = target_l1


class PrefetcherResponse:
    """What a prefetcher wants the engine to do after one event.

    A response received from another component must be treated as immutable:
    the no-op paths below all return the shared :data:`EMPTY_RESPONSE`
    singleton so the common "nothing to do" case allocates nothing.
    Prefetchers that do have work construct (and may mutate) their own
    instances.
    """

    __slots__ = ("prefetches", "forced_evictions")

    def __init__(
        self,
        prefetches: Optional[List[PrefetchRequest]] = None,
        forced_evictions: Optional[List[int]] = None,
    ) -> None:
        self.prefetches = [] if prefetches is None else prefetches
        self.forced_evictions = [] if forced_evictions is None else forced_evictions

    @property
    def is_empty(self) -> bool:
        return not self.prefetches and not self.forced_evictions


#: Shared empty response for the allocation-free "nothing to do" fast path.
EMPTY_RESPONSE = PrefetcherResponse()


class Prefetcher:
    """Base class for all predictors."""

    name = "base"
    #: Whether this prefetcher's fills target the L1 (True) or only the L2.
    streams_into_l1 = True

    def __init__(self) -> None:
        self.stats = PrefetcherStatistics()

    def on_access(self, record: MemoryAccess, outcome: AccessOutcomeRecord) -> PrefetcherResponse:
        """Observe a demand access (with its memory-system outcome).

        The engine's lane loop calls this for a prefetcher without a
        :meth:`lane_hook`, with a record and an outcome boxed for that access
        alone: levels and hit / prefetch-hit / miss results are exact,
        ``evicted`` is never set (victims arrive through :meth:`on_eviction`)
        and ``miss_classification`` is ``FALSE_SHARING`` or ``None``.
        """
        raise NotImplementedError

    def on_eviction(self, block_address: int, invalidated: bool) -> PrefetcherResponse:
        """Observe a block leaving the cache level this prefetcher trains on."""
        return EMPTY_RESPONSE

    def lane_hook(self):
        """Per-access callable for the engine's lane fast path, or ``None``.

        A prefetcher that can observe demand accesses without a boxed record
        returns ``fn(pc, address)``, which answers ``None`` when there is
        nothing to issue and otherwise a sequence of ``(base, bits)`` runs:
        bit *i* of a run asks for the block at ``base + (i <<
        self.lane_block_shift)`` (an attribute such a prefetcher sets), and
        the engine issues each run lowest bit first, the runs in order.  Its
        effects must be bit-identical to
        :meth:`on_access` for accesses that never force evictions.  Returning
        ``None`` here (the default) makes the lane loop box this prefetcher's
        accesses and call :meth:`on_access`; the other CPUs and the memory
        system around it stay unboxed.
        """
        return None

    def lane_eviction_hook(self):
        """Per-eviction callable for the lane fast path, or ``None``.

        A prefetcher that can observe a (non-invalidation) eviction without
        issuing prefetches or forced evictions returns ``fn(block_address) ->
        None``; its effects must be bit-identical to
        ``on_eviction(block_address, invalidated=False)``.  Returning ``None``
        (the default) makes the lane loop call :meth:`on_eviction` and apply
        the response as the reference loop does.
        """
        return None

    def finalize(self) -> PrefetcherResponse:
        """Called once at end of trace; flush any internal training state."""
        return EMPTY_RESPONSE

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NullPrefetcher(Prefetcher):
    """A prefetcher that never prefetches (the baseline system)."""

    name = "none"

    def on_access(self, record: MemoryAccess, outcome: AccessOutcomeRecord) -> PrefetcherResponse:
        return EMPTY_RESPONSE
