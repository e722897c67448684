"""Pattern History Table: one set-associative table of spatial patterns.

The PHT (Section 3.2) is the long-term store of spatial patterns.  It is
organised like a cache: the prediction index derived from the trigger access
(``stable_hash(key) % num_sets``) selects a set, the key itself is the tag,
and each entry holds the spatial pattern the AGT accumulated over one
generation.  Within a set, entries are kept in least-recently-used order and
a store into a full set evicts the LRU entry.  The practical configuration
is 16k entries, 16-way; an unbounded variant (``num_entries=None``: a single
set that never evicts) supports the paper's "infinite PHT" opportunity
studies.

Layout
------

Each set is one plain ``dict`` mapping ``key -> pattern bits`` (an ``int``
bit mask, bit *i* = block *i* of the region), kept least- to most-recently
used by insertion order alone, the recency rule of the cache sets and the AGT
tables: a lookup hit or a store to a resident key pops the key and re-inserts
it, a new key is appended, and the victim of a full set is the **first key**.
``self._sets[stable_hash(key) % num_sets]`` is the set of ``key``; an
unbounded table is the single set ``self._sets[0]`` and never hashes.

:meth:`PatternHistoryTable.lookup_bits` / :meth:`~PatternHistoryTable.store_bits`
are the table's whole interface.  The lane closures of :mod:`repro.core.sms`
are the one other place that knows this layout: they read and write the sets
in place, with the same statements and the same four counters.

This is the only representation, by measurement: bit-packed slabs were
2.7-3.2x slower than this table at the paper's 16k entries and only saved
memory from 256k entries up, while the largest PHT any figure builds holds
1,608 entries per CPU (see "PHT storage" in the README).

The hardware a PHT entry models is a tag plus one pattern bit per region
block; the Python objects above are host implementation detail, not
modelled hardware cost.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Hashable, List, Optional

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(value: int, data: bytes) -> int:
    """One FNV-1a round over ``data`` (module-level: defined once, not per call)."""
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & _U64_MASK
    return value


def _encode(element) -> bytes:
    """Canonical byte encoding of one key element.

    Integers take a dedicated path (``str`` of an int is its repr, without
    the generic ``repr`` dispatch); everything else keeps the original
    ``repr`` encoding.  The encoding — and therefore every hash value — is
    identical to the historical implementation, which the pinned regression
    test in ``tests/test_pht.py`` enforces.
    """
    if type(element) is int:
        return str(element).encode()
    return repr(element).encode("utf-8")


def _hash_uncached(key: Hashable) -> int:
    state = _FNV_OFFSET
    if isinstance(key, tuple):
        for element in key:
            state = _mix(state, _encode(element))
    else:
        state = _mix(state, _encode(key))
    return state


#: :func:`stable_hash` without its per-element type check, for keys known to be
#: flat tuples of ints and strs — what every ``IndexScheme.key_of`` returns and
#: what the lane closures of :mod:`repro.core.sms` hash.  (The memo keys on
#: equality, so a ``True`` or ``1.0`` element would alias ``1``.)
hash_index_key = lru_cache(maxsize=65536)(_hash_uncached)


def stable_hash(key: Hashable) -> int:
    """Deterministic (process-independent) hash for PHT keys.

    Python's built-in ``hash`` is randomised for strings across processes;
    PHT set selection must be reproducible, so we use an FNV-1a style mix
    over a canonical encoding of the key.

    This sits on the per-lookup hot path of every PHT access, so it is
    memoized: trigger keys recur constantly (the key space is bounded by
    PCs × region offsets), making repeated hashes a single dict probe
    instead of a byte-wise mixing loop.  The memo keys on equality while the
    encoding keys on ``repr``, so only keys for which equality implies an
    identical encoding — ints and strings, the PHT key domain — take the
    cached path; anything else (``True`` == ``1``, ``1.0`` == ``1``) is
    hashed directly to keep the result independent of call order.
    """
    if isinstance(key, tuple):
        for element in key:
            kind = type(element)
            if kind is not int and kind is not str:
                return _hash_uncached(key)
        return hash_index_key(key)
    kind = type(key)
    if kind is int or kind is str:
        return hash_index_key(key)
    return _hash_uncached(key)


class PatternHistoryTable:
    """Set-associative (or unbounded) storage of spatial patterns."""

    def __init__(
        self,
        num_blocks: int,
        num_entries: Optional[int] = 16384,
        associativity: int = 16,
    ) -> None:
        if num_blocks <= 0:
            raise ValueError(f"num_blocks must be positive, got {num_blocks}")
        if num_entries is not None:
            if num_entries <= 0:
                raise ValueError(f"num_entries must be positive or None, got {num_entries}")
            if associativity <= 0 or num_entries % associativity != 0:
                raise ValueError(
                    f"num_entries ({num_entries}) must be a positive multiple of "
                    f"associativity ({associativity})"
                )
        self.num_blocks = num_blocks
        self.num_entries = num_entries
        self.associativity = associativity
        self.num_sets = 1 if num_entries is None else num_entries // associativity
        #: One LRU-ordered ``key -> bits`` dict per set (see module docstring).
        self._sets: List[Dict[Hashable, int]] = [{} for _ in range(self.num_sets)]
        #: Number of live entries, maintained by ``store_bits``.
        self.occupancy = 0
        self.lookups = 0
        self.hits = 0
        self.stores = 0
        self.replacements = 0

    # ------------------------------------------------------------------ #
    @property
    def is_unbounded(self) -> bool:
        return self.num_entries is None

    # ------------------------------------------------------------------ #
    def lookup_bits(self, key: Hashable) -> Optional[int]:
        """Return the stored pattern's bit mask (updating recency), or None.

        A stored all-zero pattern still counts as a hit.
        """
        self.lookups += 1
        if self.num_entries is None:
            table = self._sets[0]
        else:
            table = self._sets[stable_hash(key) % self.num_sets]
        bits = table.pop(key, None)
        if bits is None:
            return None
        self.hits += 1
        table[key] = bits  # re-insert: most recently used
        return bits

    def store_bits(self, key: Hashable, bits: int) -> None:
        """Record the pattern bits observed at the end of a generation.

        The caller vouches that ``bits`` fits this table's pattern width
        (a trainer can only set offsets below ``num_blocks``, so every
        caller satisfies that by construction).
        """
        self.stores += 1
        if self.num_entries is None:
            table = self._sets[0]
        else:
            table = self._sets[stable_hash(key) % self.num_sets]
        if table.pop(key, None) is None:  # a resident key is replaced in place
            if self.num_entries is not None and len(table) >= self.associativity:
                del table[next(iter(table))]  # full set: evict the LRU (first) key
                self.replacements += 1
            else:
                self.occupancy += 1
        table[key] = bits

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        size = "unbounded" if self.is_unbounded else f"{self.num_entries}x{self.associativity}-way"
        return f"PatternHistoryTable({size}, {self.num_blocks}-block patterns)"
