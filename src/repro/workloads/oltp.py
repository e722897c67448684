"""OLTP (TPC-C) workload model.

Models the memory behaviour the paper attributes to online transaction
processing on a commercial DBMS (DB2, Oracle):

* a large buffer pool of 8 kB database pages whose *structural* elements
  (page header, tuple slot index in the footer) are always touched before the
  page body — the canonical source of spatial correlation (Figure 1);
* B-tree index descents whose per-level probe footprints recur;
* tables with different tuple sizes handled by the *same* row-fetch code, so
  a PC-only index is ambiguous while PC+offset (and, for revisited pages,
  address) indices can distinguish the patterns;
* heavy interleaving of accesses across the several pages a transaction has
  open at once (this is what defeats delta-correlation prefetchers such as
  GHB, Section 4.6);
* shared structures — the log tail and a hot lock table — written by every
  processor, generating invalidations and (at large block sizes) false
  sharing;
* a system-mode component modelling OS/syscall activity.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

from repro.trace.record import CODE_WRITE
from repro.workloads.base import (
    AddressSpace,
    Batch,
    FootprintLibrary,
    SyntheticWorkload,
    WorkloadMetadata,
)

# Program-counter bases for the major code paths (arbitrary but stable).
_PC_BTREE_DESCENT = 0x40_0000
_PC_PAGE_HEADER = 0x41_0000
_PC_ROW_FETCH = 0x42_0000
_PC_SLOT_INDEX = 0x43_0000
_PC_LOG_APPEND = 0x44_0000
_PC_LOCK_MANAGER = 0x45_0000
_PC_OS_SYSCALL = 0x46_0000

_PAGE_SIZE = 8192
_BLOCKS_PER_PAGE = _PAGE_SIZE // 64


class OLTPWorkload(SyntheticWorkload):
    """TPC-C style OLTP on a commercial DBMS."""

    VARIANTS: Dict[str, Dict] = {
        "db2": dict(
            description="TPC-C on DB2: 100 warehouses, 64 clients, 450 MB buffer pool",
            buffer_pool_pages=1536,
            index_pages=256,
            pages_per_transaction=(2, 4),
            mlp_hint=1.3,
            store_intensity=0.12,
            system_fraction=0.18,
            overlap_discount=0.6,
            memory_stall_fraction=0.55,
        ),
        "oracle": dict(
            description="TPC-C on Oracle: 100 warehouses, 16 clients, 1.4 GB SGA",
            buffer_pool_pages=2048,
            index_pages=384,
            pages_per_transaction=(3, 5),
            mlp_hint=1.3,
            store_intensity=0.10,
            system_fraction=0.14,
            overlap_discount=0.6,
            memory_stall_fraction=0.55,
        ),
    }

    # Tables: (tuple size in blocks, rows accessed per page visit)
    _TABLES: List[Tuple[str, int, int]] = [
        ("warehouse", 2, 2),
        ("district", 3, 2),
        ("customer", 5, 2),
        ("orderline", 2, 4),
    ]

    def __init__(self, variant: str = "db2", concurrent_transactions: int = 3, **kwargs) -> None:
        variant = variant.lower()
        if variant not in self.VARIANTS:
            raise ValueError(f"unknown OLTP variant {variant!r}; choose from {sorted(self.VARIANTS)}")
        if concurrent_transactions <= 0:
            raise ValueError(
                f"concurrent_transactions must be positive, got {concurrent_transactions}"
            )
        params = self.VARIANTS[variant]
        # TPC-C transactions execute a few ALU/branch instructions per data
        # reference; the default matches the memory-bound profile of Table 1.
        kwargs.setdefault("instructions_per_access", 3.0)
        self.variant = variant
        self.metadata = WorkloadMetadata(
            name=f"oltp-{variant}",
            category="OLTP",
            description=params["description"],
            mlp_hint=params["mlp_hint"],
            store_intensity=params["store_intensity"],
            system_fraction=params["system_fraction"],
            overlap_discount=params.get("overlap_discount", 0.0),
            memory_stall_fraction=params.get("memory_stall_fraction", 0.6),
        )
        super().__init__(**kwargs)
        self.buffer_pool_pages = params["buffer_pool_pages"]
        self.index_pages = params["index_pages"]
        self.pages_per_transaction = params["pages_per_transaction"]
        # A database server time-multiplexes several clients' transactions on
        # each processor (TPC-C runs 16-64 clients on 16 CPUs), so accesses
        # from several transactions — each with several pages open — are
        # interleaved at fine grain.  This is the access-stream property that
        # defeats delta correlation and stresses sectored training structures.
        self.concurrent_transactions = concurrent_transactions

        self.space = AddressSpace(alignment=_PAGE_SIZE)
        self.space.allocate("buffer_pool", self.buffer_pool_pages * _PAGE_SIZE)
        self.space.allocate("log", 4 * 1024 * 1024)
        self.space.allocate("lock_table", 256 * 1024)
        self.space.allocate("os", 2 * 1024 * 1024)

        self.footprints = FootprintLibrary(blocks_per_region=_BLOCKS_PER_PAGE)
        # Structural page elements: header at the start, slot index in the footer.
        self.footprints.define("page_header", [0, 1])
        self.footprints.define("slot_index", [_BLOCKS_PER_PAGE - 2, _BLOCKS_PER_PAGE - 1])
        # Per-level B-tree probe footprints: the binary search over a node's
        # key array touches a recurring cluster of blocks near the node start.
        self.footprints.define("btree_root", [0, 1, 16, 8, 12])
        self.footprints.define("btree_inner", [0, 1, 16, 24, 28, 26])
        self.footprints.define("btree_leaf", [0, 1, 8, 12, 14, 15])
        # OS/syscall footprints.
        self.footprints.define("os_syscall", [0, 1, 2, 10, 11])
        self.footprints.define("os_interrupt", [0, 4, 5, 20])

    # ------------------------------------------------------------------ #
    def lane_batches(self, cpu: int, rng: random.Random) -> Iterator[Batch]:
        """One batch per group of concurrent transactions.

        Each operation of a transaction (B-tree descent, data-page visit, lock
        manager, log append, OS activity) writes its rows in order; the group
        is then interleaved, because each transaction has several pages
        "open" at once and the server multiplexes transactions.
        """
        access, footprint, end_operation, take = self.lane_writer(rng)
        uniform = rng.random
        randrange = rng.randrange
        randint = rng.randint
        sample = self.footprints.sample
        space = self.space
        block_size = self.block_size
        pool_base = space.base("buffer_pool")
        index_pages = self.index_pages
        hot_pages = max(1, self.buffer_pool_pages // 16)
        cold_pages = self.buffer_pool_pages - index_pages
        lock_blocks = space.size("lock_table") // block_size
        low_pages, high_pages = self.pages_per_transaction
        # Level 0 = root (very hot), deeper levels spread out.
        btree_levels = [
            (name, min(index_pages, 4 ** (level + 1)), _PC_BTREE_DESCENT + 0x100 * level)
            for level, name in enumerate(("btree_root", "btree_inner", "btree_leaf"))
        ]
        first_row_block = 2
        log_cursor = randrange(1024) * 64

        def btree_descent() -> None:
            for name, spread, pc_base in btree_levels:
                base = pool_base + randrange(spread) * _PAGE_SIZE
                offsets = sample(name, rng, drop_probability=0.1, add_probability=0.004)
                footprint(base, offsets, pc_base)
            end_operation()

        def data_page_visit(write: bool) -> None:
            table_index = randrange(len(self._TABLES))
            _, tuple_blocks, rows_per_visit = self._TABLES[table_index]
            # Zipf-ish reuse: a hot subset of pages is revisited frequently, the
            # rest of the pool is touched uniformly (mirrors TPC-C's skew).
            if uniform() < 0.6:
                page = index_pages + randrange(hot_pages)
            else:
                page = index_pages + randrange(cold_pages)
            base = pool_base + page * _PAGE_SIZE

            # Structural accesses: header first, slot index before touching rows.
            footprint(base, sample("page_header", rng, drop_probability=0.05), _PC_PAGE_HEADER)
            footprint(base, sample("slot_index", rng, drop_probability=0.05), _PC_SLOT_INDEX)

            # Row fetches: one shared row-fetch routine, table-dependent layout.
            # TPC-C's skew means the rows of interest on a given page are sticky:
            # revisits of the page touch (mostly) the same rows, so both the page
            # address and the trigger PC/offset correlate with the footprint.
            rows_in_page = max(1, (_BLOCKS_PER_PAGE - 4 - first_row_block) // tuple_blocks)
            # The hot rows of a table's pages sit at recurring slots (recently
            # inserted / frequently updated tuples), so the footprint repeats.
            row = (table_index * 5) % rows_in_page
            if uniform() < 0.25:
                row = (row + randint(1, 4)) % rows_in_page
            write_probability = 0.35 if write else 0.05
            for _ in range(rows_per_visit):
                start = first_row_block + (row % rows_in_page) * tuple_blocks
                offsets = range(start, min(start + tuple_blocks, _BLOCKS_PER_PAGE))
                footprint(base, offsets, _PC_ROW_FETCH, write_probability)
                row += 1
            end_operation()

        def os_activity() -> None:
            name = "os_syscall" if uniform() < 0.7 else "os_interrupt"
            page = randrange(space.size("os") // _PAGE_SIZE)
            offsets = sample(name, rng, drop_probability=0.1)
            pc_base = _PC_OS_SYSCALL + (0 if name == "os_syscall" else 0x200)
            footprint(
                space.base("os") + page * _PAGE_SIZE, offsets, pc_base,
                write_probability=0.2, system=True,
            )
            end_operation()

        while True:
            for _ in range(self.concurrent_transactions):
                btree_descent()
                for _ in range(randint(low_pages, high_pages)):
                    data_page_visit(write=uniform() < 0.4)
                # Lock manager: a few probes of the hot, shared lock table.
                for _ in range(randint(2, 4)):
                    block = randrange(lock_blocks)
                    code = CODE_WRITE if uniform() < 0.3 else 0
                    address = space.base("lock_table") + block * block_size
                    access(_PC_LOCK_MANAGER + 4 * (block % 8), address, code)
                end_operation()
                # Log append: stores to the tail every processor shares.
                for _ in range(randint(1, 3)):
                    address = space.base("log") + (log_cursor * block_size) % space.size("log")
                    access(_PC_LOG_APPEND, address, CODE_WRITE)
                    log_cursor += 1
                end_operation()
                if uniform() < self.metadata.system_fraction * 2:
                    os_activity()
            yield take()
