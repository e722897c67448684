"""DSS (TPC-H) workload model.

Models the decision-support queries of Table 1, all run on DB2:

* **Qry 1** — scan-dominated: a sequential sweep over a table far larger than
  the cache hierarchy, aggregating into a small temporary table.  Data is
  visited only once (so address-indexed predictors cannot help, Section 2.2),
  footprints are dense, and the heavy stream of stores to the temporary table
  is what fills the store buffer and limits SMS's benefit (Section 4.7).
* **Qry 2 / Qry 16** — join-dominated: a build scan over the inner relation
  populating a hash table, then a probe scan over the outer relation with a
  hash-bucket access per probe.
* **Qry 17** — balanced scan/join behaviour.

DSS differs from OLTP in two ways that matter for the evaluation: accesses
within a processor are largely *not* interleaved across regions (each
operator streams through its input), which is why GHB's delta correlation
nearly matches SMS here (Figure 11); and the scanned data is touched only
once, which is why PC-based indices beat address-based ones (Figure 6).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator

from repro.trace.record import CODE_WRITE
from repro.workloads.base import (
    AddressSpace,
    Batch,
    FootprintLibrary,
    SyntheticWorkload,
    WorkloadMetadata,
)

_PC_SCAN = 0x50_0000
_PC_SCAN_HEADER = 0x51_0000
_PC_AGGREGATE = 0x52_0000
_PC_BUILD = 0x53_0000
_PC_PROBE = 0x54_0000
_PC_HASH_BUCKET = 0x55_0000
_PC_TEMP_WRITE = 0x56_0000

_PAGE_SIZE = 8192
_BLOCKS_PER_PAGE = _PAGE_SIZE // 64


class DSSQueryWorkload(SyntheticWorkload):
    """TPC-H decision-support query on DB2."""

    VARIANTS: Dict[str, Dict] = {
        "qry1": dict(
            description="TPC-H Q1: scan-dominated aggregation, 450 MB buffer pool",
            scan_fraction=0.85,
            join_fraction=0.0,
            temp_write_blocks=(8, 14),
            tuple_blocks=2,
            mlp_hint=2.2,
            store_intensity=1.0,
            system_fraction=0.06,
            overlap_discount=0.35,
            memory_stall_fraction=0.75,
        ),
        "qry2": dict(
            description="TPC-H Q2: join-dominated, 450 MB buffer pool",
            scan_fraction=0.40,
            join_fraction=0.50,
            temp_write_blocks=(0, 1),
            tuple_blocks=3,
            mlp_hint=2.0,
            store_intensity=0.10,
            system_fraction=0.06,
            overlap_discount=0.15,
            memory_stall_fraction=0.60,
        ),
        "qry16": dict(
            description="TPC-H Q16: join-dominated, 450 MB buffer pool",
            scan_fraction=0.35,
            join_fraction=0.55,
            temp_write_blocks=(0, 1),
            tuple_blocks=4,
            mlp_hint=2.0,
            store_intensity=0.12,
            system_fraction=0.06,
            overlap_discount=0.15,
            memory_stall_fraction=0.60,
        ),
        "qry17": dict(
            description="TPC-H Q17: balanced scan-join, 450 MB buffer pool",
            scan_fraction=0.60,
            join_fraction=0.30,
            temp_write_blocks=(1, 2),
            tuple_blocks=3,
            mlp_hint=2.1,
            store_intensity=0.20,
            system_fraction=0.06,
            overlap_discount=0.18,
            memory_stall_fraction=0.65,
        ),
    }

    def __init__(self, variant: str = "qry1", **kwargs) -> None:
        variant = variant.lower()
        if variant not in self.VARIANTS:
            raise ValueError(f"unknown DSS variant {variant!r}; choose from {sorted(self.VARIANTS)}")
        params = self.VARIANTS[variant]
        # Each scanned tuple is processed by predicate/aggregation code, so DSS
        # executes far more instructions per data reference than OLTP.
        kwargs.setdefault("instructions_per_access", 9.0)
        self.variant = variant
        self.metadata = WorkloadMetadata(
            name=f"dss-{variant}",
            category="DSS",
            description=params["description"],
            mlp_hint=params["mlp_hint"],
            store_intensity=params["store_intensity"],
            system_fraction=params["system_fraction"],
            overlap_discount=params.get("overlap_discount", 0.0),
            memory_stall_fraction=params.get("memory_stall_fraction", 0.6),
        )
        super().__init__(**kwargs)
        self.scan_fraction = params["scan_fraction"]
        self.join_fraction = params["join_fraction"]
        self.temp_write_blocks = params["temp_write_blocks"]
        self.tuple_blocks = params["tuple_blocks"]

        # The scanned relations are far larger than the cache hierarchy; each
        # CPU sweeps its own partition so data is touched exactly once.
        self.space = AddressSpace(alignment=_PAGE_SIZE)
        self.space.allocate("fact_table", 512 * 1024 * 1024)
        self.space.allocate("inner_table", 64 * 1024 * 1024)
        self.space.allocate("hash_table", 8 * 1024 * 1024)
        self.space.allocate("temp_table", 16 * 1024 * 1024)
        self.space.allocate("os", 1 * 1024 * 1024)

        self.footprints = FootprintLibrary(blocks_per_region=_BLOCKS_PER_PAGE)
        self.footprints.define("page_header", [0, 1])
        self.footprints.define("os_syscall", [0, 1, 2, 10])

    # ------------------------------------------------------------------ #
    def lane_batches(self, cpu: int, rng: random.Random) -> Iterator[Batch]:
        """One batch per operator step: a scanned page with its aggregation or
        hash probes, an OS call, or a piece of residual bookkeeping."""
        access, footprint, _, take = self.lane_writer(rng)
        uniform = rng.random
        randrange = rng.randrange
        randint = rng.randint
        sample = self.footprints.sample
        block_size = self.block_size
        fact_base = self.space.base("fact_table")
        fact_pages = self.space.size("fact_table") // _PAGE_SIZE
        inner_base = self.space.base("inner_table")
        inner_pages = self.space.size("inner_table") // _PAGE_SIZE
        pages_per_cpu = fact_pages // self.num_cpus
        hash_base = self.space.base("hash_table")
        hash_regions = self.space.size("hash_table") // 2048
        temp_per_cpu = self.space.size("temp_table") // max(1, self.num_cpus)
        temp_base = self.space.base("temp_table") + cpu * temp_per_cpu
        low_temp, high_temp = self.temp_write_blocks
        join_limit = self.scan_fraction + self.join_fraction
        system_limit = join_limit + self.metadata.system_fraction
        # The scan touches the first block(s) of every tuple: (pc delta, byte offset).
        tuple_fields = [
            (4 * extra, (offset + extra) * block_size)
            for offset in range(2, _BLOCKS_PER_PAGE, self.tuple_blocks)
            for extra in range(min(self.tuple_blocks, 2))
            if offset + extra < _BLOCKS_PER_PAGE
        ]
        scan_cursor = cpu * pages_per_cpu
        probe_cursor = cpu * pages_per_cpu
        build_cursor = cpu * max(1, inner_pages // self.num_cpus)
        temp_cursor = 0

        def scan_page(base: int, pc_scan: int) -> None:
            """Sweep one 8 kB page: header, then tuples at the table's stride."""
            header = sample("page_header", rng, drop_probability=0.02)
            footprint(base, header, _PC_SCAN_HEADER)
            for pc_delta, byte_offset in tuple_fields:
                uniform()  # the scan's write draw: never a write, still one draw per row
                access(pc_scan + pc_delta, base + byte_offset)

        def temp_table_append() -> None:
            """Aggregate results: a burst of stores to the (per-CPU) temp table tail."""
            nonlocal temp_cursor
            for _ in range(randint(low_temp, high_temp) if high_temp > 0 else 0):
                access(_PC_TEMP_WRITE, temp_base + temp_cursor * block_size % temp_per_cpu, CODE_WRITE)
                temp_cursor += 1

        def hash_probe() -> None:
            """Probe one hash bucket: a small fixed footprint at a hashed offset."""
            region = hash_base + randrange(hash_regions) * 2048
            bucket = randrange(0, 30)
            footprint(region, (bucket, bucket + 1), _PC_HASH_BUCKET)

        while True:
            draw = uniform()
            if draw < self.scan_fraction:
                # Sequential scan of the next fact-table page, then aggregate.
                scan_page(fact_base + (scan_cursor % fact_pages) * _PAGE_SIZE, _PC_SCAN)
                scan_cursor += 1
                temp_table_append()
            elif draw < join_limit:
                if uniform() < 0.4:
                    # Build: scan an inner-table page and insert into the hash table.
                    scan_page(inner_base + (build_cursor % inner_pages) * _PAGE_SIZE, _PC_BUILD)
                    build_cursor += 1
                    probes = randint(2, 4)
                else:
                    # Probe: scan an outer-table page, probing a bucket per tuple group.
                    scan_page(fact_base + (probe_cursor % fact_pages) * _PAGE_SIZE, _PC_PROBE)
                    probe_cursor += 1
                    probes = randint(3, 6)
                for _ in range(probes):
                    hash_probe()
            elif draw < system_limit:
                page = randrange(self.space.size("os") // _PAGE_SIZE)
                offsets = sample("os_syscall", rng, drop_probability=0.1)
                footprint(self.space.base("os") + page * _PAGE_SIZE, offsets, 0x5F_0000, system=True)
            else:
                # Residual aggregation / bookkeeping work.
                temp_table_append()
                hash_probe()
            yield take()
