"""Web server (SPECweb99) workload model.

Models the memory behaviour of Apache and Zeus serving SPECweb99 traffic
(Table 1): per-connection state objects with a fixed layout, packet header
and trailer walks with "arbitrarily complex but fixed structure" (Section 2),
a hot file cache read sequentially, and a large system-mode component for the
kernel network stack.  Like OLTP, a processor has many connections in flight
at once, so accesses to different regions are heavily interleaved — the
property that lets SMS outperform delta-correlation prefetchers.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator

from repro.trace.record import CODE_SYSTEM, CODE_WRITE
from repro.workloads.base import (
    AddressSpace,
    Batch,
    FootprintLibrary,
    SyntheticWorkload,
    WorkloadMetadata,
)

_PC_CONN_LOOKUP = 0x60_0000
_PC_PACKET_PARSE = 0x61_0000
_PC_PACKET_TRAILER = 0x62_0000
_PC_FILE_READ = 0x63_0000
_PC_KERNEL_STACK = 0x65_0000
_PC_LISTEN_QUEUE = 0x66_0000

_REGION = 2048
_BLOCKS_PER_REGION = _REGION // 64
_PAGE_SIZE = 8192


class WebServerWorkload(SyntheticWorkload):
    """SPECweb99 on Apache or Zeus."""

    VARIANTS: Dict[str, Dict] = {
        "apache": dict(
            description="SPECweb99 on Apache 2.0: 16K connections, FastCGI, worker threads",
            connections=4096,
            file_cache_mb=24,
            packets_per_request=(2, 5),
            mlp_hint=1.6,
            store_intensity=0.15,
            system_fraction=0.30,
            overlap_discount=0.25,
            memory_stall_fraction=0.60,
        ),
        "zeus": dict(
            description="SPECweb99 on Zeus 4.3: 16K connections, FastCGI",
            connections=4096,
            file_cache_mb=32,
            packets_per_request=(2, 4),
            mlp_hint=1.7,
            store_intensity=0.12,
            system_fraction=0.26,
            overlap_discount=0.25,
            memory_stall_fraction=0.60,
        ),
    }

    def __init__(self, variant: str = "apache", concurrent_requests: int = 4, **kwargs) -> None:
        variant = variant.lower()
        if variant not in self.VARIANTS:
            raise ValueError(f"unknown web variant {variant!r}; choose from {sorted(self.VARIANTS)}")
        if concurrent_requests <= 0:
            raise ValueError(f"concurrent_requests must be positive, got {concurrent_requests}")
        params = self.VARIANTS[variant]
        kwargs.setdefault("instructions_per_access", 3.5)
        self.metadata = WorkloadMetadata(
            name=f"web-{variant}",
            category="Web",
            description=params["description"],
            mlp_hint=params["mlp_hint"],
            store_intensity=params["store_intensity"],
            system_fraction=params["system_fraction"],
            overlap_discount=params.get("overlap_discount", 0.0),
            memory_stall_fraction=params.get("memory_stall_fraction", 0.6),
        )
        super().__init__(**kwargs)
        self.connections = params["connections"]
        self.file_cache_bytes = params["file_cache_mb"] * 1024 * 1024
        self.packets_per_request = params["packets_per_request"]
        # A server processor juggles many connections at once (16K connections
        # in SPECweb99); their packet walks and file reads interleave.
        self.concurrent_requests = concurrent_requests

        self.space = AddressSpace(alignment=_PAGE_SIZE)
        self.space.allocate("connection_pool", self.connections * _REGION)
        self.space.allocate("packet_buffers", 2048 * _REGION)
        self.space.allocate("file_cache", self.file_cache_bytes)
        self.space.allocate("listen_queue", 64 * 1024)
        self.space.allocate("kernel", 4 * 1024 * 1024)

        self.footprints = FootprintLibrary(blocks_per_region=_BLOCKS_PER_REGION)
        # Connection object: request state, timers, and socket bookkeeping.
        self.footprints.define("connection", [0, 1, 2, 5, 8, 9])
        # Packet header at the front of the buffer, trailer at the end.
        self.footprints.define("packet_header", [0, 1, 2])
        self.footprints.define("packet_trailer", [_BLOCKS_PER_REGION - 2, _BLOCKS_PER_REGION - 1])
        # Kernel socket / protocol control blocks.
        self.footprints.define("kernel_pcb", [0, 1, 4, 6])
        self.footprints.define("kernel_softirq", [0, 2, 3, 7, 12])

    # ------------------------------------------------------------------ #
    def lane_batches(self, cpu: int, rng: random.Random) -> Iterator[Batch]:
        """One batch per group of in-flight requests.

        Each request: accept, touch the connection, parse packets, read the
        file, kernel work.  Several requests are in flight at once on a
        processor, so all their operations interleave.
        """
        access, footprint, end_operation, take = self.lane_writer(rng)
        uniform = rng.random
        randrange = rng.randrange
        randint = rng.randint
        sample = self.footprints.sample
        space = self.space
        connections = self.connections
        buffers = space.size("packet_buffers") // _REGION
        buffer_base = space.base("packet_buffers")
        file_regions = self.file_cache_bytes // _REGION
        low_packets, high_packets = self.packets_per_request

        def connection_touch(write: bool) -> None:
            base = space.base("connection_pool") + randrange(connections) * _REGION
            offsets = sample("connection", rng, drop_probability=0.12)
            footprint(base, offsets, _PC_CONN_LOOKUP, write_probability=0.35 if write else 0.05)
            end_operation()

        def packet_walk() -> None:
            base = buffer_base + randrange(buffers) * _REGION
            header = sample("packet_header", rng, drop_probability=0.05)
            footprint(base, header, _PC_PACKET_PARSE, system=True)
            # Payload: a short dense run whose length varies with packet size.  The
            # copy loop strides with a single load PC.
            payload_blocks = randint(2, 10)
            payload = range(3, min(3 + payload_blocks, _BLOCKS_PER_REGION - 2))
            footprint(
                base, payload, _PC_PACKET_PARSE + 0x100, write_probability=0.1, loop_pc=True
            )
            trailer = sample("packet_trailer", rng, drop_probability=0.05)
            footprint(base, trailer, _PC_PACKET_TRAILER, system=True)
            end_operation()

        def file_read() -> None:
            # SPECweb's file popularity is heavily skewed: mostly hot files.
            if uniform() < 0.7:
                region_index = randrange(max(1, file_regions // 32))
            else:
                region_index = randrange(file_regions)
            base = space.base("file_cache") + region_index * _REGION
            footprint(base, range(randint(8, _BLOCKS_PER_REGION)), _PC_FILE_READ, loop_pc=True)
            end_operation()

        def kernel_work() -> None:
            name = "kernel_pcb" if uniform() < 0.6 else "kernel_softirq"
            base = space.base("kernel") + randrange(space.size("kernel") // _REGION) * _REGION
            offsets = sample(name, rng, drop_probability=0.1)
            pc_base = _PC_KERNEL_STACK + (0 if name == "kernel_pcb" else 0x200)
            footprint(base, offsets, pc_base, write_probability=0.25, system=True)
            end_operation()

        while True:
            for _ in range(self.concurrent_requests):
                # Accept: one store or load on the shared listen queue.
                block = randrange(space.size("listen_queue") // self.block_size)
                code = CODE_SYSTEM | CODE_WRITE if uniform() < 0.5 else CODE_SYSTEM
                access(_PC_LISTEN_QUEUE, space.base("listen_queue") + block * self.block_size, code)
                end_operation()
                connection_touch(write=True)
                for _ in range(randint(low_packets, high_packets)):
                    packet_walk()
                file_read()
                kernel_work()
                if uniform() < 0.5:
                    connection_touch(write=False)
            yield take()
