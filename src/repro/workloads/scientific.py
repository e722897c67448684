"""Scientific workload models: em3d, ocean, sparse.

These provide the frame of reference the paper uses for its commercial
results (Table 1):

* **em3d** — electromagnetic wave propagation on a bipartite graph (3M nodes,
  degree 2, 15% remote edges).  Each iteration sweeps a processor's own node
  partition sequentially (dense, highly predictable) and reads neighbour
  values, 15% of which live in other processors' partitions and are rewritten
  every iteration — producing bursty coherence misses with high MLP.
* **ocean** — a 1026x1026 red-black stencil relaxation.  Row-major sweeps with
  north/south neighbour rows give dense, extremely regular footprints;
  partition-boundary rows are shared between neighbouring processors.
* **sparse** — a 4096x4096 sparse matrix-vector kernel: the matrix (values +
  column indices) streams through the cache once per iteration (a working set
  far larger than the L2), while the dense vector mostly hits.  Nearly all
  misses are part of long sequential runs, which is why SMS covers ~92% of
  them and achieves its largest speedup.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.trace.record import CODE_WRITE
from repro.workloads.base import (
    AddressSpace,
    Batch,
    SyntheticWorkload,
    WorkloadMetadata,
)

_PC_EM3D_NODE = 0x70_0000
_PC_EM3D_NEIGHBOR = 0x71_0000
_PC_EM3D_UPDATE = 0x72_0000
_PC_OCEAN_STENCIL = 0x73_0000
_PC_OCEAN_WRITE = 0x74_0000
_PC_SPARSE_ROW = 0x75_0000
_PC_SPARSE_COL = 0x76_0000
_PC_SPARSE_VEC = 0x77_0000



class Em3dWorkload(SyntheticWorkload):
    """em3d: 3M nodes, degree 2, span 5, 15% remote edges."""

    metadata = WorkloadMetadata(
        name="em3d",
        category="Scientific",
        description="em3d: 3M nodes, degree 2, span 5, 15% remote",
        mlp_hint=4.5,
        store_intensity=0.2,
        system_fraction=0.02,
        overlap_discount=0.35,
        memory_stall_fraction=0.75,
    )

    def __init__(self, nodes_per_cpu: int = 16384, remote_fraction: float = 0.15, **kwargs) -> None:
        kwargs.setdefault("instructions_per_access", 4.0)
        super().__init__(**kwargs)
        self.nodes_per_cpu = nodes_per_cpu
        self.remote_fraction = remote_fraction
        self.node_bytes = 128  # two cache blocks per node
        self.space = AddressSpace(alignment=8192)
        self.space.allocate("nodes", self.num_cpus * nodes_per_cpu * self.node_bytes)

    def _node_address(self, cpu: int, node: int) -> int:
        partition = cpu * self.nodes_per_cpu
        return self.space.base("nodes") + (partition + node) * self.node_bytes

    def lane_batches(self, cpu: int, rng: random.Random) -> Iterator[Batch]:
        """One batch per run of nodes of the processor's partition sweep."""
        access, _, _, take = self.lane_writer(rng)
        node = 0
        while True:
            for _ in range(64):  # nodes per batch, five rows each
                base = self._node_address(cpu, node)
                # Read this node's value and edge list (two blocks, sequential).
                access(_PC_EM3D_NODE, base)
                access(_PC_EM3D_NODE + 4, base + 64)
                # Degree-2 neighbour reads; 15% land in a remote partition whose
                # owner rewrites them every iteration (coherence misses).
                for edge in range(2):
                    if rng.random() < self.remote_fraction and self.num_cpus > 1:
                        owner = rng.randrange(self.num_cpus - 1)
                        if owner >= cpu:
                            owner += 1
                        # span=5: neighbours cluster near the same index in the remote partition.
                        neighbor = (node + rng.randint(-5, 5)) % self.nodes_per_cpu
                        address = self._node_address(owner, neighbor)
                    else:
                        neighbor = (node + rng.randint(1, 5)) % self.nodes_per_cpu
                        address = self._node_address(cpu, neighbor)
                    access(_PC_EM3D_NEIGHBOR + 8 * edge, address)
                # Write the updated value back to this node.
                access(_PC_EM3D_UPDATE, base, CODE_WRITE)
                node = (node + 1) % self.nodes_per_cpu
            yield take()


class OceanWorkload(SyntheticWorkload):
    """ocean: 1026x1026 grid relaxation."""

    metadata = WorkloadMetadata(
        name="ocean",
        category="Scientific",
        description="ocean: 1026x1026 grid, 9600s relaxations",
        mlp_hint=3.0,
        store_intensity=0.15,
        system_fraction=0.02,
        overlap_discount=0.10,
        memory_stall_fraction=0.60,
    )

    def __init__(self, grid_dim: int = 1026, element_bytes: int = 8, **kwargs) -> None:
        kwargs.setdefault("instructions_per_access", 5.0)
        super().__init__(**kwargs)
        self.grid_dim = grid_dim
        self.element_bytes = element_bytes
        # Rows are padded to a 2 kB boundary, as array-padding optimisations
        # (and power-of-two allocators) commonly do; this keeps the stencil's
        # footprint aligned identically in every row.
        raw_row_bytes = grid_dim * element_bytes
        self.row_bytes = (raw_row_bytes + 2047) & ~2047
        self.space = AddressSpace(alignment=8192)
        # Two grids (read and write) as in red-black relaxation.
        self.space.allocate("grid_a", self.grid_dim * self.row_bytes)
        self.space.allocate("grid_b", self.grid_dim * self.row_bytes)

    def lane_batches(self, cpu: int, rng: random.Random) -> Iterator[Batch]:
        """One batch per grid row of the processor's band."""
        access, _, _, take = self.lane_writer(rng)
        grid_dim = self.grid_dim
        row_bytes = self.row_bytes
        grid_a = self.space.base("grid_a")
        grid_b = self.space.base("grid_b")
        rows_per_cpu = max(1, grid_dim // self.num_cpus)
        row_start = cpu * rows_per_cpu
        row = row_start
        # Step by one cache block worth of elements: the stencil reads the
        # centre, east/west (same block or adjacent) and north/south rows.
        cols_per_block = max(1, 64 // self.element_bytes)
        # (byte offset of a block's first element, of its eastern neighbour's).
        blocks = [
            (col * self.element_bytes, (col + cols_per_block) % grid_dim * self.element_bytes)
            for col in range(0, grid_dim, cols_per_block)
        ]
        while True:
            centre = grid_a + row % grid_dim * row_bytes
            north = grid_a + (row - 1) % grid_dim * row_bytes
            south = grid_a + (row + 1) % grid_dim * row_bytes
            target = grid_b + row % grid_dim * row_bytes
            for offset, east in blocks:
                access(_PC_OCEAN_STENCIL, centre + offset)
                access(_PC_OCEAN_STENCIL + 4, north + offset)
                access(_PC_OCEAN_STENCIL + 8, south + offset)
                access(_PC_OCEAN_STENCIL + 12, centre + east)
                access(_PC_OCEAN_WRITE, target + offset, CODE_WRITE)
            row += 1
            if row >= row_start + rows_per_cpu:
                row = row_start
            yield take()


class SparseWorkload(SyntheticWorkload):
    """sparse: 4096x4096 sparse matrix-vector kernel."""

    metadata = WorkloadMetadata(
        name="sparse",
        category="Scientific",
        description="sparse: 4096x4096 matrix",
        mlp_hint=3.5,
        store_intensity=0.08,
        system_fraction=0.01,
        overlap_discount=0.05,
        memory_stall_fraction=0.90,
    )

    def __init__(self, rows: int = 4096, nonzeros_per_row: int = 64, **kwargs) -> None:
        kwargs.setdefault("instructions_per_access", 2.5)
        super().__init__(**kwargs)
        self.rows = rows
        self.nonzeros_per_row = nonzeros_per_row
        self.value_bytes = 8
        self.index_bytes = 8  # 64-bit column indices, read for every nonzero
        self.space = AddressSpace(alignment=8192)
        self.space.allocate("values", rows * nonzeros_per_row * self.value_bytes * self.num_cpus)
        # Stagger the column-index array relative to the values array so the
        # two streams, which advance in lockstep, do not map to the same L1
        # sets (as a real allocator's headers/padding would ensure).
        self.space.allocate("pad", 24 * 1024)
        self.space.allocate("col_indices", rows * nonzeros_per_row * self.index_bytes * self.num_cpus)
        self.space.allocate("vector", rows * self.value_bytes)
        self.space.allocate("result", rows * self.value_bytes)

    def lane_batches(self, cpu: int, rng: random.Random) -> Iterator[Batch]:
        """One batch per matrix row."""
        access, _, _, take = self.lane_writer(rng)
        rows_per_cpu = max(1, self.rows // self.num_cpus)
        row = cpu * rows_per_cpu
        value_cursor = cpu * rows_per_cpu * self.nonzeros_per_row
        values_base = self.space.base("values")
        indices_base = self.space.base("col_indices")
        vector_base = self.space.base("vector")
        result_base = self.space.base("result")
        values_size = self.space.size("values")
        indices_size = self.space.size("col_indices")
        while True:
            # Stream through this row's nonzeros: values and column indices are
            # long sequential runs; the vector gather mostly hits in cache.
            for nz in range(self.nonzeros_per_row):
                position = value_cursor + nz
                access(_PC_SPARSE_ROW, values_base + (position * self.value_bytes) % values_size)
                access(_PC_SPARSE_COL, indices_base + (position * self.index_bytes) % indices_size)
                if nz % 8 == 0:
                    column = rng.randrange(self.rows)
                    access(_PC_SPARSE_VEC, vector_base + column * self.value_bytes)
            # Write the accumulated dot product to the result vector.
            access(
                _PC_SPARSE_ROW + 0x100,
                result_base + (row % self.rows) * self.value_bytes,
                CODE_WRITE,
            )
            value_cursor += self.nonzeros_per_row
            row += 1
            if row >= (cpu + 1) * rows_per_cpu:
                row = cpu * rows_per_cpu
            yield take()
