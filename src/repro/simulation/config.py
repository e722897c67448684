"""System configuration (Table 1 of the paper).

:class:`MachineConfig` captures the timing-relevant machine parameters of the
paper's 16-processor directory system; :class:`SimulationConfig` captures the
functional parameters the simulation engine needs (cache geometry, number of
processors, block size).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.interconnect.torus import TorusTopology


@dataclass(frozen=True)
class MachineConfig:
    """Timing parameters of the simulated machine (Table 1)."""

    clock_ghz: float = 4.0
    dispatch_width: int = 8
    rob_entries: int = 256
    store_buffer_entries: int = 64
    l1_load_to_use_cycles: int = 2
    l2_hit_cycles: int = 25
    memory_latency_ns: float = 60.0
    torus: TorusTopology = field(default_factory=TorusTopology)
    peak_bisection_gb_per_s: float = 128.0

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.clock_ghz

    @property
    def memory_latency_cycles(self) -> float:
        """DRAM access latency in CPU cycles."""
        return self.memory_latency_ns * self.clock_ghz

    @property
    def remote_network_cycles(self) -> float:
        """Average round-trip network latency for an off-chip access, in cycles."""
        return self.torus.average_remote_latency_ns(round_trip=True) * self.clock_ghz

    @property
    def off_chip_latency_cycles(self) -> float:
        """Average total latency of an off-chip miss (network + DRAM), in cycles."""
        return self.memory_latency_cycles + self.remote_network_cycles

    @classmethod
    def paper_default(cls) -> "MachineConfig":
        return cls()


@dataclass(frozen=True)
class SimulationConfig:
    """Functional parameters of the simulated memory system.

    ``l1_mshrs``/``l2_mshrs`` are reported (Table 1 prints them), not
    simulated: the engine is functional and models no MSHR occupancy.
    """

    num_cpus: int = 16
    block_size: int = 64
    l1_capacity: int = 64 * 1024
    l1_associativity: int = 2
    l1_mshrs: int = 32
    sms_stream_slots: int = 16
    l2_capacity: int = 8 * 1024 * 1024
    l2_associativity: int = 8
    l2_mshrs: int = 32
    classify_false_sharing: bool = True
    warmup_fraction: float = 0.3
    #: Absolute warmup length in accesses.  When set it takes precedence over
    #: ``warmup_fraction``, which lets length-hint-free streams (e.g. piped
    #: traces) run with a warmup phase.
    warmup_accesses: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_cpus <= 0:
            raise ValueError(f"num_cpus must be positive, got {self.num_cpus}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}")
        if self.warmup_accesses is not None and self.warmup_accesses < 0:
            raise ValueError(
                f"warmup_accesses must be non-negative, got {self.warmup_accesses}"
            )

    @classmethod
    def paper_default(cls) -> "SimulationConfig":
        """The Table-1 configuration: 16 CPUs, 64 kB 2-way L1, 8 MB 8-way L2."""
        return cls()

    @classmethod
    def small(cls, num_cpus: int = 4) -> "SimulationConfig":
        """A scaled-down configuration for fast tests and class-level studies.

        The per-processor caches keep the paper's L1 geometry (64 kB, 2-way);
        only the processor count and the shared L2 capacity are reduced so
        that short synthetic traces still exercise off-chip behaviour.
        """
        return cls(
            num_cpus=num_cpus,
            l1_capacity=64 * 1024,
            l2_capacity=2 * 1024 * 1024,
        )

    def with_block_size(self, block_size: int) -> "SimulationConfig":
        """Return a copy with a different cache block size (Figure 4 sweeps)."""
        return dataclasses.replace(self, block_size=block_size)
