"""System configuration (Table 1 of the paper).

:class:`MachineConfig` captures the timing-relevant machine parameters of the
paper's 16-processor directory system; :class:`SimulationConfig` captures the
functional parameters the simulation engine needs (cache geometry, number of
processors, block size).
"""

from __future__ import annotations

from typing import Optional


class MachineConfig:
    """Timing parameters of the simulated machine (Table 1).

    The interconnect is reported, not simulated: a ``torus_width`` x
    ``torus_height`` 2D torus at ``hop_latency_ns`` per hop, which Table 1
    prints and the timing model reads for one number, the average network
    latency of an off-chip access.
    """

    __slots__ = (
        "clock_ghz",
        "dispatch_width",
        "rob_entries",
        "store_buffer_entries",
        "l1_load_to_use_cycles",
        "l2_hit_cycles",
        "memory_latency_ns",
        "peak_bisection_gb_per_s",
    )

    torus_width = 4
    torus_height = 4
    hop_latency_ns = 25.0

    def __init__(
        self,
        clock_ghz: float = 4.0,
        dispatch_width: int = 8,
        rob_entries: int = 256,
        store_buffer_entries: int = 64,
        l1_load_to_use_cycles: int = 2,
        l2_hit_cycles: int = 25,
        memory_latency_ns: float = 60.0,
        peak_bisection_gb_per_s: float = 128.0,
    ) -> None:
        self.clock_ghz = clock_ghz
        self.dispatch_width = dispatch_width
        self.rob_entries = rob_entries
        self.store_buffer_entries = store_buffer_entries
        self.l1_load_to_use_cycles = l1_load_to_use_cycles
        self.l2_hit_cycles = l2_hit_cycles
        self.memory_latency_ns = memory_latency_ns
        self.peak_bisection_gb_per_s = peak_bisection_gb_per_s

    @property
    def memory_latency_cycles(self) -> float:
        """DRAM access latency in CPU cycles."""
        return self.memory_latency_ns * self.clock_ghz

    @property
    def average_hop_count(self) -> float:
        """Mean minimal hop count between two distinct torus nodes.

        With wrap-around links each dimension is a ring, and a node's hops to
        every node (itself included, at 0) sum to ``height`` times one ring's
        distances plus ``width`` times the other's.
        """
        width, height = self.torus_width, self.torus_height
        ring_x = sum(min(d, width - d) for d in range(width))
        ring_y = sum(min(d, height - d) for d in range(height))
        return (height * ring_x + width * ring_y) / (width * height - 1)

    @property
    def remote_network_cycles(self) -> float:
        """Average round-trip network latency for an off-chip access, in cycles."""
        return 2.0 * (self.average_hop_count * self.hop_latency_ns) * self.clock_ghz

    @property
    def off_chip_latency_cycles(self) -> float:
        """Average total latency of an off-chip miss (network + DRAM), in cycles."""
        return self.memory_latency_cycles + self.remote_network_cycles

    @classmethod
    def paper_default(cls) -> "MachineConfig":
        return cls()


class SimulationConfig:
    """Functional parameters of the simulated memory system.

    ``l1_mshrs``/``l2_mshrs`` are reported (Table 1 prints them), not
    simulated: the engine is functional and models no MSHR occupancy.
    ``warmup_accesses`` is an absolute warmup length in accesses; when set it
    takes precedence over ``warmup_fraction``, which lets length-hint-free
    streams (e.g. piped traces) run with a warmup phase.

    Immutable; compares and hashes by value.  A plain object, not a tuple of
    its fields: a configuration passed as a sweep-task argument has no
    cache-key encoding.
    """

    #: The fields, in constructor order.
    __slots__ = (
        "num_cpus",
        "block_size",
        "l1_capacity",
        "l1_associativity",
        "l1_mshrs",
        "sms_stream_slots",
        "l2_capacity",
        "l2_associativity",
        "l2_mshrs",
        "classify_false_sharing",
        "warmup_fraction",
        "warmup_accesses",
    )

    def __init__(
        self,
        num_cpus: int = 16,
        block_size: int = 64,
        l1_capacity: int = 64 * 1024,
        l1_associativity: int = 2,
        l1_mshrs: int = 32,
        sms_stream_slots: int = 16,
        l2_capacity: int = 8 * 1024 * 1024,
        l2_associativity: int = 8,
        l2_mshrs: int = 32,
        classify_false_sharing: bool = True,
        warmup_fraction: float = 0.3,
        warmup_accesses: Optional[int] = None,
    ) -> None:
        if num_cpus <= 0:
            raise ValueError(f"num_cpus must be positive, got {num_cpus}")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
        if warmup_accesses is not None and warmup_accesses < 0:
            raise ValueError(f"warmup_accesses must be non-negative, got {warmup_accesses}")
        set_field = object.__setattr__
        set_field(self, "num_cpus", num_cpus)
        set_field(self, "block_size", block_size)
        set_field(self, "l1_capacity", l1_capacity)
        set_field(self, "l1_associativity", l1_associativity)
        set_field(self, "l1_mshrs", l1_mshrs)
        set_field(self, "sms_stream_slots", sms_stream_slots)
        set_field(self, "l2_capacity", l2_capacity)
        set_field(self, "l2_associativity", l2_associativity)
        set_field(self, "l2_mshrs", l2_mshrs)
        set_field(self, "classify_false_sharing", classify_false_sharing)
        set_field(self, "warmup_fraction", warmup_fraction)
        set_field(self, "warmup_accesses", warmup_accesses)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable SimulationConfig")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        return SimulationConfig, self._values()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"SimulationConfig({fields})"

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
        values = dict(zip(self.__slots__, self._values()))
        values["block_size"] = block_size
        return SimulationConfig(**values)
