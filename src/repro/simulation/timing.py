"""Analytical timing model.

The paper's performance results (Figures 12-13) come from cycle-accurate
full-system simulation.  That substrate is substituted here by a first-order
analytical model driven by the functional simulation's measured event counts
and the Table-1 machine parameters:

* **memory stall components** are computed from measured counters —
  off-chip read misses x the off-chip round-trip latency divided by the
  workload's memory-level parallelism (the paper cites ~1.3 parallel off-chip
  misses for OLTP [6] and >4.5 for em3d), L2 hits x the L2 hit latency
  (partially hidden by the out-of-order window), and store-buffer drain time
  for off-chip write misses (not reduced by read streaming, and inflated by
  the upgrade penalty when SMS's read-only streamed blocks are written —
  the Qry1 effect of Section 4.7);
* **busy time** (user + system + front-end/other stalls) is, for each
  base-vs-prefetcher pair (:meth:`TimingModel.evaluate_pair`),
  *calibrated* so that the baseline's memory-stall share of execution time
  matches the share the paper reports for that workload class
  (``WorkloadMetadata.memory_stall_fraction``).  The calibration compensates
  for the synthetic traces' block-granularity accesses (they omit the many
  always-hitting references a real program makes between misses) and makes
  the reproduced Figure 12/13 magnitudes comparable to the paper's.

Because the same calibrated busy time is charged to both configurations, the
speedup is driven entirely by the measured change in miss behaviour.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.simulation.breakdown import BreakdownCategory, ExecutionBreakdown
from repro.simulation.config import MachineConfig
from repro.simulation.engine import SimulationResult
from repro.workloads.names import WorkloadMetadata


class TimingResult:
    """Timing estimate for one simulated configuration."""

    __slots__ = ("breakdown", "machine")

    def __init__(self, breakdown: ExecutionBreakdown, machine: MachineConfig) -> None:
        self.breakdown = breakdown
        self.machine = machine

    @property
    def total_cycles(self) -> float:
        return self.breakdown.total_cycles

    @property
    def cpi(self) -> float:
        return self.breakdown.cpi

    @property
    def ipc(self) -> float:
        return self.breakdown.ipc

    def speedup_over(self, baseline: "TimingResult") -> float:
        return self.breakdown.speedup_over(baseline.breakdown)


class TimingModel:
    """Converts functional simulation counters into execution time."""

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        other_stall_fraction: float = 0.35,
        onchip_overlap: float = 2.0,
    ) -> None:
        if onchip_overlap <= 0:
            raise ValueError(f"onchip_overlap must be positive, got {onchip_overlap}")
        self.machine = machine or MachineConfig()
        self.other_stall_fraction = other_stall_fraction
        self.onchip_overlap = onchip_overlap

    # ------------------------------------------------------------------ #
    # Memory stall components (shared by both configurations of a pair)
    # ------------------------------------------------------------------ #
    def _memory_components(
        self, result: SimulationResult, metadata: WorkloadMetadata
    ) -> Dict[BreakdownCategory, float]:
        mlp = max(1.0, metadata.mlp_hint)
        offchip_latency = self.machine.off_chip_latency_cycles
        discount = max(0.0, min(1.0, metadata.overlap_discount))

        # Off-chip read stalls: a fraction of the misses a prefetcher covers
        # would have been overlapped by the out-of-order core anyway, so that
        # fraction of the covered latency is charged back.
        effective_offchip_reads = result.offchip_read_misses + discount * result.l2_read_covered
        offchip_read = effective_offchip_reads * offchip_latency / mlp

        # On-chip (L2 hit) read stalls, largely hidden by the OoO window.
        onchip_read = (
            result.l2_read_hits * self.machine.l2_hit_cycles / (mlp * self.onchip_overlap)
        )

        # Store-buffer drain: write misses are not overlapped by the load MLP
        # and are not eliminated by read streaming (a streamed read-only block
        # that is then written still needs an ownership upgrade), so covered
        # writes are charged as if they had missed, plus the upgrade latency.
        effective_writes = result.offchip_write_misses + result.l1_write_covered
        store_buffer = metadata.store_intensity * (
            effective_writes * offchip_latency
            + result.l1_write_covered * self.machine.l2_hit_cycles
        )

        return {
            BreakdownCategory.OFFCHIP_READ: offchip_read,
            BreakdownCategory.ONCHIP_READ: onchip_read,
            BreakdownCategory.STORE_BUFFER: store_buffer,
        }

    def _busy_components(
        self,
        busy_plus_other: float,
        result: SimulationResult,
        metadata: WorkloadMetadata,
    ) -> Dict[BreakdownCategory, float]:
        busy = busy_plus_other / (1.0 + self.other_stall_fraction)
        other = busy_plus_other - busy
        system_fraction = (
            result.system_accesses / result.accesses if result.accesses else metadata.system_fraction
        )
        return {
            BreakdownCategory.USER_BUSY: busy * (1.0 - system_fraction),
            BreakdownCategory.SYSTEM_BUSY: busy * system_fraction,
            BreakdownCategory.OTHER: other,
        }

    @staticmethod
    def _build(
        instructions: int,
        components: Dict[BreakdownCategory, float],
    ) -> ExecutionBreakdown:
        breakdown = ExecutionBreakdown(instructions=max(instructions, 1))
        for category, cycles in components.items():
            breakdown.add(category, cycles)
        return breakdown

    # ------------------------------------------------------------------ #
    # Paired evaluation (busy time calibrated to the paper's stall mix)
    # ------------------------------------------------------------------ #
    def evaluate_pair(
        self,
        baseline: SimulationResult,
        improved: SimulationResult,
        workload: Optional[WorkloadMetadata] = None,
    ) -> Tuple[TimingResult, TimingResult]:
        """Estimate execution time for a (baseline, prefetcher) pair.

        The busy+other time is calibrated so the *baseline* spends
        ``metadata.memory_stall_fraction`` of its execution time on memory
        stalls, and the same busy time is charged to both configurations
        (both simulate the same instruction stream).
        """
        metadata = (
            workload
            or baseline.workload
            or improved.workload
            or WorkloadMetadata(name=baseline.name, category="?")
        )
        base_memory = self._memory_components(baseline, metadata)
        improved_memory = self._memory_components(improved, metadata)

        stall_fraction = min(0.95, max(0.05, metadata.memory_stall_fraction))
        base_stall = sum(base_memory.values())
        busy_plus_other = base_stall * (1.0 - stall_fraction) / stall_fraction

        instructions = baseline.instructions
        base_components = dict(base_memory)
        base_components.update(self._busy_components(busy_plus_other, baseline, metadata))
        improved_components = dict(improved_memory)
        improved_components.update(self._busy_components(busy_plus_other, improved, metadata))

        return (
            TimingResult(breakdown=self._build(instructions, base_components), machine=self.machine),
            TimingResult(breakdown=self._build(instructions, improved_components), machine=self.machine),
        )

    # ------------------------------------------------------------------ #
    def speedup(
        self,
        baseline: SimulationResult,
        improved: SimulationResult,
        workload: Optional[WorkloadMetadata] = None,
    ) -> float:
        """Speedup of ``improved`` over ``baseline`` (same trace, same workload)."""
        base_timing, improved_timing = self.evaluate_pair(baseline, improved, workload=workload)
        return improved_timing.speedup_over(base_timing)
