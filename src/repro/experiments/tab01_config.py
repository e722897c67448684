"""Table 1 — system and application parameters.

Table 1 of the paper lists the simulated machine (processing nodes, cache
hierarchy, memory, protocol controller, interconnect) and the application
suite.  This runner materialises the same information from the repository's
configuration objects and workload registry, so the benchmark can verify that
the reproduced system matches the paper's parameters and that every listed
application is available.
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.reporting import ResultTable
from repro.simulation.config import MachineConfig, SimulationConfig
from repro.workloads.suite import APPLICATION_NAMES, make_workload


def system_table(
    machine: MachineConfig = None,
    simulation: SimulationConfig = None,
) -> ResultTable:
    """The machine-parameter half of Table 1."""
    machine = machine or MachineConfig.paper_default()
    simulation = simulation or SimulationConfig.paper_default()
    table = ResultTable(
        title="Table 1 (left): system parameters",
        headers=["parameter", "value"],
    )
    table.add_row("processors", simulation.num_cpus)
    table.add_row("clock (GHz)", machine.clock_ghz)
    table.add_row("dispatch width", machine.dispatch_width)
    table.add_row("ROB entries", machine.rob_entries)
    table.add_row("store buffer entries", machine.store_buffer_entries)
    table.add_row("L1 capacity (kB)", simulation.l1_capacity // 1024)
    table.add_row("L1 associativity", simulation.l1_associativity)
    table.add_row("L1 load-to-use (cycles)", machine.l1_load_to_use_cycles)
    # Reported from the paper's Table 1; the engine does not simulate MSHRs.
    table.add_row("L1 MSHRs", simulation.l1_mshrs)
    table.add_row("SMS stream requests", simulation.sms_stream_slots)
    table.add_row("L2 capacity (MB)", simulation.l2_capacity // (1024 * 1024))
    table.add_row("L2 associativity", simulation.l2_associativity)
    table.add_row("L2 hit latency (cycles)", machine.l2_hit_cycles)
    table.add_row("memory latency (ns)", machine.memory_latency_ns)
    table.add_row("coherence unit (B)", simulation.block_size)
    table.add_row("interconnect", f"{machine.torus_width}x{machine.torus_height} 2D torus")
    table.add_row("hop latency (ns)", machine.hop_latency_ns)
    table.add_row("peak bisection bandwidth (GB/s)", machine.peak_bisection_gb_per_s)
    return table


def application_table() -> ResultTable:
    """The application-suite half of Table 1."""
    table = ResultTable(
        title="Table 1 (right): application suite",
        headers=["application", "category", "description"],
    )
    for name in APPLICATION_NAMES:
        workload = make_workload(name, num_cpus=1, accesses_per_cpu=1000)
        table.add_row(name, workload.metadata.category, workload.metadata.description)
    return table


def run() -> Tuple[ResultTable, ResultTable]:
    """Regenerate both halves of Table 1."""
    return system_table(), application_table()
