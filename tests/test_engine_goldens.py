"""Golden-counter regression tests for the simulation engine.

These values were produced by the straightforward (pre-fast-path) engine
implementation.  The engine's hot path is aggressively optimised; these tests
pin every externally visible counter so that any optimisation that changes
simulated behaviour — rather than just making it faster — fails loudly.

If a *deliberate* modelling change alters these counters, regenerate the
goldens by running the listed configurations and updating the dictionaries.
"""

import pytest

from repro.core import SMSConfig, SpatialMemoryStreaming
from repro.prefetch import GHBConfig, GlobalHistoryBuffer, NullPrefetcher
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.workloads import make_workload

#: Counter fields pinned for every golden configuration.
COUNTER_FIELDS = (
    "accesses", "reads", "writes", "system_accesses", "instructions",
    "l1_read_misses", "l1_read_covered", "l1_write_covered",
    "l1_overpredictions", "l2_read_hits",
    "offchip_read_misses", "offchip_write_misses", "l2_read_covered",
    "l2_overpredictions", "false_sharing_misses", "invalidations",
    "prefetches_issued",
)

GOLDENS = {
    "oltp-db2/none": {
        "accesses": 4200, "reads": 3661, "writes": 539, "system_accesses": 117,
        "instructions": 14567, "l1_read_misses": 3184,
        "l1_read_covered": 0, "l1_write_covered": 0, "l1_overpredictions": 0,
        "l2_read_hits": 1078,
        "offchip_read_misses": 2106, "offchip_write_misses": 506,
        "l2_read_covered": 0, "l2_overpredictions": 0,
        "false_sharing_misses": 0, "invalidations": 7,
        "prefetches_issued": 0,
    },
    "oltp-db2/sms": {
        "accesses": 4200, "reads": 3661, "writes": 539, "system_accesses": 117,
        "instructions": 14567, "l1_read_misses": 1554,
        "l1_read_covered": 1669, "l1_write_covered": 191,
        "l1_overpredictions": 572, "l2_read_hits": 567,
        "offchip_read_misses": 987, "offchip_write_misses": 326,
        "l2_read_covered": 1079, "l2_overpredictions": 411,
        "false_sharing_misses": 0, "invalidations": 10,
        "prefetches_issued": 2783,
    },
    "ocean/sms": {
        "accesses": 4200, "reads": 3360, "writes": 840, "system_accesses": 0,
        "instructions": 23123, "l1_read_misses": 840,
        "l1_read_covered": 0, "l1_write_covered": 658, "l1_overpredictions": 93,
        "l2_read_hits": 0,
        "offchip_read_misses": 840, "offchip_write_misses": 182,
        "l2_read_covered": 0, "l2_overpredictions": 179,
        "false_sharing_misses": 0, "invalidations": 0,
        "prefetches_issued": 837,
    },
    "dss-qry2/ghb": {
        "accesses": 4200, "reads": 4189, "writes": 11, "system_accesses": 10,
        "instructions": 40382, "l1_read_misses": 3254,
        "l1_read_covered": 0, "l1_write_covered": 0, "l1_overpredictions": 0,
        "l2_read_hits": 2924,
        "offchip_read_misses": 330, "offchip_write_misses": 11,
        "l2_read_covered": 2698, "l2_overpredictions": 207,
        "false_sharing_misses": 0, "invalidations": 0,
        "prefetches_issued": 11312,
    },
}

PREFETCHER_FACTORIES = {
    "none": lambda: (lambda cpu: NullPrefetcher()),
    "sms": lambda: (lambda cpu: SpatialMemoryStreaming(SMSConfig.paper_practical())),
    "ghb": lambda: (lambda cpu: GlobalHistoryBuffer(GHBConfig(buffer_entries=256))),
}


def _run(workload_name: str, prefetcher: str, lanes: bool):
    workload = make_workload(workload_name, num_cpus=2, accesses_per_cpu=3000, seed=11)
    config = SimulationConfig.small(num_cpus=2)
    engine = SimulationEngine(
        config, PREFETCHER_FACTORIES[prefetcher](), name=f"{workload_name}-{prefetcher}"
    )
    return engine.run(workload, lanes=lanes)


@pytest.mark.parametrize("key,lanes", [
    pytest.param(key, lanes, id=key if lanes else f"{key}/reference-loop")
    for key in sorted(GOLDENS) for lanes in (True, False)
])
def test_counters_bit_identical_to_reference(key, lanes):
    """The goldens cover both loops: the lane loop every run takes (the GHB
    rows through its boxing adapter) and ``_step`` over ``memory.access``."""
    workload_name, prefetcher = key.split("/")
    result = _run(workload_name, prefetcher, lanes)
    expected = GOLDENS[key]
    actual = {f: getattr(result, f) for f in COUNTER_FIELDS}
    assert actual == expected
    assert result.engine_path == ("lanes" if lanes else "reference")
