"""Golden-counter regression tests for the simulation engine.

These values were produced by the straightforward (pre-fast-path) engine
implementation.  The engine's hot path is aggressively optimised; these tests
pin every externally visible counter so that any optimisation that changes
simulated behaviour — rather than just making it faster — fails loudly.

If a *deliberate* modelling change alters these counters, regenerate the
goldens by running the listed configurations and updating the dictionaries.
"""

import dataclasses
import os

import pytest

from repro.core import SMSConfig, SpatialMemoryStreaming
from repro.prefetch import GHBConfig, GlobalHistoryBuffer, NullPrefetcher
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import LANES_ENV_VAR, SimulationEngine
from repro.workloads import make_workload

#: Counter fields pinned for every golden configuration.
COUNTER_FIELDS = (
    "accesses", "reads", "writes", "system_accesses", "instructions",
    "l1_read_misses", "l1_write_misses", "l1_read_covered", "l1_write_covered",
    "l1_overpredictions", "l2_demand_reads", "l2_read_hits",
    "offchip_read_misses", "offchip_write_misses", "l2_read_covered",
    "l2_overpredictions", "false_sharing_misses", "invalidations",
    "prefetches_issued", "prefetch_fills_l1", "prefetch_fills_l2",
)

GOLDENS = {
    "oltp-db2/none": {
        "accesses": 4200, "reads": 3661, "writes": 539, "system_accesses": 117,
        "instructions": 14567, "l1_read_misses": 3184, "l1_write_misses": 531,
        "l1_read_covered": 0, "l1_write_covered": 0, "l1_overpredictions": 0,
        "l2_demand_reads": 3184, "l2_read_hits": 1078,
        "offchip_read_misses": 2106, "offchip_write_misses": 506,
        "l2_read_covered": 0, "l2_overpredictions": 0,
        "false_sharing_misses": 0, "invalidations": 7,
        "prefetches_issued": 0, "prefetch_fills_l1": 0, "prefetch_fills_l2": 0,
        "traffic_total_bytes": 237760, "traffic_useful_bytes": 237760,
    },
    "oltp-db2/sms": {
        "accesses": 4200, "reads": 3661, "writes": 539, "system_accesses": 117,
        "instructions": 14567, "l1_read_misses": 1554, "l1_write_misses": 343,
        "l1_read_covered": 1669, "l1_write_covered": 191,
        "l1_overpredictions": 572, "l2_demand_reads": 1554, "l2_read_hits": 567,
        "offchip_read_misses": 987, "offchip_write_misses": 326,
        "l2_read_covered": 1079, "l2_overpredictions": 411,
        "false_sharing_misses": 0, "invalidations": 10,
        "prefetches_issued": 2783, "prefetch_fills_l1": 2783,
        "prefetch_fills_l2": 2783,
        "traffic_total_bytes": 299520, "traffic_useful_bytes": 121408,
    },
    "ocean/sms": {
        "accesses": 4200, "reads": 3360, "writes": 840, "system_accesses": 0,
        "instructions": 23123, "l1_read_misses": 840, "l1_write_misses": 182,
        "l1_read_covered": 0, "l1_write_covered": 658, "l1_overpredictions": 93,
        "l2_demand_reads": 840, "l2_read_hits": 0,
        "offchip_read_misses": 840, "offchip_write_misses": 182,
        "l2_read_covered": 0, "l2_overpredictions": 179,
        "false_sharing_misses": 0, "invalidations": 0,
        "prefetches_issued": 837, "prefetch_fills_l1": 837,
        "prefetch_fills_l2": 837,
        "traffic_total_bytes": 118976, "traffic_useful_bytes": 65408,
    },
    "dss-qry2/ghb": {
        "accesses": 4200, "reads": 4189, "writes": 11, "system_accesses": 10,
        "instructions": 40382, "l1_read_misses": 3254, "l1_write_misses": 11,
        "l1_read_covered": 0, "l1_write_covered": 0, "l1_overpredictions": 0,
        "l2_demand_reads": 3254, "l2_read_hits": 2924,
        "offchip_read_misses": 330, "offchip_write_misses": 11,
        "l2_read_covered": 2698, "l2_overpredictions": 207,
        "false_sharing_misses": 0, "invalidations": 0,
        "prefetches_issued": 11312, "prefetch_fills_l1": 0,
        "prefetch_fills_l2": 11312,
        "traffic_total_bytes": 932928, "traffic_useful_bytes": 208960,
    },
}

#: ``replacement="random"`` runs (reference loop only: the lane loop inlines
#: LRU).  ``as_dict()`` snapshots of ``SimulationConfig.small(n)`` with
#: ``seed=7``, recorded on the commit before the cache sets lost their way
#: numbers; keys are ``workload/prefetcher/random/<n>cpu``.
RANDOM_GOLDENS = {
    "oltp-db2/none/random/2cpu": {
        "name": "oltp-db2-none", "accesses": 4200, "instructions": 14567,
        "l1_read_misses": 3228, "l1_coverage": 0.0, "l1_overprediction_rate": 0.0,
        "offchip_read_misses": 2095, "l2_coverage": 0.0, "l2_overprediction_rate": 0.0,
        "l1_read_mpki": 221.59675979954693, "offchip_read_mpki": 143.8182192627171,
        "false_sharing_misses": 0,
    },
    "oltp-db2/sms/random/2cpu": {
        "name": "oltp-db2-sms", "accesses": 4200, "instructions": 14567,
        "l1_read_misses": 1646, "l1_coverage": 0.4936942479237158,
        "l1_overprediction_rate": 0.1854813903414334, "offchip_read_misses": 1004,
        "l2_coverage": 0.5168431183830606, "l2_overprediction_rate": 0.19778633301251203,
        "l1_read_mpki": 112.99512596965745, "offchip_read_mpki": 68.92290794261001,
        "false_sharing_misses": 0,
    },
    "ocean/none/random/2cpu": {
        "name": "ocean-none", "accesses": 4200, "instructions": 23123, "l1_read_misses": 1030,
        "l1_coverage": 0.0, "l1_overprediction_rate": 0.0, "offchip_read_misses": 840,
        "l2_coverage": 0.0, "l2_overprediction_rate": 0.0, "l1_read_mpki": 44.544393028586256,
        "offchip_read_mpki": 36.32746615923539, "false_sharing_misses": 0,
    },
    "ocean/sms/random/2cpu": {
        "name": "ocean-sms", "accesses": 4200, "instructions": 23123, "l1_read_misses": 376,
        "l1_coverage": 0.6456173421300659, "l1_overprediction_rate": 0.0706880301602262,
        "offchip_read_misses": 368, "l2_coverage": 0.5619047619047619,
        "l2_overprediction_rate": 0.3892857142857143, "l1_read_mpki": 16.260865804610127,
        "offchip_read_mpki": 15.914889936426935, "false_sharing_misses": 0,
    },
    "oltp-db2/none/random/4cpu": {
        "name": "oltp-db2-none", "accesses": 8400, "instructions": 29551,
        "l1_read_misses": 6465, "l1_coverage": 0.0, "l1_overprediction_rate": 0.0,
        "offchip_read_misses": 3583, "l2_coverage": 0.0, "l2_overprediction_rate": 0.0,
        "l1_read_mpki": 218.77432235795743, "offchip_read_mpki": 121.24801191161043,
        "false_sharing_misses": 0,
    },
    "oltp-db2/sms/random/4cpu": {
        "name": "oltp-db2-sms", "accesses": 8400, "instructions": 29551,
        "l1_read_misses": 3417, "l1_coverage": 0.47680293982544786,
        "l1_overprediction_rate": 0.193232276833563, "offchip_read_misses": 1877,
        "l2_coverage": 0.4693242861181792, "l2_overprediction_rate": 0.22533220243143906,
        "l1_read_mpki": 115.63060471726845, "offchip_read_mpki": 63.517309058915096,
        "false_sharing_misses": 0,
    },
    "ocean/none/random/4cpu": {
        "name": "ocean-none", "accesses": 8400, "instructions": 45460, "l1_read_misses": 2025,
        "l1_coverage": 0.0, "l1_overprediction_rate": 0.0, "offchip_read_misses": 1680,
        "l2_coverage": 0.0, "l2_overprediction_rate": 0.0, "l1_read_mpki": 44.544654641443024,
        "offchip_read_mpki": 36.95556533216014, "false_sharing_misses": 0,
    },
    "ocean/sms/random/4cpu": {
        "name": "ocean-sms", "accesses": 8400, "instructions": 45460, "l1_read_misses": 881,
        "l1_coverage": 0.580276322058123, "l1_overprediction_rate": 0.07479752262982373,
        "offchip_read_misses": 860, "l2_coverage": 0.4880952380952381,
        "l2_overprediction_rate": 0.4261904761904762, "l1_read_mpki": 19.379674439067312,
        "offchip_read_mpki": 18.91772987241531, "false_sharing_misses": 0,
    },
}

PREFETCHER_FACTORIES = {
    "none": lambda: (lambda cpu: NullPrefetcher()),
    "sms": lambda: (lambda cpu: SpatialMemoryStreaming(SMSConfig.paper_practical())),
    "ghb": lambda: (lambda cpu: GlobalHistoryBuffer(GHBConfig(buffer_entries=256))),
}


def _run(workload_name: str, prefetcher: str):
    workload = make_workload(workload_name, num_cpus=2, accesses_per_cpu=3000, seed=11)
    config = SimulationConfig.small(num_cpus=2)
    engine = SimulationEngine(
        config, PREFETCHER_FACTORIES[prefetcher](), name=f"{workload_name}-{prefetcher}"
    )
    return engine.run(workload)


def _lanes_off() -> bool:
    """CI re-runs this module with ``REPRO_ENGINE_LANES=0``."""
    return os.environ.get(LANES_ENV_VAR, "1").strip().lower() in ("0", "false", "off", "")


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_counters_bit_identical_to_reference(key):
    workload_name, prefetcher = key.split("/")
    result = _run(workload_name, prefetcher)
    expected = GOLDENS[key]
    actual = {f: getattr(result, f) for f in COUNTER_FIELDS}
    actual["traffic_total_bytes"] = result.traffic.total_bytes
    actual["traffic_useful_bytes"] = result.traffic.useful_bytes
    assert actual == expected
    # The goldens must cover both loops: lanes by default (the generated
    # workload is transposed per chunk), ``_step`` under CI's
    # REPRO_ENGINE_LANES=0 re-run and for prefetchers without a lane hook.
    reason = "disabled" if _lanes_off() else "prefetcher" if prefetcher == "ghb" else None
    assert (result.engine_path, result.fallback_reason) == (
        ("reference", reason) if reason else ("lanes", None)
    )


@pytest.mark.parametrize("key", sorted(RANDOM_GOLDENS))
def test_random_replacement_unchanged(key):
    workload_name, prefetcher, _, cpus = key.split("/")
    num_cpus = int(cpus.removesuffix("cpu"))
    workload = make_workload(workload_name, num_cpus=num_cpus, accesses_per_cpu=3000, seed=11)
    config = dataclasses.replace(
        SimulationConfig.small(num_cpus=num_cpus), replacement="random", seed=7
    )
    engine = SimulationEngine(
        config, PREFETCHER_FACTORIES[prefetcher](), name=f"{workload_name}-{prefetcher}"
    )
    result = engine.run(workload)
    assert result.as_dict() == RANDOM_GOLDENS[key]
    # The switch is consulted before the configuration's own veto.
    reason = "disabled" if _lanes_off() else "replacement"
    assert (result.engine_path, result.fallback_reason) == ("reference", reason)
