"""Tests for the synthetic workload generators."""

import pytest

from repro.trace.stats import summarize_trace
from repro.workloads import (
    DSSQueryWorkload,
    Em3dWorkload,
    OceanWorkload,
    OLTPWorkload,
    SparseWorkload,
    WebServerWorkload,
)
from repro.workloads.suite import APPLICATION_NAMES, make_workload


SMALL = dict(num_cpus=2, accesses_per_cpu=1500, seed=3)


@pytest.mark.parametrize("name", APPLICATION_NAMES)
class TestEveryWorkload:
    def test_produces_requested_volume(self, name):
        workload = make_workload(name, **SMALL)
        records = list(workload)
        assert len(records) == workload.total_accesses

    def test_deterministic_for_seed(self, name):
        a = list(make_workload(name, **SMALL))
        b = list(make_workload(name, **SMALL))
        assert a == b

    def test_different_seed_differs(self, name):
        a = list(make_workload(name, **SMALL))
        b = list(make_workload(name, num_cpus=2, accesses_per_cpu=1500, seed=99))
        assert a != b

    def test_cpu_attribution(self, name):
        workload = make_workload(name, **SMALL)
        cpus = {record.cpu for record in workload}
        assert cpus == {0, 1}

    def test_instruction_counts_monotonic_per_cpu(self, name):
        workload = make_workload(name, **SMALL)
        last = {}
        for record in workload:
            assert record.instruction_count >= last.get(record.cpu, 0)
            last[record.cpu] = record.instruction_count

    def test_metadata(self, name):
        workload = make_workload(name, **SMALL)
        assert workload.metadata.name == name
        assert workload.metadata.category in ("OLTP", "DSS", "Web", "Scientific")
        assert workload.metadata.mlp_hint >= 1.0

    def test_reasonable_pc_footprint(self, name):
        """Code footprints are small relative to data footprints (few distinct PCs)."""
        workload = make_workload(name, **SMALL)
        stats = summarize_trace(workload)
        assert stats.unique_pcs < 600
        assert stats.unique_pcs < len({record.block_address(64) for record in workload})


class TestOLTPStructure:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            OLTPWorkload(variant="postgres")

    def test_mix_of_reads_and_writes(self):
        stats = summarize_trace(OLTPWorkload(variant="db2", **SMALL))
        assert 0.05 < stats.write_fraction < 0.6

    def test_system_activity_present(self):
        stats = summarize_trace(OLTPWorkload(variant="db2", **SMALL))
        assert stats.system_fraction > 0.01

    def test_shared_structures_accessed_by_all_cpus(self):
        workload = OLTPWorkload(variant="db2", **SMALL)
        lock_base = workload.space.base("lock_table")
        lock_size = workload.space.size("lock_table")
        cpus = {
            record.cpu
            for record in workload
            if lock_base <= record.address < lock_base + lock_size
        }
        assert cpus == {0, 1}

    def test_addresses_within_allocations(self):
        workload = OLTPWorkload(variant="oracle", **SMALL)
        top = workload.space.base("os") + workload.space.size("os")
        for record in workload:
            assert record.address < top + (1 << 24)


class TestDSSStructure:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            DSSQueryWorkload(variant="qry99")

    def test_scan_query_is_write_heavy_compared_to_join(self):
        scan = summarize_trace(DSSQueryWorkload(variant="qry1", **SMALL))
        join = summarize_trace(DSSQueryWorkload(variant="qry2", **SMALL))
        assert scan.write_fraction > join.write_fraction

    def test_data_mostly_visited_once(self):
        """DSS scans sweep large tables: most blocks are touched only once."""
        workload = DSSQueryWorkload(variant="qry1", **SMALL)
        unique_blocks = len({record.block_address(64) for record in workload})
        # Far more unique blocks than a reuse-heavy workload would produce.
        assert unique_blocks > workload.total_accesses * 0.25


class TestWebStructure:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            WebServerWorkload(variant="nginx")

    def test_large_system_component(self):
        stats = summarize_trace(WebServerWorkload(variant="apache", **SMALL))
        assert stats.system_fraction > 0.15


class TestScientificStructure:
    def test_em3d_remote_accesses_touch_other_partitions(self):
        workload = Em3dWorkload(num_cpus=2, accesses_per_cpu=2000, seed=3, remote_fraction=0.3)
        partition_bytes = workload.nodes_per_cpu * workload.node_bytes
        base = workload.space.base("nodes")
        remote = 0
        for record in workload:
            owner = (record.address - base) // partition_bytes
            if owner != record.cpu:
                remote += 1
        assert remote > 0

    def test_ocean_rows_region_aligned(self):
        workload = OceanWorkload(**SMALL)
        assert workload.row_bytes % 2048 == 0

    def test_sparse_streams_are_mostly_sequential(self):
        workload = SparseWorkload(num_cpus=1, accesses_per_cpu=2000, seed=3)
        values_base = workload.space.base("values")
        values_size = workload.space.size("values")
        addresses = [
            record.address
            for record in workload
            if values_base <= record.address < values_base + values_size
        ]
        deltas = [b - a for a, b in zip(addresses, addresses[1:])]
        non_negative = sum(1 for delta in deltas if delta >= 0)
        assert non_negative / len(deltas) > 0.95

    def test_scientific_low_write_fraction(self):
        stats = summarize_trace(SparseWorkload(**SMALL))
        assert stats.write_fraction < 0.2
