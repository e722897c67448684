"""Tests for repro.experiments.common and the table-1 runner."""

import struct

import pytest

from repro import obs
from repro.core import SpatialMemoryStreaming
from repro.experiments import common
from repro.experiments import tab01_config
from repro.prefetch import GlobalHistoryBuffer, NullPrefetcher, StridePrefetcher
from repro.trace.binary import HEADER, RECORD_SIZE, LaneTrace
from repro.workloads.suite import APPLICATION_NAMES, make_workload


class TestTraceBuilding:
    def test_scaled_trace_length(self):
        trace, metadata = common.build_trace("ocean", num_cpus=2, scale=0.1)
        assert metadata.name == "ocean"
        assert len(trace) == 2 * int(common.ACCESSES_PER_CPU["ocean"] * 0.1)

    def test_minimum_length_enforced(self):
        trace, _ = common.build_trace("ocean", num_cpus=1, scale=0.0001)
        assert len(trace) == 1000

    def test_caching_returns_equal_traces(self):
        a, _ = common.build_trace("em3d", num_cpus=2, scale=0.05)
        b, _ = common.build_trace("em3d", num_cpus=2, scale=0.05)
        assert a == b

    def test_every_application_has_a_scale(self):
        assert set(common.ACCESSES_PER_CPU) == set(APPLICATION_NAMES)

    def test_representative_trace(self):
        trace, metadata = common.representative_trace("OLTP", num_cpus=2, scale=0.05)
        assert metadata.category == "OLTP"
        assert trace

    def test_representative_unknown_category(self):
        with pytest.raises(ValueError):
            common.representative_trace("HPC")


class TestTraceDiskCache:
    @pytest.fixture
    def enabled_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        previous = common.set_trace_cache(True)
        common._cached_trace.cache_clear()
        yield tmp_path
        common.set_trace_cache(previous)
        common._cached_trace.cache_clear()

    def test_disabled_by_default_in_library_use(self):
        assert not common.trace_cache_enabled()

    def test_env_variable_enables(self, monkeypatch):
        monkeypatch.setenv(common.TRACE_CACHE_ENV, "1")
        assert common.trace_cache_enabled()
        previous = common.set_trace_cache(False)
        try:
            assert not common.trace_cache_enabled()  # explicit override wins
        finally:
            common.set_trace_cache(previous)

    def test_miss_writes_strc_then_hit_replays_identically(self, enabled_cache):
        generated, _ = common.build_trace("oltp-db2", num_cpus=2, scale=0.05)
        files = list((enabled_cache / "traces").glob("oltp-db2-c2-*.strc"))
        assert len(files) == 1
        # Force the disk path: clear the in-process layer and rebuild.
        common._cached_trace.cache_clear()
        replayed, metadata = common.build_trace("oltp-db2", num_cpus=2, scale=0.05)
        assert replayed == generated
        assert metadata.name == "oltp-db2"

    def test_miss_hit_and_cache_off_return_equal_lanes(self, enabled_cache):
        missed, _ = common.build_trace("ocean", num_cpus=2, scale=0.05)
        common._cached_trace.cache_clear()
        hit, metadata = common.build_trace("ocean", num_cpus=2, scale=0.05)
        common.set_trace_cache(False)
        common._cached_trace.cache_clear()
        uncached, _ = common.build_trace("ocean", num_cpus=2, scale=0.05)
        assert all(isinstance(trace, LaneTrace) for trace in (missed, hit, uncached))
        assert missed is not hit and hit is not uncached
        assert missed.lanes == hit.lanes == uncached.lanes
        assert hit.metadata is metadata and metadata.name == "ocean"
        workload = make_workload("ocean", num_cpus=2, accesses_per_cpu=1250, seed=7)
        assert list(hit) == list(workload)

    def test_corrupt_entry_regenerates(self, enabled_cache):
        self._corrupt_and_rebuild(enabled_cache, lambda blob: b"garbage not a trace")

    @pytest.mark.parametrize("damage", [
        # whole records, fewer than the header promises
        lambda blob: blob[: HEADER.size + 100 * RECORD_SIZE],
        # torn tail: the last record is cut short
        lambda blob: blob[:-5],
        # header count disagrees with an intact payload
        lambda blob: blob[:8] + struct.pack("<Q", 3) + blob[16:],
    ], ids=["truncated-payload", "torn-tail", "header-count-mismatch"])
    def test_undecodable_lanes_regenerate(self, enabled_cache, damage):
        self._corrupt_and_rebuild(enabled_cache, damage)

    @staticmethod
    def _corrupt_and_rebuild(cache_dir, damage):
        """A damaged entry is quarantined, warned about once, regenerated, and
        the rebuilt lanes equal a fresh generation's."""
        generated, _ = common.build_trace("em3d", num_cpus=2, scale=0.05)
        (path,) = (cache_dir / "traces").glob("em3d-*.strc")
        path.write_bytes(damage(path.read_bytes()))
        common._cached_trace.cache_clear()
        with pytest.warns(RuntimeWarning) as caught:
            replayed, _ = common.build_trace("em3d", num_cpus=2, scale=0.05)
        assert len([w for w in caught if "quarantining" in str(w.message)]) == 1
        assert replayed == generated
        assert [p.name for p in (cache_dir / "quarantine").iterdir()] == [path.name]
        # The regenerated entry replaced the damaged one and decodes cleanly.
        assert LaneTrace.from_file(path) == generated

    def test_two_fingerprints_sharing_a_directory_both_hit(self, enabled_cache, monkeypatch):
        """Two source trees (two code fingerprints) that share one cache
        directory keep each other's traces: each finds its own on a second
        build.  Only ``repro.cli cache prune`` removes stale entries."""

        def build(fingerprint):
            monkeypatch.setattr(common, "code_fingerprint", lambda: fingerprint * 64)
            common._cached_trace.cache_clear()
            common.build_trace("sparse", num_cpus=2, scale=0.05, seed=7)

        previous = obs.install_registry(obs.Registry())
        try:
            for fingerprint in ("a", "b"):
                build(fingerprint)
            ops = obs.get_registry().counter("repro_cache_ops_total", labels=("cache", "op"))
            assert ops.labels("trace", "miss").value == 2
            for fingerprint in ("a", "b", "a"):
                build(fingerprint)
            assert ops.labels("trace", "hit").value == 3
            assert ops.labels("trace", "miss").value == 2
        finally:
            obs.install_registry(previous)
        names = sorted(p.name for p in (enabled_cache / "traces").glob("sparse-*.strc"))
        assert names == [f"sparse-c2-a1250-s7-{c * 16}.strc" for c in "ab"]

    def test_key_includes_parameters(self, enabled_cache):
        common.build_trace("ocean", num_cpus=2, scale=0.05, seed=7)
        common.build_trace("ocean", num_cpus=2, scale=0.05, seed=8)
        common.build_trace("ocean", num_cpus=1, scale=0.05, seed=7)
        assert len(list((enabled_cache / "traces").glob("ocean-*.strc"))) == 3


class TestFactories:
    def test_sms_factory(self):
        assert isinstance(common.sms_factory()(0), SpatialMemoryStreaming)

    def test_ghb_factory(self):
        ghb = common.ghb_factory(buffer_entries=512)(0)
        assert isinstance(ghb, GlobalHistoryBuffer)
        assert ghb.config.buffer_entries == 512

    def test_stride_factory(self):
        assert isinstance(common.stride_factory()(0), StridePrefetcher)

    def test_null_factory(self):
        assert isinstance(common.null_factory()(0), NullPrefetcher)


class TestSimulateHelpers:
    def test_simulate_pair(self):
        trace, metadata = common.build_trace("oltp-db2", num_cpus=2, scale=0.05)
        config = common.default_config(num_cpus=2)
        base, sms = common.simulate_pair(
            trace, common.sms_factory(), config=config, name="t", metadata=metadata
        )
        assert base.accesses == sms.accesses
        assert base.l1_read_covered == 0
        assert sms.workload is metadata


class TestTable1:
    def test_system_table_matches_paper(self):
        table = tab01_config.system_table()
        rows = {row[0]: row[1] for row in table.rows}
        assert rows["processors"] == 16
        assert rows["clock (GHz)"] == 4.0
        assert rows["L1 capacity (kB)"] == 64
        assert rows["L2 capacity (MB)"] == 8
        assert rows["L2 hit latency (cycles)"] == 25
        assert rows["memory latency (ns)"] == 60.0
        assert rows["interconnect"] == "4x4 2D torus"

    def test_application_table_lists_all_apps(self):
        table = tab01_config.application_table()
        assert len(table.rows) == 11

    def test_run_returns_both_tables(self):
        system, applications = tab01_config.run()
        assert system.rows and applications.rows
