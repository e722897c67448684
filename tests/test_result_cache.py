"""Tests for repro.simulation.result_cache (sweep result memoization)."""

import os
import pickle

import pytest

from repro.analysis.coverage import CoverageReport
from repro.core.config import SMSConfig
from repro.simulation.breakdown import BreakdownCategory, ExecutionBreakdown
from repro.simulation.config import SimulationConfig
from repro.simulation.result_cache import (
    QUARANTINE_SUBDIR,
    CacheStats,
    SweepResultCache,
    atomic_store,
    cache_overview,
    code_fingerprint,
    default_cache,
    remove_temp_files,
    set_default_cache,
)
from repro.simulation.sampling import ConfidenceInterval
from repro.simulation.sweep import sweep_map


def square(value, offset=0):
    """Module-level so tasks have a stable importable identity."""
    return value * value + offset


CALLS = []


def tracked(value):
    CALLS.append(value)
    return value + 100


def square_but_fail_on_two(value):
    if value == 2:
        raise RuntimeError("boom")
    return square(value)


@pytest.fixture(autouse=True)
def _clean_ambient():
    yield
    # Tests must not leak an ambient cache into the rest of the suite.
    import repro.simulation.result_cache as module

    module._ambient_cache = module._AMBIENT_UNSET


class TestFingerprint:
    def test_same_task_same_digest(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        a = cache.fingerprint(square, (3,), {"offset": 1})
        b = cache.fingerprint(square, (3,), {"offset": 1})
        assert a == b is not None

    def test_different_args_different_digest(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        assert cache.fingerprint(square, (3,), {}) != cache.fingerprint(square, (4,), {})
        assert cache.fingerprint(square, (3,), {}) != cache.fingerprint(square, (3,), {"offset": 1})

    def test_type_tagged_encoding(self, tmp_path):
        # 1 and 1.0 and "1" must not collide.
        cache = SweepResultCache(tmp_path)
        digests = {
            cache.fingerprint(square, (1,), {}),
            cache.fingerprint(square, (1.0,), {}),
            cache.fingerprint(square, ("1",), {}),
        }
        assert len(digests) == 3

    def test_lambda_is_uncacheable(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        assert cache.fingerprint(lambda v: v, (1,), {}) is None
        assert cache.stats.skipped == 1

    def test_unencodable_argument_is_uncacheable(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        assert cache.fingerprint(square, (object(),), {}) is None

    @pytest.mark.parametrize("config", [SMSConfig(), SimulationConfig.small(num_cpus=2)])
    def test_config_argument_is_uncacheable(self, tmp_path, config):
        # A configuration object has no stable encoding (it is not a tuple of
        # its fields): a task taking one runs uncached, it never gains a key.
        cache = SweepResultCache(tmp_path)
        assert cache.fingerprint(square, (config,), {}) is None
        assert cache.fingerprint(square, (1,), {"offset": config}) is None
        assert cache.stats.skipped == 2

    def test_code_fingerprint_is_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestStore:
    def test_get_put_roundtrip(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        digest = cache.fingerprint(square, (5,), {})
        hit, _ = cache.get(digest)
        assert not hit
        cache.put(digest, {"answer": 25})
        hit, value = cache.get(digest)
        assert hit and value == {"answer": 25}
        assert cache.stats == CacheStats(hits=1, misses=1, stores=1)

    def test_coverage_report_result_round_trips(self, tmp_path):
        # What fig06 / fig08 / fig11 store per point: {scheme: CoverageReport}.
        reports = {"PC+offset": CoverageReport("PC+offset", "L1", 1000, 580, 420, 130)}
        cache = SweepResultCache(tmp_path)
        digest = cache.fingerprint(square, (8,), {})
        cache.put(digest, reports)
        hit, value = SweepResultCache(tmp_path).get(digest)
        assert hit and value == reports
        report = value["PC+offset"]
        assert type(report) is CoverageReport
        assert (report.name, report.level, report.overpredictions) == ("PC+offset", "L1", 130)
        assert report.coverage == 0.58 and report.as_dict() == reports["PC+offset"].as_dict()

    def test_fig12_and_fig13_results_round_trip(self, tmp_path):
        # What fig12 stores per application, and what fig13 does.
        interval = ConfidenceInterval(mean=1.37, half_width=0.05)
        base = ExecutionBreakdown(instructions=1000)
        base.add(BreakdownCategory.USER_BUSY, 400.0)
        base.add(BreakdownCategory.OFFCHIP_READ, 600.0)
        sms = ExecutionBreakdown(instructions=1000)
        sms.add(BreakdownCategory.OFFCHIP_READ, 250.5)
        cache = SweepResultCache(tmp_path)
        first = cache.fingerprint(square, (12,), {})
        second = cache.fingerprint(square, (13,), {})
        cache.put(first, interval)
        cache.put(second, (base, sms))
        reopened = SweepResultCache(tmp_path)
        hit, value = reopened.get(first)
        assert hit and type(value) is ConfidenceInterval
        assert (value.mean, value.half_width, value.upper) == (1.37, 0.05, 1.37 + 0.05)
        hit, value = reopened.get(second)
        assert hit and type(value) is tuple and len(value) == 2
        for restored, original in zip(value, (base, sms)):
            assert type(restored) is ExecutionBreakdown
            assert restored.cycles == original.cycles
            assert restored.instructions == 1000
            assert restored.as_dict() == original.as_dict()
        assert value[1].speedup_over(value[0]) == sms.speedup_over(base)

    def test_corrupt_entry_treated_as_miss_and_quarantined(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        digest = cache.fingerprint(square, (5,), {})
        cache.put(digest, 25)
        entry = cache._entry_path(digest)
        entry.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="quarantining corrupt sweep cache entry"):
            hit, _ = cache.get(digest)
        assert not hit
        assert not entry.exists()
        quarantined = tmp_path / QUARANTINE_SUBDIR / entry.name
        assert quarantined.read_bytes() == b"not a pickle"
        assert cache.stats.quarantined == 1

    def test_checksum_detects_single_flipped_byte(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        digest = cache.fingerprint(square, (6,), {})
        cache.put(digest, {"value": 36})
        entry = cache._entry_path(digest)
        data = bytearray(entry.read_bytes())
        data[-1] ^= 0xFF  # still a loadable pickle prefix? checksum must catch it
        entry.write_bytes(bytes(data))
        with pytest.warns(RuntimeWarning, match="quarantining corrupt sweep cache entry"):
            hit, _ = cache.get(digest)
        assert not hit
        # The entry regenerates on the next put/get cycle.
        cache.put(digest, {"value": 36})
        hit, value = cache.get(digest)
        assert hit and value == {"value": 36}

    def test_legacy_unframed_entry_is_quarantined(self, tmp_path):
        # A well-formed pickle without the RSC1 + SHA-256 frame is a file this
        # code cannot have written: it is never unpickled unchecked.
        cache = SweepResultCache(tmp_path)
        digest = cache.fingerprint(square, (7,), {})
        entry = cache._entry_path(digest)
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_bytes(pickle.dumps(49, protocol=pickle.HIGHEST_PROTOCOL))
        with pytest.warns(RuntimeWarning, match="quarantining corrupt sweep cache entry"):
            hit, value = cache.get(digest)
        assert not hit and value is None
        assert (tmp_path / QUARANTINE_SUBDIR / entry.name).exists()
        assert cache.stats.quarantined == 1 and cache.stats.errors == 1

    def test_fresh_instance_still_quarantines_a_corrupted_file(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        digest = cache.fingerprint(square, (11,), {})
        cache.put(digest, 121)
        assert cache.get(digest) == (True, 121)
        entry = cache._entry_path(digest)
        entry.write_bytes(b"damaged after it was served")
        fresh = SweepResultCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="quarantining corrupt sweep cache entry"):
            assert fresh.get(digest) == (False, None)
        assert fresh.stats.quarantined == 1
        assert (tmp_path / QUARANTINE_SUBDIR / entry.name).exists() and not entry.exists()

    def test_staging_file_is_what_cleanup_matches_and_never_an_entry(self, tmp_path):
        # The name atomic_store builds is the name remove_temp_files /
        # cache_overview match (the hand-staged names elsewhere in the suite
        # cannot drift from it unnoticed), scoped to the writer's pid, seen by
        # no entry glob, and gone after a failed write.
        def dies_mid_write(staging):
            staging.write_bytes(b"partial")
            assert staging.parent == tmp_path
            overview = cache_overview(tmp_path)["sweep"]
            assert (overview["entries"], overview["stale_entries"]) == (0, 0)
            assert overview["temp_files"] == 1
            assert remove_temp_files(tmp_path, pids={os.getpid() + 1}) == 0
            assert remove_temp_files(tmp_path, pids={os.getpid()}) == 1
            staging.write_bytes(b"partial again")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_store(tmp_path / "entry.pkl", dies_mid_write)
        assert list(tmp_path.iterdir()) == []


class TestRunnerIntegration:
    def test_second_sweep_hits_without_executing(self, tmp_path):
        CALLS.clear()
        cache = SweepResultCache(tmp_path)
        first = sweep_map(tracked, [1, 2, 3], cache=cache)
        assert first == [101, 102, 103]
        assert CALLS == [1, 2, 3]
        second = sweep_map(tracked, [1, 2, 3], cache=SweepResultCache(tmp_path))
        assert second == first
        assert CALLS == [1, 2, 3]  # nothing re-executed

    def test_partial_hits_execute_only_misses(self, tmp_path):
        CALLS.clear()
        cache = SweepResultCache(tmp_path)
        sweep_map(tracked, [1, 2], cache=cache)
        CALLS.clear()
        results = sweep_map(tracked, [1, 2, 3, 4], cache=SweepResultCache(tmp_path))
        assert results == [101, 102, 103, 104]
        assert CALLS == [3, 4]

    def test_parallel_sweep_uses_cache(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        items = list(range(8))
        parallel = sweep_map(square, items, workers=2, cache=cache, offset=3)
        assert parallel == [square(i, offset=3) for i in items]
        warm_cache = SweepResultCache(tmp_path)
        warm = sweep_map(square, items, workers=2, cache=warm_cache, offset=3)
        assert warm == parallel
        assert warm_cache.stats.hits == len(items)

    def test_uncacheable_tasks_still_run(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        results = sweep_map(lambda v: v * 2, [1, 2], cache=cache)
        assert results == [2, 4]
        assert cache.stats.skipped == 2

    def test_task_error_is_not_cached(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        with pytest.raises(RuntimeError):
            sweep_map(square_but_fail_on_two, [1, 2], cache=cache)
        # Completed points are stored as they finish (that is what makes an
        # interrupted sweep resumable); the failing point stores nothing.
        assert cache.stats.stores == 1
        hit, value = cache.get(cache.fingerprint(square_but_fail_on_two, (1,), {}))
        assert hit and value == 1

    def test_sweep_map_accepts_cache(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        assert sweep_map(square, [2, 3], cache=cache) == [4, 9]
        assert cache.stats.stores == 2


class TestAmbientDefault:
    def test_default_is_disabled(self):
        assert default_cache() is None

    def test_env_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = default_cache()
        assert cache is not None
        assert cache.directory == tmp_path

    def test_set_default_cache_overrides_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "1")
        set_default_cache(None)
        assert default_cache() is None
        explicit = SweepResultCache(tmp_path)
        set_default_cache(explicit)
        assert default_cache() is explicit

    def test_runner_picks_up_ambient(self, tmp_path):
        ambient = SweepResultCache(tmp_path)
        set_default_cache(ambient)
        sweep_map(square, [1, 2])
        assert ambient.stats.stores == 2
        set_default_cache(None)
        before = ambient.stats.as_dict()
        sweep_map(square, [3])
        assert ambient.stats.as_dict() == before

    def test_set_default_cache_returns_restorable_token(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        scoped = SweepResultCache(tmp_path / "scoped")
        previous = set_default_cache(scoped)
        assert default_cache() is scoped
        set_default_cache(previous)
        # Restored to "never configured": the env default applies again.
        restored = default_cache()
        assert restored is not None and restored.directory == tmp_path
