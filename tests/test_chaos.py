"""Chaos suite: injected faults driven through sweep, cache, and pool paths.

Every scenario here runs a :mod:`repro.faults` plan against the real
fault-tolerance machinery and asserts the recovery contract: a crashed
sweep resumes from its result cache and re-executes only the missing points, a
corrupt cache entry is quarantined and regenerated, a hung pool task hits
its deadline and the worker is replaced, and results that complete are
byte-identical to an uninterrupted, fault-free run.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest

from repro import faults
from repro._env import scoped_env
from repro.faults import FAULTS_ENV
from repro.serve import jobs
from repro.serve.pool import WorkerPool
from repro.serve.protocol import (
    JOB_FAILED,
    POISONED,
    TASK_TIMEOUT,
    WORKER_LOST,
    ProtocolError,
)
from repro.serve.server import SimulationServer
from repro.simulation import SweepResultCache, SweepTask, set_default_max_retries
from repro.simulation.result_cache import QUARANTINE_SUBDIR
from repro.simulation.sweep import SweepRunner

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Recorded at import so forked sweep workers (different pid) can tell
#: themselves apart from the parent — faults scoped "workers only".
_MAIN_PID = os.getpid()


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    token = faults.install_plan(None)
    yield
    faults.install_plan(token)


def _sim_spec(seed: int) -> dict:
    return {
        "verb": "simulate",
        "workload": "web-apache",
        "prefetcher": "sms",
        "cpus": 2,
        "accesses_per_cpu": 600,
        "seed": seed,
    }


def square(value):
    return value * value


def flaky_square(value):
    """Raises an injected fault when the plan says so, else squares."""
    faults.fire("chaos.task")
    return value * value


def slow_in_workers(value):
    """Sleeps forever in forked sweep workers; instant in the parent."""
    if value == 2 and os.getpid() != _MAIN_PID:
        time.sleep(3600)
    return value * value


# --------------------------------------------------------------------------- #
# Sweep crash → cache resume → byte identity (the acceptance scenario)
# --------------------------------------------------------------------------- #
_SWEEP_SCRIPT = textwrap.dedent(
    """
    import pickle, sys
    from repro.serve import jobs
    from repro.simulation import SweepResultCache, SweepTask
    from repro.simulation.sweep import SweepRunner

    def spec(seed):
        return {
            "verb": "simulate", "workload": "web-apache", "prefetcher": "sms",
            "cpus": 2, "accesses_per_cpu": 600, "seed": seed,
        }

    cache = SweepResultCache()  # directory from REPRO_CACHE_DIR
    runner = SweepRunner(cache=cache)
    tasks = [
        SweepTask(key=seed, fn=jobs.execute_spec, args=(spec(seed),))
        for seed in (1, 2, 3, 4)
    ]
    results = runner.run(tasks)
    with open(sys.argv[1], "wb") as handle:
        pickle.dump({"results": results, "report": runner.report}, handle)
    """
)


def _run_sweep_script(tmp_path, cache_dir, out_name, fault_plan=None):
    script = tmp_path / "sweep_script.py"
    script.write_text(_SWEEP_SCRIPT)
    out = tmp_path / out_name
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop(FAULTS_ENV, None)
    if fault_plan is not None:
        env[FAULTS_ENV] = fault_plan
    proc = subprocess.run(
        [sys.executable, str(script), str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc, out


class TestCrashResumeByteIdentity:
    def test_killed_sweep_resumes_and_matches_fault_free_run(self, tmp_path):
        cache_dir = tmp_path / "cache"

        # 1. The sweep dies mid-run: the injected crash (os._exit, the
        #    SIGKILL shape — no cleanup, no atexit) fires on the 3rd point.
        proc, out = _run_sweep_script(
            tmp_path, cache_dir, "crashed.pkl", fault_plan="sweep.point:crash@3"
        )
        assert proc.returncode == 137, proc.stderr
        assert not out.exists()

        # 2. The first two points made it to the cache, stored one by one
        #    as they completed — the cache is what a rerun resumes from.
        entries = sorted(cache_dir.glob("*.pkl"))
        assert len(entries) == 2

        # 3. One completed entry is corrupted on disk (flip one byte).
        victim = entries[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))

        # 4. The rerun (no faults) resumes: completed points answer from
        #    the cache, the corrupt one is quarantined and re-executed,
        #    and the sweep completes.
        proc, out = _run_sweep_script(tmp_path, cache_dir, "resumed.pkl")
        assert proc.returncode == 0, proc.stderr
        resumed = pickle.loads(out.read_bytes())
        report = resumed["report"]
        assert report["total"] == 4
        assert report["cached"] == 1  # one completed point survived intact
        assert report["executed"] == 3  # 2 missing + 1 regenerated
        assert (cache_dir / QUARANTINE_SUBDIR / victim.name).exists()

        # 5. Byte identity: an uninterrupted fault-free run in a fresh
        #    cache serializes to the same bytes.  Canonical JSON, not
        #    pickle.dumps — pickle's memo records which equal objects are
        #    *shared*, and cache-loaded points never share objects with
        #    freshly computed ones, so raw pickle streams differ even for
        #    identical results.
        proc, fresh_out = _run_sweep_script(
            tmp_path, tmp_path / "fresh-cache", "fresh.pkl"
        )
        assert proc.returncode == 0, proc.stderr
        fresh = pickle.loads(fresh_out.read_bytes())
        assert resumed["results"] == fresh["results"]
        assert json.dumps(resumed["results"], sort_keys=True).encode() == (
            json.dumps(fresh["results"], sort_keys=True).encode()
        )


# --------------------------------------------------------------------------- #
# In-process sweep chaos
# --------------------------------------------------------------------------- #
class TestSweepChaos:
    def test_retry_recovers_injected_task_error(self, tmp_path):
        faults.install_plan("chaos.task:error@1")
        runner = SweepRunner(
            cache=SweepResultCache(tmp_path), max_retries=2, backoff_base=0.0
        )
        assert runner.map(flaky_square, [3]) == [9]
        assert runner.report["retries"] == 1 and runner.report["failed"] == 0

        # The same budget set in-process (what ``experiment --max-retries``
        # does for the runners a figure module builds), then restored.
        faults.install_plan("chaos.task:error@1")
        previous = set_default_max_retries(2)
        try:
            ambient = SweepRunner(cache=SweepResultCache(tmp_path), backoff_base=0.0)
        finally:
            assert set_default_max_retries(previous) == 2
        assert ambient.map(flaky_square, [4]) == [16]
        assert ambient.report["retries"] == 1
        assert SweepRunner().max_retries == previous == 0

    def test_parallel_worker_errors_retried_serially(self, tmp_path):
        # Every forked sweep worker errors its first point; the parent
        # retries the failures serially.  The parent's own first hit of the
        # site fires too, which the retry budget also absorbs.
        faults.install_plan("chaos.task:error@1")
        runner = SweepRunner(
            max_workers=2,
            cache=SweepResultCache(tmp_path),
            max_retries=2,
            backoff_base=0.0,
        )
        assert runner.map(flaky_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
        assert runner.report["failed"] == 0

    def test_hung_parallel_point_is_killed_and_run_in_the_parent(self, tmp_path):
        runner = SweepRunner(
            max_workers=2,
            cache=SweepResultCache(tmp_path),
            point_timeout=1.0,
        )
        with pytest.warns(RuntimeWarning, match="missed its .*deadline"):
            results = runner.map(slow_in_workers, [1, 2, 3, 4])
        assert results == [1, 4, 9, 16]
        assert runner.report["failed"] == 0

    def test_enospc_on_cache_write_is_nonfatal(self, tmp_path):
        faults.install_plan("cache.put:enospc@1")
        cache = SweepResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        with pytest.warns(RuntimeWarning, match="could not store"):
            assert runner.map(square, [5]) == [25]
        assert cache.stats.errors == 1

    def test_torn_cache_write_detected_and_recomputed(self, tmp_path):
        faults.install_plan("cache.put:torn@1")
        cache = SweepResultCache(tmp_path)
        assert SweepRunner(cache=cache).map(square, [6]) == [36]
        faults.install_plan(None)
        # The torn entry fails its checksum, is quarantined, and the point
        # recomputes — the caller still sees the right value.
        fresh_cache = SweepResultCache(tmp_path)
        runner = SweepRunner(cache=fresh_cache)
        with pytest.warns(RuntimeWarning, match="quarantining corrupt"):
            assert runner.map(square, [6]) == [36]
        assert runner.report["executed"] == 1
        assert fresh_cache.stats.quarantined == 1
        assert list((tmp_path / QUARANTINE_SUBDIR).iterdir())


# --------------------------------------------------------------------------- #
# Pool chaos: crash mid-job, hang vs deadline, poison quarantine
# --------------------------------------------------------------------------- #
class TestPoolChaos:
    def test_hung_task_hits_deadline_and_worker_is_replaced(self, tmp_path):
        # The autouse fixture installs an explicit no-plan, which forked
        # workers would inherit; drop back to "unset" so workers activate
        # the plan from the environment.
        faults.install_plan(faults._PLAN_UNSET)
        with scoped_env({FAULTS_ENV: "pool.worker:hang@2:seconds=600"}):
            with WorkerPool(workers=1, cache_dir=str(tmp_path)) as pool:
                first = pool.execute(_sim_spec(1), task_timeout=30.0)
                with pytest.raises(ProtocolError) as excinfo:
                    pool.execute(_sim_spec(2), task_timeout=0.5)
                assert excinfo.value.code == TASK_TIMEOUT
                # The respawned worker (fresh per-process fault counters)
                # serves the next request.
                assert pool.execute(_sim_spec(1), task_timeout=30.0) == first
                stats = pool.stats()
                assert stats["timeouts"] == 1

    def test_injected_crash_surfaces_as_worker_lost(self, tmp_path):
        faults.install_plan(faults._PLAN_UNSET)  # let workers read the env
        with scoped_env({FAULTS_ENV: "pool.worker:crash@1"}):
            with WorkerPool(workers=1, cache_dir=str(tmp_path)) as pool:
                with pytest.raises(ProtocolError) as excinfo:
                    pool.execute(_sim_spec(1))
                assert excinfo.value.code == WORKER_LOST
                assert pool.stats()["crashes"] == 1


class _CrashingThenOkPool:
    """Stub pool: first ``fail_times`` executes raise 503, then succeed."""

    def __init__(self, fail_times: int, code: int = WORKER_LOST):
        self.fail_times = fail_times
        self.code = code
        self.calls = 0

    def start(self):
        return self

    def execute(self, spec, task_timeout=None):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise ProtocolError(self.code, "injected worker loss")
        return {"item": spec.get("workload", "x")}

    def stats(self):
        return {"workers": 1, "executed": self.calls}

    def shutdown(self):
        pass


class TestServerRetries:
    def _roundtrip(self, server_factory, payload, socket_path, n=1):
        async def scenario():
            server = server_factory()
            await server.start()
            try:
                replies = []
                for index in range(n):
                    reader, writer = await asyncio.open_unix_connection(socket_path)
                    try:
                        writer.write(
                            (json.dumps(dict(payload, id=index)) + "\n").encode()
                        )
                        await writer.drain()
                        replies.append(json.loads(await reader.readline()))
                    finally:
                        writer.close()
                return replies, server
            finally:
                await server.stop()

        return asyncio.run(scenario())

    def test_transient_worker_loss_is_retried_to_success(self, tmp_path, socket_dir):
        socket_path = f"{socket_dir}/serve.sock"
        pool = _CrashingThenOkPool(fail_times=1)

        def factory():
            return SimulationServer(
                pool,
                socket_path=socket_path,
                cache=SweepResultCache(tmp_path / "cache"),
                max_retries=2,
                retry_backoff=0.0,
                quarantine_after=5,
            )

        replies, server = self._roundtrip(
            factory, SWEEP_REQUEST, socket_path, n=1
        )
        (reply,) = replies
        assert reply["ok"], reply
        assert pool.calls == 2  # one failure, one retry that succeeded
        assert server.counters["retries"] == 1

    def test_poison_task_is_quarantined_with_422(self, tmp_path, socket_dir):
        socket_path = f"{socket_dir}/serve.sock"
        pool = _CrashingThenOkPool(fail_times=10**6)

        def factory():
            return SimulationServer(
                pool,
                socket_path=socket_path,
                cache=SweepResultCache(tmp_path / "cache"),
                max_retries=10,
                retry_backoff=0.0,
                quarantine_after=2,
            )

        replies, server = self._roundtrip(
            factory, SWEEP_REQUEST, socket_path, n=2
        )
        first, second = replies
        assert not first["ok"] and first["code"] == POISONED
        # The quarantine stops the bleeding: the identical follow-up never
        # reaches the pool again.
        assert not second["ok"] and second["code"] == POISONED
        assert pool.calls == 2  # quarantine_after attempts, not 1 + retries
        assert server.counters["quarantined"] == 1
        assert server.status()["quarantined_jobs"] == 1

    def test_deterministic_job_error_is_not_retried(self, tmp_path, socket_dir):
        socket_path = f"{socket_dir}/serve.sock"
        pool = _CrashingThenOkPool(fail_times=10**6, code=JOB_FAILED)

        def factory():
            return SimulationServer(
                pool,
                socket_path=socket_path,
                cache=SweepResultCache(tmp_path / "cache"),
                max_retries=5,
                retry_backoff=0.0,
            )

        replies, _ = self._roundtrip(factory, SWEEP_REQUEST, socket_path, n=1)
        (reply,) = replies
        assert not reply["ok"] and reply["code"] == JOB_FAILED
        assert pool.calls == 1  # a clean raise is not worth re-raising


SWEEP_REQUEST = {
    "verb": "sweep",
    "figure": "fig10",
    "item": "OLTP",
    "scale": 0.05,
    "num_cpus": 2,
}


@pytest.fixture
def socket_dir():
    path = tempfile.mkdtemp(prefix="repro-chaos-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


# --------------------------------------------------------------------------- #
# Client chaos: dropped connection fault, exponential connect backoff
# --------------------------------------------------------------------------- #
class TestClientChaos:
    def test_injected_disconnect_surfaces_as_serve_error(self, tmp_path):
        from repro.serve.client import ServeClient, ServeError

        faults.install_plan("client.send:disconnect@1")
        client = ServeClient(socket_path=str(tmp_path / "nowhere.sock"))
        client._file = open(os.devnull, "rb")  # a connected-looking client
        try:
            with pytest.raises(ServeError, match="transport error"):
                client.request_raw({"verb": "status"})
        finally:
            client._file.close()
            client._file = None

    def test_connect_backoff_grows_and_respects_deadline(self, monkeypatch, tmp_path):
        from repro.serve import client as client_mod

        sleeps = []
        monkeypatch.setattr(
            client_mod.time, "sleep", lambda seconds: sleeps.append(seconds)
        )
        client = client_mod.ServeClient(socket_path=str(tmp_path / "nowhere.sock"))
        with pytest.raises(client_mod.ServeError):
            client.connect(retry_for=0.5, interval=0.05, max_interval=0.2)
        assert len(sleeps) >= 3, "expected several backoff sleeps"
        # Exponential growth, capped: 0.05, 0.1, then ~0.2 until the
        # deadline budget runs out (each sleep is also clipped to the
        # remaining budget, so the tail may shrink — only the ramp-up and
        # the cap are load-bearing).
        assert sleeps[0] == pytest.approx(0.05)
        assert sleeps[1] == pytest.approx(0.10)
        assert sleeps[2] == pytest.approx(0.20, rel=0.05)
        assert max(sleeps) <= 0.2 + 1e-9

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_refused_connects_close_their_sockets(self, tmp_path):
        # Each failed attempt closes its socket at once: one left for the
        # garbage collector warns from its finalizer, which fails here.
        import gc

        from repro.serve.client import ServeClient, ServeError

        client = ServeClient(socket_path=str(tmp_path / "nowhere.sock"))
        with pytest.raises(ServeError):
            client.connect(retry_for=0.2, interval=0.01, max_interval=0.02)
        gc.collect()
