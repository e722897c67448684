"""Tests for the persistent worker pool (repro.serve.pool)."""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.serve import jobs
from repro.serve.pool import UNPICKLABLE, WorkerPool
from repro.serve.protocol import JOB_FAILED, WORKER_LOST, ProtocolError
from repro.simulation.sweep import SweepTask

SIM_SPEC = {
    "verb": "simulate",
    "workload": "web-apache",
    "prefetcher": "sms",
    "cpus": 2,
    "accesses_per_cpu": 1200,
    "seed": 1,
}


class TestWorkerPool:
    def test_execute_matches_direct_call(self, tmp_path):
        with WorkerPool(workers=2, cache_dir=str(tmp_path)) as pool:
            served = pool.execute(SIM_SPEC)
        direct = jobs.execute_spec(SIM_SPEC)
        assert served == direct

    def test_workers_stay_warm_across_jobs(self, tmp_path):
        with WorkerPool(workers=1, cache_dir=str(tmp_path)) as pool:
            first = pool.execute(SIM_SPEC)
            second = pool.execute(SIM_SPEC)
            stats = pool.stats()
        assert first == second
        assert stats["executed"] == 2
        assert stats["jobs_per_worker"] == {"0": 2}

    def test_failing_job_reported_not_fatal(self, tmp_path):
        with WorkerPool(workers=1, cache_dir=str(tmp_path)) as pool:
            with pytest.raises(ProtocolError) as excinfo:
                pool.execute({"verb": "nonsense"})
            assert excinfo.value.code == JOB_FAILED
            # The worker survives a failing job.
            assert pool.execute(SIM_SPEC) == jobs.execute_spec(SIM_SPEC)
            assert pool.stats()["failures"] == 1

    def test_worker_killed_while_idle_is_respawned_before_dispatch(self, tmp_path):
        with WorkerPool(workers=1, cache_dir=str(tmp_path)) as pool:
            pool.execute(SIM_SPEC)
            victim = pool._handles[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5)
            # The pre-dispatch health check finds the corpse, respawns it,
            # and the request succeeds — no 503 is burned on discovery.
            assert pool.execute(SIM_SPEC) == jobs.execute_spec(SIM_SPEC)
            stats = pool.stats()
            assert stats["idle_respawns"] == 1
            assert stats["crashes"] == 0

    def test_worker_killed_mid_job_raises_worker_lost(self, tmp_path):
        from repro._env import scoped_env
        from repro.faults import FAULTS_ENV

        with scoped_env({FAULTS_ENV: "pool.worker:crash@2"}):
            with WorkerPool(workers=1, cache_dir=str(tmp_path)) as pool:
                pool.execute(SIM_SPEC)
                with pytest.raises(ProtocolError) as excinfo:
                    pool.execute(SIM_SPEC)
                assert excinfo.value.code == WORKER_LOST
                # The replacement worker serves the next request.
                assert pool.execute(SIM_SPEC) == jobs.execute_spec(SIM_SPEC)
                assert pool.stats()["crashes"] == 1

    def test_shutdown_terminates_workers_and_sweeps_their_temp_files(self, tmp_path):
        traces = tmp_path / "traces"
        traces.mkdir()
        done_entry = tmp_path / "ffff-1234.pkl"
        done_entry.write_bytes(b"keep")
        # A foreign process's in-flight staging file must survive shutdown.
        foreign_pickle = tmp_path / ".tmp-99999-1"
        foreign_pickle.write_bytes(b"in flight")

        pool = WorkerPool(workers=2, cache_dir=str(tmp_path)).start()
        processes = [handle.process for handle in pool._handles.values()]
        worker_pid = processes[0].pid
        # Temp files as a killed worker would leave them (its pid embedded).
        leaked_pickle = tmp_path / f".tmp-{worker_pid}-1"
        leaked_pickle.write_bytes(b"partial")
        leaked_trace = traces / f".tmp-{worker_pid}-1"
        leaked_trace.write_bytes(b"partial")
        pool.execute(SIM_SPEC)
        pool.shutdown()

        deadline = time.monotonic() + 5
        while any(p.is_alive() for p in processes) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(p.is_alive() for p in processes)
        assert not leaked_pickle.exists()
        assert not leaked_trace.exists()
        assert done_entry.exists()  # completed entries are never touched
        assert foreign_pickle.exists()  # other processes' staging survives

    def test_unpicklable_task_raises_and_keeps_its_worker(self, tmp_path):
        with WorkerPool(workers=1, cache_dir=str(tmp_path)) as pool:
            with pytest.raises(UNPICKLABLE):
                pool.run(SweepTask("lambda", lambda: 1))
            # Pickling fails before a byte reaches the pipe: the worker is
            # back on the idle queue and serves the next job.
            assert pool.stats()["idle_workers"] == 1
            assert pool.execute(SIM_SPEC, timeout=2.0) == jobs.execute_spec(SIM_SPEC)

    def test_shutdown_gives_busy_workers_one_deadline(self, tmp_path):
        pool = WorkerPool(workers=2, cache_dir=str(tmp_path)).start()
        errors = []

        def sleep_on_a_worker():
            try:
                pool.run(SweepTask("sleep", time.sleep, (600,)))
            except ProtocolError as exc:
                errors.append(exc)

        callers = [threading.Thread(target=sleep_on_a_worker) for _ in range(2)]
        for caller in callers:
            caller.start()
        deadline = time.monotonic() + 30
        while pool.stats()["idle_workers"] and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # both tasks are in their workers' hands
        start = time.monotonic()
        pool.shutdown(timeout=2.0)
        elapsed = time.monotonic() - start
        for caller in callers:
            caller.join(timeout=10)
        # One 2 s deadline for the pool, not 2 s per busy worker.
        assert 2.0 <= elapsed < 3.5
        assert [exc.code for exc in errors] == [WORKER_LOST, WORKER_LOST]
        assert all("pool shut down" in exc.message for exc in errors)

    def test_shutdown_is_idempotent_and_execute_refused_after(self, tmp_path):
        pool = WorkerPool(workers=1, cache_dir=str(tmp_path)).start()
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.execute(SIM_SPEC)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)
