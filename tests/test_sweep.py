"""Tests for repro.simulation.sweep (serial and parallel sweeps)."""

import os
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import pytest

from repro.simulation.sweep import SweepTask, sweep_map


def square(value, offset=0):
    """Module-level so parallel workers can pickle it."""
    return value * value + offset


def fail_on_three(value):
    if value == 3:
        raise RuntimeError("boom")
    return value


def logged_fail_on_three(value, log_dir):
    """Appends the running process's pid to ``log_dir/<value>``, then
    :func:`fail_on_three`: the log shows how often, and where, a point ran."""
    with open(os.path.join(log_dir, str(value)), "a") as log:
        log.write(f"{os.getpid()}\n")
    return fail_on_three(value)


class TestSweepTask:
    def test_execute_applies_args_and_kwargs(self):
        task = SweepTask(key="k", fn=square, args=(4,), kwargs={"offset": 1})
        assert task.execute() == 17


class TestSerialRunner:
    def test_map_preserves_item_order(self):
        assert sweep_map(square, [3, 1, 2]) == [9, 1, 4]

    def test_fixed_kwargs_forwarded(self):
        assert sweep_map(square, [2], offset=10) == [14]

    def test_empty_sweep(self):
        assert sweep_map(square, [], workers=4) == []

    def test_task_error_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            sweep_map(fail_on_three, [1, 2, 3])

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            sweep_map(square, [1], workers=-1)

    def test_serial_accepts_lambdas(self):
        assert sweep_map(lambda v: v + 1, [1, 2]) == [2, 3]


class TestParallelRunner:
    def test_parallel_matches_serial(self):
        items = list(range(12))
        serial = sweep_map(square, items, offset=3)
        parallel = sweep_map(square, items, workers=3, offset=3)
        assert parallel == serial

    def test_single_task_runs_inline(self):
        # One task never pays process overhead even when workers are requested.
        assert sweep_map(square, [5], workers=8) == [25]

    def test_unpicklable_task_falls_back_to_serial(self):
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            results = sweep_map(lambda v: v * 10, [1, 2, 3], workers=2)
        assert results == [10, 20, 30]

    def test_pool_that_cannot_start_falls_back_to_serial(self, monkeypatch):
        from repro.serve.pool import WorkerPool

        def no_fork(self, index):
            raise OSError("fork forbidden")

        monkeypatch.setattr(WorkerPool, "_spawn", no_fork)
        with pytest.warns(RuntimeWarning, match="fork forbidden.*falling back to serial"):
            assert sweep_map(square, [1, 2, 3], workers=2) == [1, 4, 9]

    def test_task_error_raises_without_serial_fallback(self, tmp_path):
        # A failing task is a task problem, not a pool problem: it must
        # re-raise directly, with no fallback warning and no serial re-run.
        # A point is a pure function of its inputs, so one that raised would
        # raise again: it ran once, in a worker, and is not retried.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match="boom"):
                sweep_map(logged_fail_on_three, [1, 2, 3, 4], workers=2, log_dir=str(tmp_path))
        (pid,) = (tmp_path / "3").read_text().split()
        assert int(pid) != os.getpid()


class TestConvenience:
    def test_sweep_map_serial(self):
        assert sweep_map(square, [1, 2, 3]) == [1, 4, 9]

    def test_sweep_map_parallel(self):
        assert sweep_map(square, [1, 2, 3], workers=2) == [1, 4, 9]


class TestExperimentAdoption:
    def test_runner_accepts_workers_argument(self):
        from repro.experiments import fig10_region_size

        table = fig10_region_size.run(
            categories=["Scientific"],
            region_sizes=[512],
            scale=0.1,
            num_cpus=2,
            workers=2,
        )
        assert len(table.to_dicts()) == 1


def interrupt_on_call(value):
    """Module-level stand-in for a Ctrl-C arriving mid-task."""
    raise KeyboardInterrupt


class TestGracefulShutdown:
    def test_interrupt_cleans_own_temp_cache_files_and_reraises(self, tmp_path):
        import os

        from repro.simulation.result_cache import SweepResultCache

        pid = os.getpid()
        (tmp_path / "traces").mkdir()
        leaked_pickle = tmp_path / f".tmp-{pid}-1"
        leaked_pickle.write_bytes(b"partial")
        leaked_trace = tmp_path / "traces" / f".tmp-{pid}-1"
        leaked_trace.write_bytes(b"partial")
        entry = tmp_path / "aaaa-bbbb.pkl"
        entry.write_bytes(b"done")
        # A sibling process's in-flight staging file must NOT be yanked.
        sibling = tmp_path / ".tmp-99999-1"
        sibling.write_bytes(b"in flight")

        with pytest.raises(KeyboardInterrupt):
            sweep_map(interrupt_on_call, [1, 2], cache=SweepResultCache(tmp_path))
        assert not leaked_pickle.exists()
        assert not leaked_trace.exists()
        assert entry.exists()  # completed entries survive
        assert sibling.exists()  # other processes' staging survives

    def test_sigterm_is_delivered_as_keyboard_interrupt(self):
        import os
        import signal

        from repro.simulation.sweep import _sigterm_as_interrupt

        previous = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            with _sigterm_as_interrupt():
                os.kill(os.getpid(), signal.SIGTERM)
                # The raising handler fires at the next bytecode boundary,
                # so this line must never be reached.
                raise AssertionError("SIGTERM handler did not fire")
        assert signal.getsignal(signal.SIGTERM) == previous

    def test_sigterm_stops_a_parallel_sweep_and_its_workers_at_once(self, tmp_path):
        script = tmp_path / "sweep.py"
        script.write_text(textwrap.dedent("""
            import os, sys, time
            from repro.simulation.sweep import sweep_map

            def sleep_in_worker(value):
                open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
                time.sleep(600)

            if __name__ == "__main__":
                sweep_map(sleep_in_worker, [1, 2, 3], workers=2)
        """))
        started = tmp_path / "started"
        started.mkdir()
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen([sys.executable, str(script), str(started)], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while len(list(started.iterdir())) < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
            workers = [int(path.name) for path in started.iterdir()]
            assert len(workers) == 2
            start = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
            assert time.monotonic() - start < 3.0
        finally:
            proc.kill()
            proc.wait()
        assert [pid for pid in workers if _running(pid)] == []


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False
