"""Start-up is proportional to the command — pinned per command.

Each test runs one ``repro.cli`` command in a fresh interpreter, dumps
``sys.modules`` when it returns, and asserts a *forbidden* set: modules the
command has no business importing.  Forbidden sets rather than exact ones, so
adding a module a command really needs does not fail here, while an import
creeping back into a package ``__init__`` or to the top of ``cli.py`` does.

The child runs with ``-S``: the tests pin the command's imports, not what the
interpreter's ``site`` start-up loads.  A ``.pth`` hook in site-packages runs
in every process before any ``repro`` code (one that imports ``certifi``
brings ``importlib.resources``, ``tempfile`` and ``random``), so without
``-S`` a forbidden set fails on a clean command.  ``-S`` drops nothing a
command needs: ``repro`` is stdlib-only (lint rule ``IMP001``) and
``PYTHONPATH`` is read by the interpreter, not by ``site``.

The counterpart is pinned too: a process about to fork workers (``serve``, a
parallel sweep with pending points) imports what they run *first*, so no
worker pays an import on its first job.

The last test resolves every lazily exported name of every package, so a
typo in a ``lazy_exports`` table cannot hide until someone imports the name.
"""

import json
import os
import socket
import subprocess
import sys
import threading
from importlib import import_module
from pathlib import Path

import pytest

from repro.trace.binary import write_trace_binary
from repro.workloads.suite import make_workload

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Runs ``repro.cli.main(argv)`` and writes the loaded module names to argv[1],
#: one per line: the shim itself must import nothing a command is denied.
_SHIM = """
import sys
from repro.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:  # argparse actions such as --version
    code = exc.code or 0
with open(sys.argv[1], "w") as out:
    out.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""

#: Start-up cost no command that does not simulate may pay: ``dataclasses``
#: drags ``inspect`` (+ ``ast``, ``dis``, ``tokenize``) in for ~10 ms, and
#: nothing under ``src/repro`` needs ``tempfile`` (+ ``random``): both caches
#: stage their writes through ``result_cache.atomic_store``.
DEFINITION_MODULES = ("dataclasses", "inspect", "tempfile")

#: What no simulating command pays either: every class the package defines
#: is a plain class or a ``NamedTuple`` (``test_no_dataclasses_outside_serve``
#: enforces it, ``serve/`` included).
DATACLASS_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")

#: What a simulation job touches; a forking parent must hold all of it.
WARM_MODULES = {
    "repro.simulation.engine", "repro.core.sms", "repro.workloads.suite",
    "repro.prefetch.ghb", "repro.prefetch.stride", "repro.prefetch.nextline",
    "repro.prefetch.temporal",
}

LAZY_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.coherence",
    "repro.core",
    "repro.experiments",
    "repro.memory",
    "repro.prefetch",
    "repro.serve",
    "repro.simulation",
    "repro.trace",
    "repro.workloads",
]


def run_python(tmp_path, *args):
    """Run a fresh interpreter on this checkout's sources; return its stdout."""
    child_env = dict(os.environ, PYTHONPATH=REPO_SRC, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, *args], env=child_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_cli(tmp_path, *argv):
    """Run one command in a child; return ``(stdout, set of loaded modules)``.

    The child starts with ``-S`` (no ``site``), so its ``sys.modules`` is the
    interpreter core plus exactly what the command imported.  ``run_script``
    keeps ``site``: its tests look only at ``repro.*`` modules and at
    ``multiprocessing``, not at the whole start-up closure.
    """
    dump = tmp_path / "modules.txt"
    out = run_python(tmp_path, "-S", "-c", _SHIM, str(dump), *argv)
    return out, set(dump.read_text().split())


def loaded(modules, *prefixes):
    """The loaded modules that are, or live under, any of ``prefixes``."""
    return sorted(
        name for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    )


def test_version_loads_next_to_nothing(tmp_path):
    out, modules = run_cli(tmp_path, "--version")
    assert out.startswith("repro ")
    assert loaded(modules, "repro.simulation.engine", "repro.core", "repro.serve") == []
    assert loaded(modules, *DEFINITION_MODULES, "json") == []
    assert len(loaded(modules, "repro")) <= 8


def test_cache_stats_loads_no_simulator(tmp_path):
    out, modules = run_cli(tmp_path, "cache", "stats", "--cache-dir", str(tmp_path / "c"))
    assert "cache statistics" in out
    assert loaded(modules, "repro.simulation.engine", "repro.core", "repro.serve") == []
    assert loaded(modules, *DEFINITION_MODULES) == []


def test_submit_loads_no_engine_and_no_experiments(tmp_path):
    path = str(tmp_path / "s.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)

    def answer_one_request():
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as stream:
            stream.readline()
            stream.write(b'{"ok": true, "result": {"pong": true}}\n')
            stream.flush()

    responder = threading.Thread(target=answer_one_request, daemon=True)
    responder.start()
    try:
        out, modules = run_cli(tmp_path, "submit", "--socket", path, "--verb", "status")
    finally:
        responder.join(timeout=10)
        listener.close()
    assert json.loads(out)["result"] == {"pong": True}
    assert loaded(modules, "repro.simulation.engine", "repro.core", "repro.experiments") == []


def test_all_hits_figure_never_loads_the_engine(tmp_path):
    args = ["experiment", "--figure", "fig10", "--scale", "0.01", "--cpus", "1",
            "--cache-dir", str(tmp_path / "c")]
    cold, cold_modules = run_cli(tmp_path, *args)
    *cold_table, cold_summary = cold.splitlines()
    assert cold_summary.startswith("sweep cache: 0 hit(s), 4 miss(es), 4 stored")
    assert cold_summary.endswith("; engine: 28 lanes / 0 reference")
    assert "repro.simulation.engine" in cold_modules
    assert loaded(cold_modules, *DATACLASS_MODULES) == []
    # Four cache stores and a sweep: no staging through ``tempfile``, and the
    # result cache is the only thing a rerun resumes from.
    assert loaded(cold_modules, "tempfile", "repro.simulation.journal") == []

    warm, modules = run_cli(tmp_path, *args)
    *warm_table, warm_summary = warm.splitlines()
    assert warm_summary.startswith("sweep cache: 4 hit(s), 0 miss(es), 0 stored")
    assert warm_summary.endswith("; engine: 0 lanes / 0 reference")
    assert warm_table == cold_table
    assert loaded(
        modules, "repro.simulation.engine", "repro.core.sms", "repro.memory",
        "repro.workloads.suite", "repro.serve", "multiprocessing",
    ) == []
    assert loaded(modules, *DEFINITION_MODULES, "json") == []
    assert len(loaded(modules, "repro")) <= 24


def test_trace_replay_loads_no_sweep_machinery(tmp_path):
    path = tmp_path / "x.strc"
    write_trace_binary(path, make_workload("ocean", num_cpus=1, accesses_per_cpu=400, seed=1))
    out, modules = run_cli(
        tmp_path, "simulate", "--trace", str(path), "--prefetcher", "sms", "--cpus", "1"
    )
    assert "L1 coverage" in out
    assert "repro.simulation.engine" in modules and "repro.core.sms" in modules
    assert loaded(
        modules, "repro.simulation.sweep", "repro.simulation.result_cache",
        "repro.experiments", "repro.serve", "repro.prefetch.ghb", "repro.workloads.oltp",
        "multiprocessing", "socket",
    ) == []
    # Nor what a replay cannot run: the generators (and their ``random``), the
    # sectored trainers' tag arrays, or a ``@dataclass`` definition.
    assert loaded(
        modules, *DATACLASS_MODULES, "random", "repro.workloads.base",
        "repro.memory.sectored", "repro.memory.replacement", "repro._compat",
    ) == []


def test_generated_simulation_defines_no_dataclass(tmp_path):
    out, modules = run_cli(
        tmp_path, "simulate", "--workload", "ocean", "--prefetcher", "ghb",
        "--cpus", "1", "--accesses-per-cpu", "400",
    )
    assert "L1 coverage" in out
    assert "repro.prefetch.ghb" in modules and "repro.workloads.base" in modules
    assert loaded(modules, *DATACLASS_MODULES) == []


def run_script(tmp_path, source):
    """Run ``source`` as a script in a fresh interpreter; return what it printed as JSON."""
    script = tmp_path / "child.py"
    script.write_text(source)
    return json.loads(run_python(tmp_path, str(script)))


def test_serve_imports_what_workers_run_before_forking(tmp_path):
    report = run_script(tmp_path, """
import json, sys
from repro.serve.pool import WorkerPool
cold = sorted(m for m in sys.modules if m.startswith("repro."))
with WorkerPool(workers=1, cache_dir=sys.argv[0] + ".cache"):
    warm = set(sys.modules)
from repro.prefetch.registry import PREFETCHER_CHOICES
from repro.serve import jobs
for prefetcher in PREFETCHER_CHOICES:
    jobs.run_simulate("ocean", prefetcher=prefetcher, cpus=1, accesses_per_cpu=200, seed=1)
first_request = sorted(m for m in set(sys.modules) - warm if m.startswith("repro"))
print(json.dumps({"cold": cold, "warm": sorted(warm), "first_request": first_request}))
""")
    assert "repro.simulation.engine" not in report["cold"]
    assert WARM_MODULES <= set(report["warm"])
    # A worker is a fork of the started pool's process: whatever a first
    # request of any kind would import, it imports in every worker.
    assert report["first_request"] == []


def test_parallel_sweep_forks_warm_workers_only_for_pending_points(tmp_path):
    report = run_script(tmp_path, """
import json, sys
from repro.simulation.result_cache import SweepResultCache
from repro.simulation.sweep import SweepRunner

def loaded_in_worker(point):
    return sorted(m for m in sys.modules if m.startswith("repro."))

if __name__ == "__main__":
    cache = SweepResultCache(directory=sys.argv[0] + ".cache")
    runner = SweepRunner(max_workers=2, cache=cache)
    worker = runner.map(loaded_in_worker, [1, 2])[0]
    runner.map(loaded_in_worker, [1, 2])  # all hits: no pool
    print(json.dumps({"worker": worker, "hits": cache.stats.hits,
                      "parent": sorted(sys.modules)}))
""")
    assert WARM_MODULES <= set(report["worker"])
    assert report["hits"] == 2
    assert "multiprocessing" in report["parent"]


def test_all_hits_sweep_imports_no_pool_and_no_engine(tmp_path):
    report = run_script(tmp_path, """
import json, sys
from repro.simulation.result_cache import SweepResultCache
from repro.simulation.sweep import SweepRunner

def point(value):
    return value * 2

if __name__ == "__main__":
    cache = SweepResultCache(directory=sys.argv[0] + ".cache")
    SweepRunner(max_workers=1, cache=cache).map(point, [1, 2])
    assert SweepRunner(max_workers=2, cache=cache).map(point, [1, 2]) == [2, 4]
    print(json.dumps(sorted(sys.modules)))
""")
    assert loaded(report, "multiprocessing", "repro.simulation.engine") == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    module = import_module(package)
    names = set(module.__all__) | {name for name in dir(module) if not name.startswith("_")}
    assert set(module.__all__) <= set(dir(module))
    for name in sorted(names):
        assert getattr(module, name) is not None, f"{package}.{name}"
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name")
