"""Which engine loop does every figure take — pinned, so a plumbing
regression fails a test instead of a benchmark three PRs later.

PR 8 built the lane loop and for four PRs no figure, sweep or serve request
took it, because the fallback was silent.  Every configuration takes it now;
this module pins the path census of every servable figure at all-lanes and
the signals that would make a reference run visible:
``repro_engine_runs_total``, the ``engine.run`` span attribute, the
``experiment`` summary line, the serve ``status`` reply, and the hand-over
of worker-side counts to the parent.
"""

import sys
import threading

import pytest

from repro import obs
from repro.cli import main
from repro.figures import FIGURES
from repro.obs import trace as obs_trace
from repro.prefetch.registry import PREFETCHER_CHOICES
from repro.serve import WorkerPool, jobs
from repro.serve.server import SimulationServer
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import (
    SimulationEngine,
    absorb_engine_path_counts,
    engine_path_counts,
    format_engine_path_counts,
)
from repro.simulation.result_cache import SweepResultCache
from repro.simulation.sweep import sweep_map
from repro.workloads import make_workload

#: ``(runs_lanes, runs_reference)`` per figure at the smallest scale, 1 CPU.
#: fig08/fig09's sectored-trainer SMS and fig11's GHB and stride baselines
#: have no lane hook and run through the lane loop's boxing adapter.  fig05
#: measures density on the memory system directly and never builds an
#: engine.  Anything in the reference column is a bug.
PATH_CENSUS = {
    "fig04": (20, 0),
    "fig05": (0, 0),
    "fig06": (16, 0),
    "fig07": (40, 0),
    "fig08": (16, 0),
    "fig09": (56, 0),
    "fig10": (28, 0),   # four categories x seven region sizes
    "fig11": (33, 0),
    "fig12": (66, 0),
    "fig13": (22, 0),
}


#: Distinct simulations among those 297 runs: ``(trace key, SimulationConfig,
#: prefetcher class + its config's slots)`` points.  The other 65 runs repeat
#: a point another figure (or an earlier run of a ``simulate_pair``) already
#: simulated: fig13 repeats fig12, every pair re-runs its trace's null
#: baseline, and fig06 / fig07 / fig10 / fig11 each contain the default SMS
#: point.  The same count holds at every scale and CPU count tried (0.01/1,
#: 0.1/2, 0.5/4, 1.0/4); a point-level result cache would make it the
#: number of simulations a cold paper run performs.
DISTINCT_POINTS = 232


def test_census_covers_every_servable_figure():
    # Every figure of the table but Table 1 declares a sweep, and the
    # service serves exactly those.
    assert set(PATH_CENSUS) == set(jobs.SWEEPS) == set(FIGURES) - {"tab01"}


@pytest.mark.parametrize("figure", sorted(PATH_CENSUS))
def test_figure_path_census(figure):
    sweep = jobs.SWEEPS[figure]
    before = engine_path_counts()
    for item in sweep.items:
        sweep.fn(item, **sweep.kwargs(scale=0.01, num_cpus=1))
    runs = engine_path_counts(since=before)
    lanes, reference = PATH_CENSUS[figure]
    assert runs == {"lanes": lanes, "reference": reference}


def test_distinct_simulation_points(monkeypatch):
    from repro.experiments import common

    trace_keys = {}
    cached_trace = common._cached_trace

    def keyed_trace(*key):
        trace = cached_trace(*key)
        trace_keys[id(trace)] = (key, trace)  # the trace kept alive: ids stay unique
        return trace

    points = []
    run = SimulationEngine.run

    def recording_run(self, trace, *args, **kwargs):
        prefetcher = self.prefetchers[0]
        config = getattr(prefetcher, "config", None)  # SMSConfig, GHBConfig or none
        slots = () if config is None else tuple(getattr(config, s) for s in config.__slots__)
        points.append((trace_keys[id(trace)][0], self.config, type(prefetcher), slots))
        return run(self, trace, *args, **kwargs)

    monkeypatch.setattr(common, "_cached_trace", keyed_trace)
    monkeypatch.setattr(SimulationEngine, "run", recording_run)
    for figure in sorted(PATH_CENSUS):
        sweep = jobs.SWEEPS[figure]
        for item in sweep.items:
            sweep.fn(item, **sweep.kwargs(scale=0.01, num_cpus=1))
    assert len(points) == sum(lanes for lanes, _ in PATH_CENSUS.values())
    assert len(set(points)) == DISTINCT_POINTS


def test_counts_format_and_absorb_round_trip():
    before = engine_path_counts()
    absorb_engine_path_counts({"lanes": 3, "reference": 0})
    absorb_engine_path_counts({"lanes": 0, "reference": 2})
    runs = engine_path_counts(since=before)
    assert runs == {"lanes": 3, "reference": 2}
    assert format_engine_path_counts(runs) == "engine: 3 lanes / 2 reference"


def test_concurrent_absorbs_lose_no_run():
    # A parallel sweep's dispatch threads, one per pool worker, each absorb
    # the runs their worker reports.
    def absorb_many():
        for _ in range(500):
            absorb_engine_path_counts({"lanes": 1, "reference": 0})

    before = engine_path_counts()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=absorb_many) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert engine_path_counts(since=before) == {"lanes": 4000, "reference": 0}


class _CountingRegistry(obs.Registry):
    """Counts every metric-family resolution the instrumented code makes."""

    def __init__(self):
        super().__init__()
        self.resolutions = 0

    def _family(self, *args, **kwargs):
        self.resolutions += 1
        return super()._family(*args, **kwargs)


@pytest.mark.parametrize("prefetcher", ["none", "sms"])
def test_instrumentation_is_per_run_not_per_chunk(prefetcher, tmp_path, monkeypatch):
    """The engine's instrumentation budget, as a count: a run resolves the
    same number of metric families and writes one ``engine.run`` span record
    whether its trace is one chunk long or six."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv(obs_trace.TRACE_ENV_VAR, "on")
    monkeypatch.delenv("REPRO_TRACE_TELEMETRY", raising=False)
    config = SimulationConfig.small(num_cpus=1)
    resolutions = []
    for records in (200, 1_500):  # one chunk, six chunks
        registry = _CountingRegistry()
        previous = obs.install_registry(registry)
        try:
            workload = make_workload("oltp-db2", num_cpus=1, accesses_per_cpu=records, seed=1)
            engine = SimulationEngine(config, PREFETCHER_CHOICES[prefetcher](), name=prefetcher)
            assert engine.run(workload, chunk_size=256).accesses > 0
        finally:
            obs.install_registry(previous)
        resolutions.append(registry.resolutions)
    assert resolutions[0] == resolutions[1] > 0
    written = [obs_trace.load_trace_file(path) for path in obs_trace.list_trace_files()]
    assert [[record["kind"], record["name"]] for (record,) in written] == [
        ["span", "engine.run"]] * 2


def test_census_is_mirrored_into_the_obs_counters():
    previous = obs.install_registry(obs.Registry())
    try:
        absorb_engine_path_counts({"lanes": 2, "reference": 1})
        metrics = obs.render_json()["metrics"]
    finally:
        obs.install_registry(previous)
    runs = {s["labels"]["path"]: s["value"] for s in metrics["repro_engine_runs_total"]["samples"]}
    assert runs == {"lanes": 2, "reference": 1}
    assert "repro_engine_fallback_total" not in metrics


def test_engine_run_span_carries_path_and_reason(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv(obs_trace.TRACE_ENV_VAR, "on")
    workload = make_workload("oltp-db2", num_cpus=1, accesses_per_cpu=400, seed=1)
    config = SimulationConfig.small(num_cpus=1)
    with obs_trace.span("test.root"):
        SimulationEngine(config, name="fast").run(workload)
        SimulationEngine(config, name="slow").run(workload, lanes=False)
    (path,) = obs_trace.list_trace_files()
    spans = {
        span["attrs"]["engine"]: span["attrs"]
        for span in obs_trace.load_trace_file(path)
        if span.get("kind") == "span" and span["name"] == "engine.run"
    }
    assert spans["fast"]["engine_path"] == "lanes"
    assert spans["slow"]["engine_path"] == "reference"


def _simulate_point(seed, prefetcher="sms"):
    return jobs.run_simulate("oltp-db2", prefetcher=prefetcher, cpus=1,
                             accesses_per_cpu=300, seed=seed)["l1_read_misses"]


def test_parallel_sweep_workers_report_their_runs_to_the_parent():
    before = engine_path_counts()
    sweep_map(_simulate_point, [1, 2, 3], workers=2, prefetcher="ghb")
    runs = engine_path_counts(since=before)
    # Three points, each a baseline plus a GHB run through the boxing adapter.
    assert runs == {"lanes": 6, "reference": 0}


def test_experiment_summary_line_reports_the_census(tmp_path, capsys):
    args = ["experiment", "--figure", "fig10", "--scale", "0.01", "--cpus", "1",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    cold = capsys.readouterr().out.splitlines()[-1]
    assert cold.startswith("sweep cache: 0 hit(s), 4 miss(es), 4 stored")
    assert cold.endswith("; engine: 28 lanes / 0 reference")
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("; engine: 0 lanes / 0 reference")
    assert main(["experiment", "--figure", "fig11", "--scale", "0.01", "--cpus", "1",
                 "--no-cache"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "engine: 33 lanes / 0 reference"


def test_serve_status_exposes_worker_engine_runs(tmp_path):
    previous = obs.install_registry(obs.Registry())
    try:
        with WorkerPool(workers=1, cache_dir=str(tmp_path)) as pool:
            server = SimulationServer(
                pool, socket_path=str(tmp_path / "s.sock"),
                cache=SweepResultCache(directory=tmp_path),
            )
            assert server.status()["engine"]["lanes"] == 0
            for prefetcher in ("sms", "stride"):
                pool.execute(jobs.normalize({
                    "verb": "simulate", "workload": "ocean", "prefetcher": prefetcher,
                    "cpus": 1, "accesses_per_cpu": 300,
                }))
            engine = server.status()["engine"]
        assert engine == {"lanes": 4, "reference": 0}
    finally:
        obs.install_registry(previous)
