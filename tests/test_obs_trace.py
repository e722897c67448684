"""Tests for structured tracing (repro.obs.trace) and its waterfall report.

Unit tests pin the span-tree contract: parent links, sampling semantics
(off default, deterministic ratio, propagated parents always recorded),
ndjson export with torn-tail recovery, and the trace-report
tree building / cross-process re-anchoring / critical path.  The
end-to-end class drives one traced sweep through the real serve stack —
client, asyncio server, forked pool worker, sweep_map, result cache —
and asserts a single connected span tree comes back out.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import tempfile

import pytest

from repro._env import scoped_env
from repro.analysis import trace_report
from repro.obs import trace


@pytest.fixture
def trace_env(tmp_path):
    """REPRO_TRACE=on with a private cache dir; trace state reset around."""
    trace.flush()
    trace._buffer.clear()
    trace._state.stack.clear()
    trace._sample_debt = 0.0
    with scoped_env({"REPRO_TRACE": "on", "REPRO_CACHE_DIR": str(tmp_path)}):
        yield tmp_path
    trace.flush()
    trace._buffer.clear()
    trace._state.stack.clear()


def _spans_by_name(records):
    return {record["name"]: record for record in records if record.get("kind") == "span"}


def _double(value):
    """Module-level so a parallel sweep can pickle it."""
    return 2 * value


class TestSpanTree:
    def test_nested_spans_record_parent_links(self, trace_env):
        with trace.span("outer", {"k": 1}) as outer:
            with trace.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        files = trace.list_trace_files()
        assert len(files) == 1
        spans = _spans_by_name(trace.load_trace_file(files[0]))
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["parent"] == spans["outer"]["span"]
        assert spans["outer"]["trace"] == spans["inner"]["trace"]
        assert spans["outer"]["attrs"] == {"k": 1}
        assert spans["outer"]["dur"] >= spans["inner"]["dur"] >= 0.0
        assert spans["outer"]["status"] == "ok"

    def test_sweep_run_span_counts_cached_and_executed_points(self, trace_env):
        from repro.simulation.result_cache import SweepResultCache
        from repro.simulation.sweep import sweep_map

        cache = SweepResultCache(trace_env / "sweep")
        sweep_map(_double, [1, 2], cache=cache)
        sweep_map(_double, [1, 2, 3, 4], workers=2, cache=cache)
        trace.flush()
        runs = sorted(
            (record for path in trace.list_trace_files()
             for record in trace.load_trace_file(path)
             if record.get("kind") == "span" and record["name"] == "sweep.run"),
            key=lambda record: record["start"],
        )
        assert [run["attrs"] for run in runs] == [
            {"total": 2, "cached": 0, "executed": 2},
            {"total": 4, "cached": 2, "executed": 2},
        ]

    def test_exception_marks_error_and_still_exports(self, trace_env):
        with pytest.raises(RuntimeError):
            with trace.span("doomed"):
                raise RuntimeError("boom")
        spans = _spans_by_name(trace.load_trace_file(trace.list_trace_files()[0]))
        assert spans["doomed"]["status"] == "error"
        assert "RuntimeError" in spans["doomed"]["attrs"]["error"]

    def test_off_by_default_records_nothing(self, tmp_path):
        with scoped_env({"REPRO_TRACE": None, "REPRO_CACHE_DIR": str(tmp_path)}):
            with trace.span("ignored") as span:
                assert not span.recording
                assert span.context is None
            trace.flush()
            assert trace.list_trace_files() == []

    def test_child_only_span_is_noop_without_a_trace(self, trace_env):
        # root=False spans (cache ops, sweep points) never self-root.
        with trace.span("cache.get", root=False) as span:
            # tracing is *on*, but there is no ambient parent
            assert not span.recording
        trace.flush()
        assert trace.list_trace_files() == []

    def test_ratio_sampling_is_deterministic(self, tmp_path):
        with scoped_env({"REPRO_TRACE": "0.5", "REPRO_CACHE_DIR": str(tmp_path)}):
            trace._sample_debt = 0.0
            recorded = []
            for _ in range(6):
                with trace.span("root") as span:
                    recorded.append(span.recording)
        # The debt accumulator records exactly every second root.
        assert recorded == [False, True, False, True, False, True]

    def test_explicit_parent_forces_recording_when_off(self, tmp_path):
        # Propagation honours the originator's sampling decision: a span
        # under a remote parent records even with REPRO_TRACE unset.
        ctx = trace.SpanContext("t-remote", "s-remote")
        with scoped_env({"REPRO_TRACE": None, "REPRO_CACHE_DIR": str(tmp_path)}):
            with trace.span("child", parent=ctx) as span:
                assert span.recording
                assert span.trace_id == "t-remote"
                assert span.parent_id == "s-remote"
            trace.flush()
            spans = _spans_by_name(trace.load_trace_file(trace.trace_path("t-remote")))
            assert spans["child"]["parent"] == "s-remote"

    def test_activate_installs_remote_parent(self, trace_env):
        ctx = trace.SpanContext("t-act", "s-act")
        with trace.activate(ctx):
            assert trace.current() is not None
            with trace.span("under-remote", root=False) as span:
                assert span.trace_id == "t-act"
                assert span.parent_id == "s-act"
        assert trace.current() is None
        spans = _spans_by_name(trace.load_trace_file(trace.trace_path("t-act")))
        assert spans["under-remote"]["parent"] == "s-act"

    def test_activate_none_is_noop(self, trace_env):
        with trace.activate(None) as ctx:
            assert ctx is None
            assert trace.current() is None

    def test_detached_span_stays_off_the_ambient_stack(self, trace_env):
        with trace.span("event-loop", attach=False) as span:
            assert span.recording
            assert trace.current() is None  # not ambient: held across awaits

    def test_emit_attaches_non_span_records(self, trace_env):
        with trace.span("run") as span:
            trace.emit("telemetry", span.context, {"samples": [{"position": 10}]})
        records = trace.load_trace_file(trace.list_trace_files()[0])
        telemetry = [r for r in records if r.get("kind") == "telemetry"]
        assert telemetry and telemetry[0]["parent"] == span.span_id
        trace.emit("telemetry", None, {"samples": []})  # no parent: no-op

    def test_malformed_context_payloads_rejected(self):
        assert trace.SpanContext.from_dict(None) is None
        assert trace.SpanContext.from_dict("nope") is None
        assert trace.SpanContext.from_dict({"trace_id": "t"}) is None
        assert trace.SpanContext.from_dict({"trace_id": 3, "span_id": "s"}) is None
        ctx = trace.SpanContext.from_dict({"trace_id": "t", "span_id": "s"})
        assert (ctx.trace_id, ctx.span_id) == ("t", "s")


class TestTraceFiles:
    def test_torn_tail_recovery(self, trace_env):
        path = trace.trace_path("torn")
        path.parent.mkdir(parents=True, exist_ok=True)
        good = {"kind": "span", "trace": "torn", "span": "a", "parent": None,
                "name": "ok-span", "pid": 1, "start": 0.0, "dur": 1.0, "status": "ok"}
        tail = dict(good, span="b", name="tail-span", parent="a")
        with path.open("wb") as handle:
            handle.write((json.dumps(good) + "\n").encode())
            # A crash tore this append mid-record; the next write landed on
            # the same physical line.
            handle.write(b'{"kind": "span", "trace": "torn", "sp')
            handle.write((json.dumps(tail) + "\n").encode())
        records = trace.load_trace_file(path)
        names = [record["name"] for record in records]
        assert names == ["ok-span", "tail-span"]  # one torn record lost, no more

    def test_unreadable_and_garbage_lines(self, trace_env):
        assert trace.load_trace_file(trace_env / "missing.ndjson") == []
        path = trace.trace_path("garbage")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not json at all\n[1, 2]\n")
        assert trace.load_trace_file(path) == []

    def test_trace_path_sanitizes_ids(self, trace_env):
        path = trace.trace_path("../evil/../../id")
        assert path.parent == trace.trace_dir()
        assert "/evil" not in str(path.name)

    def test_flush_threshold_drains_mid_trace(self, trace_env):
        ctx = trace.SpanContext("t-big", "s-big")
        with trace.activate(ctx):
            for index in range(trace.FLUSH_THRESHOLD + 5):
                with trace.span(f"p{index}", root=False):
                    pass
            # The threshold flush fired while the trace was still open.
            assert trace.trace_path("t-big").exists()


class TestTraceReport:
    def _records(self):
        # parent (pid 1) with a same-pid child and a cross-pid subtree.
        return [
            {"kind": "span", "trace": "t", "span": "a", "parent": None,
             "name": "serve.request", "pid": 1, "start": 100.0, "dur": 1.0,
             "status": "ok"},
            {"kind": "span", "trace": "t", "span": "b", "parent": "a",
             "name": "serve.execute", "pid": 1, "start": 100.1, "dur": 0.8,
             "status": "ok"},
            {"kind": "span", "trace": "t", "span": "c", "parent": "b",
             "name": "worker.execute", "pid": 2, "start": 7.0, "dur": 0.6,
             "status": "ok"},
            {"kind": "span", "trace": "t", "span": "d", "parent": "c",
             "name": "sweep.run", "pid": 2, "start": 7.1, "dur": 0.4,
             "status": "error"},
        ]

    def test_tree_and_cross_process_anchoring(self):
        roots = trace_report.build_tree(self._records())
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "serve.request" and root.abs_start == 0.0
        execute = root.children[0]
        worker = execute.children[0]
        sweep = worker.children[0]
        # pid-2 subtree is re-anchored inside its pid-1 parent...
        assert execute.abs_start <= worker.abs_start
        assert worker.abs_end <= execute.abs_end + 1e-9
        # ...and keeps its own internal offsets exactly.
        assert sweep.abs_start - worker.abs_start == pytest.approx(0.1)

    def test_critical_path_and_slowest(self):
        roots = trace_report.build_tree(self._records())
        path = [node.name for node in trace_report.critical_path(roots[0])]
        assert path == ["serve.request", "serve.execute", "worker.execute", "sweep.run"]
        slowest = trace_report.slowest_spans(roots, limit=2)
        assert [node.name for node in slowest] == ["serve.request", "serve.execute"]

    def test_orphan_spans_become_roots(self):
        records = self._records()[2:]  # parents a/b never reached the file
        roots = trace_report.build_tree(records)
        assert [root.name for root in roots] == ["worker.execute"]

    def test_renderers_and_write_report(self, tmp_path):
        records = self._records()
        telemetry = [{"kind": "telemetry", "trace": "t", "parent": "d", "pid": 2,
                      "interval": 10,
                      "samples": [{"position": 10, "accesses": 10,
                                   "l1_coverage": 0.25, "l2_coverage": 0.3,
                                   "l1_overprediction_rate": 0.0,
                                   "pht_occupancy": 4},
                                  {"position": 20, "accesses": 20,
                                   "l1_coverage": 0.5, "l2_coverage": 0.55,
                                   "l1_overprediction_rate": 0.1,
                                   "pht_occupancy": 6}]}]
        source = tmp_path / "trace-t.ndjson"
        with source.open("w") as handle:
            for record in records + telemetry:
                handle.write(json.dumps(record) + "\n")
        paths = trace_report.write_report(source, out_dir=tmp_path / "out")
        names = [path.name for path in paths]
        assert names == ["trace_report.md", "waterfall.svg", "telemetry.svg"]
        markdown = paths[0].read_text()
        assert "serve.request -> serve.execute -> worker.execute -> sweep.run" in markdown
        assert "| `serve.request` |" in markdown
        assert "| 20 | 20 | 0.5 |" in markdown
        svg = (tmp_path / "out" / "waterfall.svg").read_text()
        assert svg.count("<rect") >= 4  # one bar per span (plus background)
        assert "#bb2a2a" in svg  # the error span is tinted

    def test_json_report_shape(self):
        roots = trace_report.build_tree(self._records())
        payload = json.loads(trace_report.render_json_report("x.ndjson", roots, []))
        assert payload["spans"] == 4
        assert payload["critical_paths"] == [
            ["serve.request", "serve.execute", "worker.execute", "sweep.run"]
        ]

    def test_empty_trace_dir_raises(self, tmp_path):
        with scoped_env({"REPRO_CACHE_DIR": str(tmp_path)}):
            with pytest.raises(FileNotFoundError):
                trace_report.write_report()


class TestTracedServeEndToEnd:
    """One traced sweep through client -> server -> worker -> sweep -> cache."""

    @pytest.fixture
    def socket_dir(self):
        path = tempfile.mkdtemp(prefix="repro-trace-")
        yield path
        shutil.rmtree(path, ignore_errors=True)

    def test_connected_span_tree_across_processes(self, tmp_path, socket_dir):
        from repro.serve import ServeClient, SimulationServer, WorkerPool

        socket_path = f"{socket_dir}/serve.sock"
        cache_dir = tmp_path / "cache"
        env = {
            "REPRO_TRACE": "on",
            "REPRO_CACHE_DIR": str(cache_dir),
            "REPRO_SWEEP_CACHE": "1",   # the worker-side sweep uses the cache
        }
        trace.flush()
        trace._buffer.clear()
        trace._sample_debt = 0.0

        with scoped_env(env):
            async def scenario():
                # Workers fork here, inheriting the scoped environment.
                pool = WorkerPool(workers=1, cache_dir=str(cache_dir))
                from repro.simulation.result_cache import SweepResultCache

                server = SimulationServer(
                    pool, socket_path=socket_path, max_queue=4,
                    cache=SweepResultCache(directory=cache_dir),
                )
                await server.start()
                try:
                    def client_side():
                        # The experiment verb runs the full figure inside the
                        # worker, which routes through sweep_map — so the
                        # trace crosses every layer: serve, pool, sweep,
                        # cache, engine.
                        with ServeClient(socket_path=socket_path) as client:
                            return client.request_raw({
                                "verb": "experiment", "figure": "fig10",
                                "scale": 0.05, "num_cpus": 2,
                            })

                    return await asyncio.get_running_loop().run_in_executor(
                        None, client_side
                    )
                finally:
                    await server.stop()

            reply = asyncio.run(scenario())
            trace.flush()

        assert reply["ok"] is True
        assert "trace" in reply, "the server must echo the trace context"
        trace_id = reply["trace"]["trace_id"]

        with scoped_env({"REPRO_CACHE_DIR": str(cache_dir)}):
            trace_file = trace.trace_path(trace_id)
            assert trace_file.exists(), "client/server/worker spans must flush"
            records = trace.load_trace_file(trace_file)
        spans = [record for record in records if record.get("kind") == "span"]

        # One connected tree: a single trace id, every parent link resolves,
        # exactly one root (the client span), and multiple processes took part.
        assert {span["trace"] for span in spans} == {trace_id}
        by_id = {span["span"]: span for span in spans}
        roots = [span for span in spans if span["parent"] is None]
        assert [span["name"] for span in roots] == ["client.request"]
        for span in spans:
            if span["parent"] is not None:
                assert span["parent"] in by_id, f"dangling parent in {span}"
        assert len({span["pid"] for span in spans}) >= 2

        names = {span["name"] for span in spans}
        for expected in ("client.request", "serve.request", "serve.execute",
                         "worker.execute", "sweep.run", "sweep.point",
                         "engine.run", "cache.put"):
            assert expected in names, f"missing {expected} in {sorted(names)}"

        # Parent chaining across the process boundary.
        serve_request = next(s for s in spans if s["name"] == "serve.request")
        serve_execute = next(s for s in spans if s["name"] == "serve.execute")
        worker_execute = next(s for s in spans if s["name"] == "worker.execute")
        client_request = roots[0]
        assert serve_request["parent"] == client_request["span"]
        assert serve_execute["parent"] == serve_request["span"]
        assert worker_execute["parent"] == serve_execute["span"]

        # The report renders a non-empty critical path from the real tree.
        tree_roots = trace_report.build_tree(spans)
        assert len(tree_roots) == 1
        path = trace_report.critical_path(tree_roots[0])
        # The last-finishing child of serve.request is the front-end
        # cache.put (it stores the worker's result after serve.execute
        # returns), so the path descends client -> serve -> cache.put.
        assert len(path) >= 3
        assert path[0].name == "client.request"
        markdown = trace_report.render_markdown(trace_file, tree_roots, [])
        assert "client.request" in markdown
