"""Tests for repro.serve.jobs: validation, digests, wire conversion."""

from __future__ import annotations

import enum
import functools
import gc
import json
import pickle
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.coverage import CoverageReport
from repro.analysis.reporting import ResultTable
from repro.experiments import fig07_pht_storage as fig07
from repro.experiments import fig09_training_storage as fig09
from repro.experiments import fig10_region_size as fig10
from repro.experiments import fig11_ghb as fig11
from repro.figures import figure_module
from repro.serve import jobs, protocol
from repro.serve.protocol import BAD_REQUEST, ProtocolError
from repro.simulation.breakdown import BreakdownCategory, ExecutionBreakdown
from repro.simulation.engine import engine_path_counts
from repro.simulation.result_cache import SweepResultCache
from repro.simulation.sampling import ConfidenceInterval
from repro.workloads.base import SyntheticWorkload
from repro.workloads.names import APPLICATION_NAMES, CATEGORY_REPRESENTATIVE


class TestNormalize:
    def test_simulate_defaults_applied(self):
        spec = jobs.normalize({"verb": "simulate", "workload": "oltp-db2"})
        assert spec == {
            "verb": "simulate",
            "workload": "oltp-db2",
            "prefetcher": "sms",
            "cpus": 4,
            "accesses_per_cpu": 10_000,
            "seed": 1,
        }

    def test_id_is_not_a_parameter(self):
        spec = jobs.normalize({"verb": "status", "id": 42})
        assert spec == {"verb": "status"}

    @pytest.mark.parametrize(
        "request_obj",
        [
            {"verb": "warp"},
            {"verb": "simulate"},  # missing workload
            {"verb": "simulate", "workload": "spec2017"},
            {"verb": "simulate", "workload": "oltp-db2", "cpus": 0},
            {"verb": "simulate", "workload": "oltp-db2", "cpus": True},
            {"verb": "simulate", "workload": "oltp-db2", "frobnicate": 1},
            {"verb": "sweep", "figure": "fig99", "item": "OLTP"},
            {"verb": "sweep", "figure": "fig10", "item": "oltp-db2"},  # app, not category
            {"verb": "sweep", "figure": "fig10", "item": "OLTP", "scale": 0},
            {"verb": "sweep", "figure": "fig10", "item": "OLTP", "scale": "big"},
            {"verb": "experiment", "figure": "tab01"},
            {"verb": "status", "extra": 1},
        ],
    )
    def test_invalid_requests_rejected(self, request_obj):
        with pytest.raises(ProtocolError) as excinfo:
            jobs.normalize(request_obj)
        assert excinfo.value.code == BAD_REQUEST

    @pytest.mark.parametrize("name, value", [("pht_backend", "array"), ("pht_shards", 2)])
    def test_retired_pht_parameter_is_named_in_the_reply(self, name, value):
        with pytest.raises(ProtocolError) as excinfo:
            jobs.normalize({"verb": "simulate", "workload": "oltp-db2", name: value})
        assert excinfo.value.code == BAD_REQUEST
        assert "unknown parameter" in str(excinfo.value)
        assert name in str(excinfo.value)

    def test_sweep_accepts_applications_for_application_figures(self):
        spec = jobs.normalize({"verb": "sweep", "figure": "fig11", "item": "oltp-db2"})
        assert spec["item"] == "oltp-db2"
        assert spec["scale"] == 1.0
        assert isinstance(spec["scale"], float)

    def test_scale_normalized_to_float(self):
        # int and float spellings of the same scale must produce one digest.
        a = jobs.normalize({"verb": "sweep", "figure": "fig10", "item": "OLTP", "scale": 1})
        b = jobs.normalize({"verb": "sweep", "figure": "fig10", "item": "OLTP", "scale": 1.0})
        assert a == b


class _Captured(Exception):
    """Stops a figure's ``run()`` once it has handed its tasks to ``sweep_map``."""


class TestDigestParity:
    """Service job identity == the sweep cache's task identity."""

    @staticmethod
    def _assert_run_hands_sweep_map_the_sweep_verb_tasks(tmp_path, monkeypatch, figure, module):
        # Capture the call the CLI path makes — module.run() -> sweep_map —
        # and require, item by item, the task the service resolves a sweep
        # request to: the same (fn, args, kwargs) and the same digest.
        calls = []

        def capture(fn, items, workers=None, cache=None, **fixed_kwargs):
            calls.append((fn, list(items), fixed_kwargs))
            raise _Captured

        monkeypatch.setattr(module, "sweep_map", capture)
        with pytest.raises(_Captured):
            module.run(scale=0.1, num_cpus=2)
        (fn, items, fixed_kwargs), = calls
        assert items == list(jobs.SWEEPS[figure].items)
        cache = SweepResultCache(tmp_path)
        for item in items:
            spec = jobs.normalize(
                {"verb": "sweep", "figure": figure, "item": item, "scale": 0.1, "num_cpus": 2}
            )
            job = jobs.job_for(spec)
            assert (job.fn, job.args, job.kwargs) == (fn, (item,), fixed_kwargs)
            assert jobs.digest_for(spec, cache) == cache.fingerprint(fn, (item,), fixed_kwargs)

    @pytest.mark.parametrize("figure", sorted(jobs.SWEEPS))
    def test_run_hands_sweep_map_the_tasks_the_sweep_verb_builds(
        self, tmp_path, monkeypatch, figure
    ):
        self._assert_run_hands_sweep_map_the_sweep_verb_tasks(
            tmp_path, monkeypatch, figure, figure_module(figure)
        )

    @pytest.mark.parametrize("figure, module", [("fig07", fig07), ("fig09", fig09)])
    def test_storage_sweep_digest_matches_the_task_run_builds(
        self, tmp_path, monkeypatch, figure, module
    ):
        # The storage figures sweep list-valued defaults (PHT / training
        # sizes); the list objects themselves enter the digest.
        self._assert_run_hands_sweep_map_the_sweep_verb_tasks(
            tmp_path, monkeypatch, figure, module
        )

    def test_sweep_digest_matches_run_sweep_task(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        spec = jobs.normalize(
            {"verb": "sweep", "figure": "fig10", "item": "OLTP", "scale": 0.05, "num_cpus": 2}
        )
        served = jobs.digest_for(spec, cache)
        # The exact task shape fig10.run() hands to sweep_map, written out
        # here: item positional, figure defaults as kwargs.
        direct = cache.fingerprint(
            fig10.run_category,
            ("OLTP",),
            {"region_sizes": fig10.REGION_SIZES, "scale": 0.05, "num_cpus": 2},
        )
        assert served is not None
        assert served == direct

    def test_application_figure_digest_parity(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        spec = jobs.normalize(
            {"verb": "sweep", "figure": "fig11", "item": "web-apache", "scale": 0.1, "num_cpus": 2}
        )
        direct = cache.fingerprint(
            fig11.run_application,
            ("web-apache",),
            {"configurations": fig11.CONFIGURATIONS, "scale": 0.1, "num_cpus": 2},
        )
        assert jobs.digest_for(spec, cache) == direct

    def test_distinct_items_distinct_digests(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        specs = [
            jobs.normalize({"verb": "sweep", "figure": "fig10", "item": item, "scale": 0.05})
            for item in ("OLTP", "DSS")
        ]
        digests = {jobs.digest_for(spec, cache) for spec in specs}
        assert len(digests) == 2

    def test_every_sweep_figure_has_a_stable_digest(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        for figure, sweep in jobs.SWEEPS.items():
            item = sweep.items[0]
            spec = jobs.normalize({"verb": "sweep", "figure": figure, "item": item})
            assert jobs.digest_for(spec, cache) is not None, figure

    def test_experiment_digest_stable(self, tmp_path):
        cache = SweepResultCache(tmp_path)
        spec = jobs.normalize({"verb": "experiment", "figure": "fig10", "scale": 0.05})
        assert jobs.digest_for(spec, cache) == jobs.digest_for(spec, cache)


class _Colour(enum.Enum):
    RED = "red"


class _Level(str, enum.Enum):
    L1 = "l1"


class _Ways(int, enum.Enum):
    TWO = 2


class _Point(NamedTuple):
    x: int
    y: float


#: A fixed ``simulate`` result, as ``run_simulate`` shapes one.
_SIMULATE_RAW = {
    "workload": "oltp-db2",
    "prefetcher": "sms",
    "cpus": 2,
    "accesses": 3000,
    "baseline_l1_read_misses": 1618,
    "l1_read_misses": 856,
    "baseline_offchip_read_misses": 1275,
    "offchip_read_misses": 664,
    "l1_coverage": 0.474524248004911,
    "offchip_coverage": 0.4755134281200632,
    "overpredictions": 0.12216083486801718,
    "speedup": 1.116948736955276,
}


class TestJsonify:
    def test_scalars_and_containers(self):
        value = {"a": [1, 2.5, None, True, "s"], "b": (3, 4)}
        assert jobs.jsonify(value) == {"a": [1, 2.5, None, True, "s"], "b": [3, 4]}

    def test_cache_hit_reply_bytes_of_a_simulate_result(self):
        wire = protocol.encode(protocol.ok_response(jobs.jsonify(_SIMULATE_RAW), cached=True))
        assert wire == (
            b'{"cached": true, "coalesced": false, "ok": true, "result": {'
            b'"accesses": 3000, "baseline_l1_read_misses": 1618, '
            b'"baseline_offchip_read_misses": 1275, "cpus": 2, '
            b'"l1_coverage": 0.474524248004911, "l1_read_misses": 856, '
            b'"offchip_coverage": 0.4755134281200632, "offchip_read_misses": 664, '
            b'"overpredictions": 0.12216083486801718, "prefetcher": "sms", '
            b'"speedup": 1.116948736955276, "workload": "oltp-db2"}}\n'
        )

    def test_bool_int_and_float_stay_apart(self):
        # True == 1 == 1.0, but they are three different JSON tokens and the
        # serve_mix sim_digest hashes the encoded reply.
        wire = jobs.jsonify([True, 1, 1.0, False, 0, 0.0])
        assert [type(item) for item in wire] == [bool, int, float, bool, int, float]
        assert json.dumps(wire) == "[true, 1, 1.0, false, 0, 0.0]"

    def test_mixin_enum_members_go_out_as_plain_values(self):
        # A str- / int-mixin member *is* a str / int; it must still leave as
        # its value, of the exact builtin type, never as the member.
        wire = jobs.jsonify({"level": _Level.L1, "ways": [_Ways.TWO]})
        assert wire == {"level": "l1", "ways": [2]}
        assert type(wire["level"]) is str and type(wire["ways"][0]) is int

    def test_int_and_tuple_keys_stringified(self):
        assert jobs.jsonify({128: 0.5, ("pc", None): 1.0}) == {"128": 0.5, "pc/None": 1.0}

    def test_enum_key_and_value(self):
        assert jobs.jsonify({_Colour.RED: [_Colour.RED]}) == {"red": ["red"]}

    def test_coverage_reports_go_out_as_field_dicts(self):
        # The `sweep fig06 / fig08 / fig11` reply is {scheme: CoverageReport}:
        # clients read the fields by name, whatever the class is made of.
        reports = {
            "PC+offset": CoverageReport(
                name="PC+offset", level="L1", baseline_misses=1000,
                covered=580, uncovered=420, overpredictions=130,
            ),
            "address": CoverageReport("address", "L2", 400, 100, 300, 0),
        }
        assert jobs.jsonify(reports) == {
            "PC+offset": {
                "name": "PC+offset", "level": "L1", "baseline_misses": 1000,
                "covered": 580, "uncovered": 420, "overpredictions": 130,
            },
            "address": {
                "name": "address", "level": "L2", "baseline_misses": 400,
                "covered": 100, "uncovered": 300, "overpredictions": 0,
            },
        }
        # ...also when the report sits inside a list, not only as a dict value.
        assert jobs.jsonify({"points": [reports["address"]]}) == {
            "points": [{
                "name": "address", "level": "L2", "baseline_misses": 400,
                "covered": 100, "uncovered": 300, "overpredictions": 0,
            }]
        }

    def test_fig12_and_fig13_results_go_out_as_field_dicts(self):
        # `sweep fig12` replies with a ConfidenceInterval, `sweep fig13` with a
        # (base, SMS) pair of ExecutionBreakdowns whose one dict field is
        # keyed by an enum; both are read by field name on the other side.
        interval = ConfidenceInterval(mean=1.37, half_width=0.05)
        assert jobs.jsonify({"oltp-db2": interval}) == {
            "oltp-db2": {"mean": 1.37, "half_width": 0.05}
        }
        base = ExecutionBreakdown(instructions=1000)
        base.add(BreakdownCategory.USER_BUSY, 400.0)
        base.add(BreakdownCategory.OFFCHIP_READ, 600.0)
        sms = ExecutionBreakdown(instructions=1000)
        sms.add(BreakdownCategory.USER_BUSY, 400.0)
        sms.add(BreakdownCategory.OFFCHIP_READ, 250.5)
        assert jobs.jsonify((base, sms)) == [
            {"cycles": {"user_busy": 400.0, "offchip_read": 600.0}, "instructions": 1000},
            {"cycles": {"user_busy": 400.0, "offchip_read": 250.5}, "instructions": 1000},
        ]

    def test_result_table_includes_rendered_text(self):
        table = ResultTable(title="t", headers=["k", "v"])
        table.add_row("a", 1)
        wire = jobs.jsonify(table)
        assert wire["headers"] == ["k", "v"]
        assert wire["rows"] == [["a", 1]]
        assert wire["text"] == table.to_text()

    def test_round_trips_through_json(self):
        wire = jobs.jsonify({64: _Point(1, 2.0)})
        assert json.loads(json.dumps(wire, sort_keys=True)) == wire

    def test_unconvertible_rejected(self):
        with pytest.raises(TypeError):
            jobs.jsonify(object())


_ABSENT = object()
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


class TestCachedReply:
    @settings(max_examples=300, deadline=None)
    @given(
        result=_JSON,
        request_id=st.just(_ABSENT) | _JSON,
        trace=st.just(_ABSENT) | st.dictionaries(st.text(), st.text(), max_size=2) | st.text(),
    )
    @example(result=jobs.jsonify(_SIMULATE_RAW), request_id=_ABSENT, trace=_ABSENT)
    @example(result=1, request_id=None, trace={"trace_id": "t", "span_id": "s"})
    @example(result=[], request_id=-7, trace="junk")
    @example(result={}, request_id='say "\u00e9\U0001f600" \\ \n', trace=_ABSENT)
    @example(result={"b": 1, "a": 2}, request_id=[{"b": 1, "a": [2]}], trace=_ABSENT)
    @example(result=None, request_id={"z": {"y": 1, "x": 2}, "a": 0}, trace={"b": "1", "a": "2"})
    def test_the_line_equals_the_encoded_ok_response(self, result, request_id, trace):
        # Built the way the server sees a request: fields read off a decoded
        # line whose keys are in the client's order, so an absent id or
        # trace reads as None.
        request = {"verb": "simulate"}
        if request_id is not _ABSENT:
            request["id"] = request_id
        if trace is not _ABSENT:
            request[protocol.TRACE_FIELD] = trace
        payload = protocol.decode_line((json.dumps(request) + "\n").encode())
        reply = protocol.ok_response(result, payload.get("id"), cached=True)
        if payload.get(protocol.TRACE_FIELD) is not None:
            reply[protocol.TRACE_FIELD] = payload[protocol.TRACE_FIELD]
        line = protocol.cached_reply(
            json.dumps(result, sort_keys=True), payload.get("id"), payload.get(protocol.TRACE_FIELD)
        )
        assert line == protocol.encode(reply)


class TestRunSimulate:
    def test_deterministic_and_jsonable(self):
        kwargs = dict(prefetcher="sms", cpus=2, accesses_per_cpu=1500, seed=1)
        first = jobs.run_simulate("web-apache", **kwargs)
        second = jobs.run_simulate("web-apache", **kwargs)
        assert first == second
        assert json.dumps(first, sort_keys=True)  # all values JSON-able
        assert 0.0 <= first["l1_coverage"] <= 1.0
        assert first["speedup"] > 0

    def test_reply_of_one_seeded_request_is_pinned(self):
        reply = jobs.run_simulate(
            "oltp-db2", prefetcher="sms", cpus=2, accesses_per_cpu=1500, seed=5
        )
        assert jobs.jsonify(reply) == reply
        assert list(reply.items()) == [
            ("workload", "oltp-db2"),
            ("prefetcher", "sms"),
            ("cpus", 2),
            ("accesses", 3000),
            ("baseline_l1_read_misses", 1618),
            ("l1_read_misses", 856),
            ("baseline_offchip_read_misses", 1275),
            ("offchip_read_misses", 664),
            ("l1_coverage", 0.474524248004911),
            ("offchip_coverage", 0.4755134281200632),
            ("overpredictions", 0.12216083486801718),
            ("speedup", 1.116948736955276),
        ]

    def test_workload_is_generated_once_and_both_runs_take_lanes(self, monkeypatch):
        generations = []
        original = SyntheticWorkload.iter_lane_chunks

        def counting_chunks(self, chunk_size):
            generations.append(self.name)
            return original(self, chunk_size)

        def boxed(self):
            raise AssertionError("a simulate job must not box the generated trace")

        monkeypatch.setattr(SyntheticWorkload, "iter_lane_chunks", counting_chunks)
        monkeypatch.setattr(SyntheticWorkload, "__iter__", boxed)
        before = engine_path_counts()
        jobs.run_simulate("oltp-db2", prefetcher="sms", cpus=2, accesses_per_cpu=600, seed=3)
        assert generations == ["oltp-db2"]  # baseline + prefetcher replay one LaneTrace
        runs = engine_path_counts(since=before)
        assert (runs["lanes"], runs["reference"]) == (2, 0)

    @pytest.mark.parametrize("lanes", [1, 0])
    @pytest.mark.parametrize("prefetcher", ["sms", "ghb", "none"])
    def test_a_finished_job_leaves_no_engine_behind(self, prefetcher, lanes, monkeypatch):
        """A finished run is freed when it goes out of scope — inside the
        request, without the cycle collector: the eviction listeners of the
        caches an engine owns hold the engine (and the memory system) weakly,
        so there is no cycle engine -> memory -> cache listeners -> engine.
        Jobs only ever take the lane loop; ``0`` steers them onto the
        reference loop, whose engines must go the same way."""
        from repro.memory.cache import SetAssociativeCache
        from repro.simulation.engine import SimulationEngine

        if not lanes:
            monkeypatch.setattr(
                SimulationEngine, "run",
                functools.partialmethod(SimulationEngine.run, lanes=False),
            )

        def live_engine_parts():
            return sum(
                isinstance(obj, (SimulationEngine, SetAssociativeCache))
                for obj in gc.get_objects()
            )

        spec = jobs.normalize({
            "verb": "simulate", "workload": "oltp-db2", "prefetcher": prefetcher,
            "cpus": 2, "accesses_per_cpu": 600,
        })
        gc.collect()
        before = live_engine_parts()
        gc.disable()
        try:
            result = jobs.execute_spec(spec)
            after = live_engine_parts()
        finally:
            gc.enable()
        assert result["workload"] == "oltp-db2"
        assert after == before

    def test_execute_spec_equals_direct_call(self):
        spec = jobs.normalize(
            {"verb": "simulate", "workload": "web-apache", "cpus": 2, "accesses_per_cpu": 1500}
        )
        assert jobs.execute_spec(spec) == jobs.run_simulate(
            "web-apache", prefetcher="sms", cpus=2, accesses_per_cpu=1500, seed=1
        )


@pytest.mark.parametrize(
    "request_obj",
    [
        {"verb": "simulate", "workload": "oltp-db2", "cpus": 2, "accesses_per_cpu": 600},
        # One fig06 point: a Dict[str, CoverageReport].
        {"verb": "sweep", "figure": "fig06", "item": "OLTP", "scale": 0.02, "num_cpus": 2},
        # The largest of the ten experiment tables (2,359 B when measured).
        {"verb": "experiment", "figure": "fig05", "scale": 0.02, "num_cpus": 2},
    ],
    ids=lambda request_obj: request_obj["verb"],
)
def test_cacheable_results_are_small(request_obj):
    """The server unpickles a cache hit on its event loop thread
    (``SimulationServer._dispatch``), which is only sound while every verb's
    result is summary-sized.  A verb that starts returning per-record data
    fails here, where that decision can be revisited, instead of silently
    stalling every connection."""
    raw = jobs.execute_spec(jobs.normalize(request_obj))
    assert len(pickle.dumps(raw, pickle.HIGHEST_PROTOCOL)) < 16 * 1024


class TestRegistries:
    def test_sweep_items_match_domains(self):
        assert jobs.SWEEPS["fig10"].items == tuple(CATEGORY_REPRESENTATIVE)
        assert jobs.SWEEPS["fig12"].items == tuple(APPLICATION_NAMES)

    def test_pool_verbs_resolve_and_others_do_not(self):
        for request in (
            {"verb": "simulate", "workload": "oltp-db2"},
            {"verb": "sweep", "figure": "fig11", "item": "oltp-db2"},
            {"verb": "experiment", "figure": "fig10"},
        ):
            assert jobs.job_for(jobs.normalize(request)).key == request["verb"]
        with pytest.raises(ValueError):
            jobs.job_for({"verb": "status"})
