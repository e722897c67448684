"""Tests for repro.obs: registry semantics, rendering, and the HTTP gateway.

The registry tests use private Registry instances; the end-to-end test
installs a fresh registry, boots the ndjson service with the HTTP gateway
attached, drives a real sweep through the Unix socket, and asserts the
scraped ``/metrics`` document reflects it.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import tempfile
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro._env import scoped_env
from repro.obs.gateway import MetricsGateway
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    OVERFLOW_LABEL,
    MetricFamily,
    Registry,
)
from repro.serve import SimulationServer, WorkerPool
from repro.simulation.result_cache import SweepResultCache

# --------------------------------------------------------------------------- #
# Counter / gauge semantics
# --------------------------------------------------------------------------- #
class TestCountersAndGauges:
    def test_counter_increments(self):
        reg = Registry()
        c = reg.counter("t_total", "help", labels=("verb",))
        c.labels("simulate").inc()
        c.labels("simulate").inc(3)
        c.labels("sweep").inc()
        assert c.labels("simulate").value == 4
        assert c.labels("sweep").value == 1

    def test_unlabeled_passthrough(self):
        reg = Registry()
        c = reg.counter("t_total")
        c.inc()
        c.inc(2)
        assert c.value == 3

    def test_gauge_set_and_dec(self):
        reg = Registry()
        g = reg.gauge("t_depth")
        g.set(7)
        g.dec(2)
        g.inc()
        assert g.value == 6

    def test_sync_to_is_monotonic(self):
        reg = Registry()
        c = reg.counter("t_total")
        c.sync_to(5)
        c.sync_to(3)  # an older snapshot must never rewind the mirror
        c.sync_to(9)
        assert c.value == 9

    def test_registration_is_idempotent(self):
        reg = Registry()
        first = reg.counter("t_total", "help", labels=("verb",))
        again = reg.counter("t_total", "help", labels=("verb",))
        assert first is again

    def test_conflicting_reregistration_raises(self):
        reg = Registry()
        reg.counter("t_total", labels=("verb",))
        with pytest.raises(ValueError):
            reg.gauge("t_total", labels=("verb",))
        with pytest.raises(ValueError):
            reg.counter("t_total", labels=("other",))

    @pytest.mark.parametrize(
        "reregister, message",
        [
            (lambda reg: reg.gauge("t_seconds", labels=("verb",)),
             r"different signature: \('histogram', \('verb',\), \(0\.001, .*\) "
             r"vs \('gauge', \('verb',\), None\)"),
            (lambda reg: reg.histogram("t_seconds", labels=("other",)),
             r"different signature: .* vs \('histogram', \('other',\), \(0\.001, "),
            (lambda reg: reg.histogram("t_seconds", labels=("verb",), buckets=(1.0, 0.5)),
             r"different signature: .* vs \('histogram', \('verb',\), \(0\.5, 1\.0\)\)"),
            (lambda reg: reg.histogram("t_seconds", labels=("verb",), buckets=()),
             "histogram needs at least one bucket bound"),
            (lambda reg: reg._family("t_seconds", "counter", "", ("verb",), buckets=(1.0,)),
             "counter metrics do not take buckets"),
            (lambda reg: reg._family("t_seconds", "summary", "", ("verb",)),
             "unknown metric kind 'summary'"),
            (lambda reg: reg.histogram("t_seconds", labels=("verb",), max_label_sets=0),
             "max_label_sets must be positive"),
        ],
        ids=["kind", "label-names", "buckets", "empty-buckets", "buckets-on-a-counter",
             "unknown-kind", "max-label-sets"],
    )
    def test_each_way_a_reregistration_can_be_wrong(self, reregister, message):
        reg = Registry()
        family = reg.histogram("t_seconds", labels=("verb",))
        with pytest.raises(ValueError, match=message):
            reregister(reg)
        assert reg.families() == [family]

    def test_default_buckets_spelled_out_resolve_to_the_same_family(self):
        reg = Registry()
        first = reg.histogram("t_seconds", labels=("verb",))
        assert reg.histogram(
            "t_seconds", labels=("verb",), buckets=DEFAULT_LATENCY_BUCKETS
        ) is first

    def test_wrong_label_arity_raises(self):
        reg = Registry()
        c = reg.counter("t_total", labels=("verb",))
        with pytest.raises(ValueError):
            c.labels("a", "b")


# --------------------------------------------------------------------------- #
# Histograms
# --------------------------------------------------------------------------- #
class TestHistograms:
    def test_bucket_bounds_are_inclusive_upper(self):
        reg = Registry()
        h = reg.histogram("t_seconds", buckets=(0.01, 0.1, 1.0))
        h.observe(0.01)   # lands in le=0.01 (inclusive)
        h.observe(0.05)   # le=0.1
        h.observe(2.0)    # +Inf only
        snap = h.labels().histogram_snapshot()
        assert snap["buckets"] == {"0.01": 1, "0.1": 2, "1": 2, "+Inf": 3}
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(2.06)


# --------------------------------------------------------------------------- #
# Cardinality cap
# --------------------------------------------------------------------------- #
class TestCardinalityCap:
    def test_overflow_collapses_into_other(self):
        reg = Registry()
        c = reg.counter("t_total", labels=("key",), max_label_sets=2)
        c.labels("a").inc()
        c.labels("b").inc()
        c.labels("c").inc(5)  # over the cap: aggregated, not dropped
        c.labels("d").inc(2)
        assert c.labels("a").value == 1
        assert c.labels(OVERFLOW_LABEL).value == 7
        assert c.dropped_label_sets == 2
        rendered = reg.render_prometheus()
        assert 'key="_other"} 7' in rendered

    def test_existing_children_unaffected_by_cap(self):
        reg = Registry()
        c = reg.counter("t_total", labels=("key",), max_label_sets=1)
        c.labels("a").inc()
        c.labels("b").inc()
        assert c.labels("a").value == 1  # still routable after the cap trips


# --------------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------------- #
class TestPrometheusRendering:
    def test_text_format_shape(self):
        reg = Registry()
        reg.counter("t_total", "requests", labels=("verb",)).labels("sweep").inc(2)
        text = reg.render_prometheus()
        assert "# HELP t_total requests" in text
        assert "# TYPE t_total counter" in text
        assert 't_total{verb="sweep"} 2' in text
        assert text.endswith("\n")

    def test_label_value_escaping(self):
        reg = Registry()
        reg.counter("t_total", labels=("path",)).labels('a\\b"c\nd').inc()
        text = reg.render_prometheus()
        assert 'path="a\\\\b\\"c\\nd"' in text

    def test_help_escaping(self):
        reg = Registry()
        reg.counter("t_total", "line one\nline two").inc()
        assert "# HELP t_total line one\\nline two" in reg.render_prometheus()

    def test_histogram_text_format(self):
        reg = Registry()
        reg.histogram("t_seconds", "latency", buckets=(0.5, 1.0)).observe(0.7)
        text = reg.render_prometheus()
        assert 't_seconds_bucket{le="0.5"} 0' in text
        assert 't_seconds_bucket{le="1"} 1' in text
        assert 't_seconds_bucket{le="+Inf"} 1' in text
        assert "t_seconds_count 1" in text
        assert "t_seconds_sum 0.7" in text

    def test_json_rendering(self):
        reg = Registry()
        reg.counter("t_total", "requests", labels=("verb",)).labels("sweep").inc()
        payload = reg.render_json()
        family = payload["metrics"]["t_total"]
        assert family["kind"] == "counter"
        assert family["samples"] == [{"labels": {"verb": "sweep"}, "value": 1}]
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_collector_runs_at_render_time(self):
        reg = Registry()
        depth = reg.gauge("t_depth")
        reg.add_collector(lambda: depth.set(4))

        def broken():
            raise RuntimeError("one broken collector must not take /metrics down")

        reg.add_collector(broken)
        assert "t_depth 4" in reg.render_prometheus()


# --------------------------------------------------------------------------- #
# Concurrency
# --------------------------------------------------------------------------- #
class TestConcurrency:
    def test_parallel_increments_are_exact(self):
        reg = Registry()
        c = reg.counter("t_total", labels=("who",))
        h = reg.histogram("t_seconds", buckets=(1.0,))

        def hammer():
            child = c.labels("worker")
            for _ in range(1000):
                child.inc()
                h.observe(0.5)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.labels("worker").value == 8000
        assert h.labels().count == 8000


# --------------------------------------------------------------------------- #
# Active-registry plumbing
# --------------------------------------------------------------------------- #
class TestActiveRegistry:
    def test_install_and_restore(self):
        fresh = Registry()
        previous = obs.install_registry(fresh)
        try:
            obs.counter("t_total").inc()
            assert fresh.counter("t_total").value == 1
        finally:
            obs.install_registry(previous)
        assert obs.get_registry() is previous

    def test_note_cache_op_derives_hit_ratio(self):
        previous = obs.install_registry(Registry())
        try:
            obs.note_cache_op("sweep", "hit")
            obs.note_cache_op("sweep", "hit")
            obs.note_cache_op("sweep", "miss")
            obs.note_cache_op("sweep", "store")  # not a lookup: ratio unchanged
            reg = obs.get_registry()
            ratio = reg.gauge(
                "repro_cache_hit_ratio", labels=("cache",)
            ).labels("sweep").value
            assert ratio == pytest.approx(2 / 3, abs=1e-6)
        finally:
            obs.install_registry(previous)

    def test_span_records_into_span_histogram(self, tmp_path):
        previous = obs.install_registry(Registry())
        try:
            with scoped_env({"REPRO_TRACE": "on", "REPRO_CACHE_DIR": str(tmp_path)}):
                with obs.trace.span("unit.test"):
                    pass
                with pytest.raises(RuntimeError):
                    with obs.trace.span("unit.test"):
                        raise RuntimeError("error latencies must not be invisible")
            family = obs.get_registry().histogram(
                "repro_span_seconds", labels=("span",)
            )
            assert family.labels("unit.test").count == 2
            assert family.labels("unit.test").sum >= 0
        finally:
            obs.install_registry(previous)

    def test_resolving_an_existing_family_builds_nothing(self, tmp_path, monkeypatch):
        """``note_cache_op`` and every finished span resolve their families by
        name on each call; after the first call that is a lookup."""
        built = []
        original = MetricFamily.__init__

        def counting_init(self, name, *args, **kwargs):
            built.append(name)
            original(self, name, *args, **kwargs)

        monkeypatch.setattr(MetricFamily, "__init__", counting_init)
        previous = obs.install_registry(Registry())
        try:
            obs.note_cache_op("sweep", "hit")
            assert sorted(built) == ["repro_cache_hit_ratio", "repro_cache_ops_total"]
            for _ in range(99):
                obs.note_cache_op("sweep", "hit")
            assert len(built) == 2
            with scoped_env({"REPRO_TRACE": "on", "REPRO_CACHE_DIR": str(tmp_path)}):
                for _ in range(100):
                    with obs.trace.span("unit.test"):
                        pass
            assert built[2:] == ["repro_span_seconds"]
            spans = obs.get_registry().histogram("repro_span_seconds", labels=("span",))
            assert spans.labels("unit.test").count == 100
        finally:
            obs.install_registry(previous)


# --------------------------------------------------------------------------- #
# HTTP gateway end-to-end
# --------------------------------------------------------------------------- #
SWEEP_OLTP = {"verb": "sweep", "figure": "fig10", "item": "OLTP",
              "scale": 0.05, "num_cpus": 2}


@pytest.fixture
def socket_dir():
    # Private dir in the system tempdir: pytest's tmp_path can exceed the
    # ~108-byte AF_UNIX path limit.
    path = tempfile.mkdtemp(prefix="repro-obs-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


async def _ask(socket_path: str, payload: dict) -> dict:
    reader, writer = await asyncio.open_unix_connection(socket_path)
    try:
        writer.write((json.dumps(payload) + "\n").encode())
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()


def _http_get(url: str, accept: str = ""):
    headers = {"Accept": accept} if accept else {}
    request = urllib.request.Request(url, headers=headers)
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.headers.get("Content-Type", ""), \
            response.read().decode("utf-8")


async def _http_get_async(url: str, accept: str = ""):
    loop = asyncio.get_event_loop()
    return await loop.run_in_executor(None, lambda: _http_get(url, accept))


class TestGatewayEndToEnd:
    def test_metrics_reflect_served_traffic(self, tmp_path, socket_dir):
        socket_path = f"{socket_dir}/serve.sock"
        previous = obs.install_registry(Registry())

        async def scenario():
            pool = WorkerPool(workers=1, cache_dir=str(tmp_path / "cache"))
            server = SimulationServer(
                pool,
                socket_path=socket_path,
                max_queue=4,
                cache=SweepResultCache(directory=tmp_path / "cache"),
                http_port=0,  # ephemeral
            )
            await server.start()
            try:
                base = server.gateway.address
                first = await _ask(socket_path, SWEEP_OLTP)
                warm = await _ask(socket_path, SWEEP_OLTP)
                status_verb = (await _ask(socket_path, {"verb": "status"}))["result"]
                health = await _http_get_async(base + "/healthz")
                text = await _http_get_async(base + "/metrics")
                as_json = await _http_get_async(base + "/metrics?format=json")
                via_accept = await _http_get_async(
                    base + "/metrics", accept="application/json")
                http_status = await _http_get_async(base + "/status")
                return first, warm, status_verb, health, text, as_json, \
                    via_accept, http_status
            finally:
                await server.stop()

        try:
            (first, warm, status_verb, health, text, as_json,
             via_accept, http_status) = asyncio.run(scenario())
        finally:
            obs.install_registry(previous)

        assert first["ok"] and warm["ok"] and warm["cached"]

        # /healthz is alive and cheap.
        status, content_type, body = health
        assert status == 200 and json.loads(body)["status"] == "ok"

        # Prometheus text: the sweep traffic is visible.
        status, content_type, body = text
        assert status == 200 and content_type.startswith("text/plain")
        assert 'repro_serve_requests_total{verb="sweep"} 2' in body
        assert 'repro_serve_requests_total{verb="status"} 1' in body
        assert 'repro_serve_request_seconds_count{verb="sweep"} 2' in body
        assert 'repro_serve_outcomes_total{outcome="cache_hits"} 1' in body
        assert "repro_serve_pool_workers 1" in body
        assert 'repro_cache_ops_total{cache="sweep",op="hit"} 1' in body

        # JSON rendering, via query string and via Accept header.
        for status, content_type, body in (as_json, via_accept):
            assert status == 200 and content_type.startswith("application/json")
            metrics = json.loads(body)["metrics"]
            assert "repro_serve_requests_total" in metrics

        # /status mirrors the ndjson status verb (modulo moving numbers).
        status, _, body = http_status
        assert status == 200
        http_doc = json.loads(body)
        assert http_doc["address"] == status_verb["address"]
        assert set(http_doc["counters"]) == set(status_verb["counters"])

        # Satellite: the ndjson status verb carries the derived cache and
        # pool-depth summaries.
        assert status_verb["cache"]["hit_ratio"] == pytest.approx(0.5)
        assert status_verb["pool_depth"]["workers"] == 1
        assert status_verb["pool_depth"]["inflight"] == 0
        assert status_verb["http"].startswith("http://127.0.0.1:")

    def test_unknown_route_and_bad_method(self):
        async def scenario():
            gateway = MetricsGateway(port=0, registry=Registry())
            await gateway.start()
            try:
                base = gateway.address
                loop = asyncio.get_event_loop()

                def fetch(url, method="GET", data=None):
                    request = urllib.request.Request(url, data=data, method=method)
                    try:
                        with urllib.request.urlopen(request, timeout=10) as r:
                            return r.status, r.read().decode()
                    except urllib.error.HTTPError as exc:
                        return exc.code, exc.read().decode()

                missing = await loop.run_in_executor(None, fetch, base + "/nope")
                posted = await loop.run_in_executor(
                    None, lambda: fetch(base + "/metrics", "POST", b"{}"))
                return missing, posted
            finally:
                await gateway.stop()

        (missing_status, missing_body), (post_status, _) = asyncio.run(scenario())
        assert missing_status == 404
        assert "/metrics" in json.loads(missing_body)["routes"]
        assert post_status == 405


class TestGatewayErrorPaths:
    """Malformed, oversized, and dawdling requests get proper status lines.

    urllib cannot send these on purpose, so each test speaks raw bytes over
    a socket (in an executor, keeping the gateway's event loop free) and
    parses the reply head by hand.
    """

    @staticmethod
    def _exchange(host, port, payload, pause_after=None):
        """Send ``payload`` and return the raw response bytes."""
        import socket

        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(payload)
            if pause_after is None:
                sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
            return b"".join(chunks)

    def _run(self, payload, pause=False, timeout=None):
        async def scenario():
            import repro.obs.gateway as gateway_mod

            original_timeout = gateway_mod.REQUEST_TIMEOUT
            if timeout is not None:
                gateway_mod.REQUEST_TIMEOUT = timeout
            gateway = MetricsGateway(port=0, registry=Registry())
            await gateway.start()
            try:
                return await asyncio.get_event_loop().run_in_executor(
                    None, self._exchange, gateway.host, gateway.port,
                    payload, pause or None,
                )
            finally:
                await gateway.stop()
                gateway_mod.REQUEST_TIMEOUT = original_timeout

        raw = asyncio.run(scenario())
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        reason = lines[0].split(None, 2)[2]
        headers = dict(
            line.split(": ", 1) for line in lines[1:] if ": " in line
        )
        return status, reason, headers, json.loads(body)

    def test_oversized_request_line_gets_431(self):
        from repro.obs.gateway import MAX_REQUEST_HEAD

        payload = b"GET /" + b"a" * (MAX_REQUEST_HEAD + 1024) + b" HTTP/1.1\r\n\r\n"
        status, reason, headers, body = self._run(payload)
        assert status == 431
        assert reason == "Request Header Fields Too Large"
        assert headers["Connection"] == "close"
        assert "limit" in body["error"]

    def test_oversized_headers_get_431(self):
        from repro.obs.gateway import MAX_REQUEST_HEAD

        # Each line is modest; the *total* head busts the cap.
        filler = b"".join(
            b"X-Pad-%d: %s\r\n" % (index, b"y" * 900) for index in range(20)
        )
        assert len(filler) > MAX_REQUEST_HEAD
        payload = b"GET /healthz HTTP/1.1\r\n" + filler + b"\r\n"
        status, reason, headers, body = self._run(payload)
        assert status == 431
        assert body["error"] == "request head too large"
        assert headers["Connection"] == "close"

    def test_slow_loris_gets_408(self):
        # A client that sends half a request line and goes quiet must get
        # a timeout reply, not hold the connection open forever.
        status, reason, headers, body = self._run(
            b"GET /metr", pause=True, timeout=0.2,
        )
        assert status == 408
        assert reason == "Request Timeout"
        assert "timed out" in body["error"]
        assert headers["Connection"] == "close"

    def test_truncated_request_line_gets_400(self):
        status, reason, headers, body = self._run(b"GE\r\n\r\n")
        assert status == 400
        assert reason == "Bad Request"
        assert body["error"] == "malformed request line"
        assert headers["Connection"] == "close"

    def test_eof_before_target_gets_400(self):
        # The connection closes after the bare method: readline returns the
        # partial line at EOF and the parse fails on a missing target.
        status, _, _, body = self._run(b"GET\r\n")
        assert status == 400
        assert body["error"] == "malformed request line"
