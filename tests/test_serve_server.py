"""End-to-end tests for the asyncio simulation service (repro.serve.server).

The server is booted in-process on a Unix socket and driven with asyncio
stream clients, so coalescing behaviour is observed deterministically: all
requests of a wave are written before any reply is awaited, and the pool's
execution counter tells exactly how many simulations actually ran.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import tempfile
import threading
from pathlib import Path

import pytest

from repro import obs
from repro._env import scoped_env
from repro.experiments import fig10_region_size as fig10
from repro.obs import trace
from repro.serve import ServeClient, SimulationServer, WorkerPool, jobs, protocol
from repro.serve.protocol import BAD_REQUEST, BUSY
from repro.serve.server import ANSWERED_REPLIES
from repro.simulation.result_cache import SweepResultCache

SWEEP_OLTP = {"verb": "sweep", "figure": "fig10", "item": "OLTP", "scale": 0.05, "num_cpus": 2}
SWEEP_DSS = {"verb": "sweep", "figure": "fig10", "item": "DSS", "scale": 0.05, "num_cpus": 2}


@pytest.fixture
def socket_dir():
    # A private short-lived dir in the system tempdir: pytest's tmp_path can
    # exceed the ~108-byte AF_UNIX path limit.
    path = tempfile.mkdtemp(prefix="repro-serve-")
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


class TestServiceEndToEnd:
    def test_coalescing_caching_and_byte_identical_results(self, tmp_path, socket_dir):
        socket_path = f"{socket_dir}/serve.sock"
        cache_dir = tmp_path / "cache"

        async def scenario():
            pool = WorkerPool(workers=2, cache_dir=str(cache_dir))
            server = SimulationServer(
                pool,
                socket_path=socket_path,
                max_queue=8,
                cache=SweepResultCache(directory=cache_dir),
            )
            await server.start()
            try:
                # Wave 1: five identical + one distinct request, all written
                # before any reply arrives.
                replies = await asyncio.gather(
                    *[_ask(socket_path, dict(SWEEP_OLTP, id=i)) for i in range(5)],
                    _ask(socket_path, dict(SWEEP_DSS, id="dss")),
                )
                oltp_replies, dss_reply = replies[:5], replies[5]
                status = (await _ask(socket_path, {"verb": "status"}))["result"]
                # Wave 2: a warm repeat must come from the cache without
                # re-entering the pool.
                warm = await _ask(socket_path, SWEEP_OLTP)
                warm_status = (await _ask(socket_path, {"verb": "status"}))["result"]
                return oltp_replies, dss_reply, status, warm, warm_status
            finally:
                await server.stop()

        oltp_replies, dss_reply, status, warm, warm_status = asyncio.run(scenario())

        assert all(reply["ok"] for reply in oltp_replies) and dss_reply["ok"]
        # Coalescing: 6 concurrent requests over 2 distinct keys = exactly
        # 2 underlying executions.
        assert status["pool"]["executed"] == 2
        assert status["counters"]["executed"] == 2
        # Of the 5 identical requests, one executed; the other 4 either
        # coalesced onto it or (having arrived after completion) hit the cache.
        followers = [r for r in oltp_replies if r["coalesced"] or r["cached"]]
        assert len(followers) == 4
        payloads = {json.dumps(r["result"], sort_keys=True) for r in oltp_replies}
        assert len(payloads) == 1

        # Warm repeat: served from cache, pool untouched.
        assert warm["ok"] and warm["cached"] and not warm["coalesced"]
        assert warm_status["pool"]["executed"] == 2
        assert warm_status["counters"]["cache_hits"] >= 1

        # Byte-identical to the direct (non-served) engine path.
        direct = fig10.run_category(
            "OLTP", region_sizes=fig10.REGION_SIZES, scale=0.05, num_cpus=2
        )
        assert json.dumps(oltp_replies[0]["result"], sort_keys=True) == json.dumps(
            jobs.jsonify(direct), sort_keys=True
        )

    def test_simulate_verb_and_blocking_client(self, tmp_path, socket_dir):
        socket_path = f"{socket_dir}/serve.sock"

        async def scenario():
            pool = WorkerPool(workers=1, cache_dir=str(tmp_path / "cache"))
            server = SimulationServer(pool, socket_path=socket_path, max_queue=4)
            await server.start()
            try:
                # Drive the blocking client from a worker thread so it can
                # talk to the in-process server.
                def client_side():
                    with ServeClient(socket_path=socket_path) as client:
                        result = client.call(
                            "simulate", workload="web-apache", cpus=2, accesses_per_cpu=1200
                        )
                        stats = client.call("cache_stats")
                    return result, stats

                return await asyncio.get_running_loop().run_in_executor(None, client_side)
            finally:
                await server.stop()

        result, stats = asyncio.run(scenario())
        direct = jobs.run_simulate("web-apache", cpus=2, accesses_per_cpu=1200)
        assert result == jobs.jsonify(direct)
        assert stats["sweep"]["entries"] == 1  # the simulate result was stored
        assert "server_cache" in stats

    def test_cache_hit_never_leaves_the_loop_thread(self, tmp_path, socket_dir):
        socket_path = f"{socket_dir}/serve.sock"
        request = {"verb": "simulate", "workload": "web-apache", "cpus": 2,
                   "accesses_per_cpu": 1200}
        threads = {"get": [], "put": [], "cache_stats": []}

        def recording(name, fn):
            def wrapper(*args):
                threads[name].append(threading.get_ident())
                return fn(*args)
            return wrapper

        async def pipelined(count):
            # All requests of a connection are written before any reply is
            # read, so the server holds them as concurrent tasks.
            reader, writer = await asyncio.open_unix_connection(socket_path)
            try:
                writer.write(b"".join(
                    (json.dumps(dict(request, id=i)) + "\n").encode() for i in range(count)
                ))
                await writer.drain()
                return [json.loads(await reader.readline()) for _ in range(count)]
            finally:
                writer.close()

        async def scenario():
            pool = WorkerPool(workers=1, cache_dir=str(tmp_path / "cache"))
            server = SimulationServer(
                pool, socket_path=socket_path, max_queue=4,
                cache=SweepResultCache(directory=tmp_path / "cache"),
            )
            server.cache.get = recording("get", server.cache.get)
            server.cache.put = recording("put", server.cache.put)
            server.cache_stats = recording("cache_stats", server.cache_stats)
            await server.start()
            try:
                executed = await _ask(socket_path, request)
                del threads["get"][:]  # the executed request's own (missing) probe
                hits = await asyncio.gather(pipelined(20), pipelined(20))
                overview = await _ask(socket_path, {"verb": "cache_stats"})
                status = (await _ask(socket_path, {"verb": "status"}))["result"]
                return threading.get_ident(), executed, hits[0] + hits[1], overview, status
            finally:
                await server.stop()

        loop_thread, executed, hits, overview, status = asyncio.run(scenario())
        assert executed["ok"] and not executed["cached"]
        assert threads["get"] == [loop_thread] * 1
        assert all(reply["ok"] and reply["cached"] and not reply["coalesced"] for reply in hits)
        assert all(reply["result"] == executed["result"] for reply in hits)
        # One writer: no increment of either tally can be lost.
        assert status["cache"]["hits"] == status["counters"]["cache_hits"] == 40
        assert status["cache"]["misses"] == 1
        # The store and the directory scan still leave the loop thread.
        assert overview["ok"]
        assert len(threads["put"]) == len(threads["cache_stats"]) == 1
        assert loop_thread not in threads["put"] + threads["cache_stats"]

    def test_hits_and_status_are_answered_without_a_task(self, tmp_path, socket_dir):
        # The 40 pipelined hits above, plus a status request: the front half
        # answers each in the pass that read its line, so the only server
        # tasks are the three connections' own.
        socket_path = f"{socket_dir}/serve.sock"
        request = {"verb": "simulate", "workload": "web-apache", "cpus": 2,
                   "accesses_per_cpu": 1200}
        created = []

        def counting_factory(loop, coro, **kwargs):
            created.append(coro.__qualname__)
            return asyncio.Task(coro, loop=loop, **kwargs)

        async def pipelined(count):
            reader, writer = await asyncio.open_unix_connection(socket_path)
            try:
                writer.write(b"".join(
                    (json.dumps(dict(request, id=i)) + "\n").encode() for i in range(count)
                ))
                await writer.drain()
                return [json.loads(await reader.readline()) for _ in range(count)]
            finally:
                writer.close()

        async def scenario():
            pool = WorkerPool(workers=1, cache_dir=str(tmp_path / "cache"))
            server = SimulationServer(
                pool, socket_path=socket_path, max_queue=4,
                cache=SweepResultCache(directory=tmp_path / "cache"),
            )
            await server.start()
            loop = asyncio.get_running_loop()
            try:
                executed = await _ask(socket_path, request)
                loop.set_task_factory(counting_factory)
                try:
                    hits = await asyncio.gather(pipelined(20), pipelined(20))
                    status = await _ask(socket_path, {"verb": "status"})
                finally:
                    loop.set_task_factory(None)
                return executed, hits[0] + hits[1], status
            finally:
                await server.stop()

        executed, hits, status = asyncio.run(scenario())
        assert not executed["cached"] and status["ok"]
        assert all(reply["cached"] and reply["result"] == executed["result"] for reply in hits)
        assert sorted({reply["id"] for reply in hits}) == list(range(20))
        server_tasks = [name for name in created if name.startswith("SimulationServer.")]
        assert server_tasks == ["SimulationServer._handle_connection"] * 3

    def test_malformed_and_invalid_requests(self, tmp_path, socket_dir):
        socket_path = f"{socket_dir}/serve.sock"

        async def scenario():
            pool = WorkerPool(workers=1, cache_dir=str(tmp_path / "cache"))
            server = SimulationServer(pool, socket_path=socket_path, max_queue=4)
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(socket_path)
                writer.write(b"this is not json\n")
                await writer.drain()
                bad_json = json.loads(await reader.readline())
                # The connection survives a bad request.
                writer.write((json.dumps({"verb": "sweep", "figure": "fig10",
                                          "item": "no-such-category"}) + "\n").encode())
                await writer.drain()
                bad_item = json.loads(await reader.readline())
                writer.write((json.dumps({"verb": "simulate", "workload": "oltp-db2",
                                          "pht_backend": "array"}) + "\n").encode())
                await writer.drain()
                retired = json.loads(await reader.readline())
                writer.write((json.dumps({"verb": "status", "id": "after"}) + "\n").encode())
                await writer.drain()
                after = json.loads(await reader.readline())
                writer.close()
                return bad_json, bad_item, retired, after
            finally:
                await server.stop()

        bad_json, bad_item, retired, after = asyncio.run(scenario())
        assert not bad_json["ok"] and bad_json["code"] == BAD_REQUEST
        assert not bad_item["ok"] and "no-such-category" in bad_item["error"]
        assert not retired["ok"] and retired["code"] == BAD_REQUEST
        assert "unknown parameter" in retired["error"] and "pht_backend" in retired["error"]
        assert after["ok"] and after["id"] == "after"


SIMULATE = {"verb": "simulate", "workload": "web-apache", "cpus": 2, "accesses_per_cpu": 1200}
EXPERIMENT_FIG10 = {"verb": "experiment", "figure": "fig10", "scale": 0.05, "num_cpus": 2}


def _stored(cache, request, raw=None):
    """Put ``raw`` (default: the request's real result) in ``cache`` under
    the request's digest; returns ``(entry path, raw)``."""
    spec = jobs.normalize(request)
    digest = jobs.digest_for(spec, cache)
    raw = jobs.execute_spec(spec) if raw is None else raw
    cache.put(digest, raw)
    return cache._entry_path(digest), raw


def _served(cache, socket_dir, steps):
    """Run ``await steps(ask)`` against a server on ``cache`` whose pool
    answers at once; ``ask(payload)`` returns the raw reply line of one
    request, all on one connection."""
    socket_path = f"{socket_dir}/serve.sock"

    async def scenario():
        pool = _BlockingPool()
        pool.release.set()
        server = SimulationServer(pool, socket_path=socket_path, max_queue=4, cache=cache)
        await server.start()
        try:
            reader, writer = await asyncio.open_unix_connection(socket_path)

            async def ask(payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return await reader.readline()

            try:
                return await steps(ask)
            finally:
                writer.close()
        finally:
            await server.stop()

    return asyncio.run(scenario())


class TestAnsweredReplies:
    """A repeat of a request the server answered from a verified cache entry
    is sent as the bytes it was sent as then."""

    def test_a_repeat_opens_no_file_and_computes_no_digest(
        self, tmp_path, socket_dir, monkeypatch
    ):
        cache = SweepResultCache(directory=tmp_path / "cache")
        entry, raw = _stored(cache, SIMULATE)
        reads, digests = [], []
        read_bytes, digest_for = Path.read_bytes, jobs.digest_for
        monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path) or read_bytes(path))
        monkeypatch.setattr(jobs, "digest_for", lambda *args: digests.append(args) or digest_for(*args))

        async def steps(ask):
            first = await ask(SIMULATE)
            # A running server keeps answering what it already verified;
            # the next process's cache sees the damage.
            entry.write_bytes(b"damaged after it was answered")
            repeats = [await ask(SIMULATE) for _ in range(3)]
            status = json.loads(await ask({"verb": "status"}))["result"]
            return first, repeats, status

        previous = obs.install_registry(obs.Registry())
        try:
            first, repeats, status = _served(cache, socket_dir, steps)
            ops = obs.get_registry().counter("repro_cache_ops_total", labels=("cache", "op"))
            sweep_hits = ops.labels("sweep", "hit").value
        finally:
            obs.install_registry(previous)
        assert first == protocol.encode(protocol.ok_response(jobs.jsonify(raw), cached=True))
        assert repeats == [first] * 3
        assert reads == [entry] and len(digests) == 1
        # Every hit is counted, whichever way it was answered.
        assert status["cache"]["hits"] == status["counters"]["cache_hits"] == sweep_hits == 4

    def test_the_first_answered_request_leaves_the_map_past_the_cap(self, tmp_path, socket_dir):
        cache = SweepResultCache(directory=tmp_path / "cache")
        requests = [dict(SIMULATE, seed=seed) for seed in range(ANSWERED_REPLIES + 1)]
        entries = [_stored(cache, request, {"seed": request["seed"]})[0] for request in requests]

        async def steps(ask):
            answered = [json.loads(await ask(request)) for request in requests]
            for entry in entries:
                entry.unlink()
            again = [json.loads(await ask(requests[index])) for index in (0, 1, -1)]
            return answered, again

        answered, (first, second, last) = _served(cache, socket_dir, steps)
        assert [reply["result"] for reply in answered] == [
            {"seed": request["seed"]} for request in requests
        ]
        assert all(reply["cached"] for reply in answered)
        # The first one answered was dropped for the 257th: with its file
        # gone it misses and executes; the rest are still answered.
        assert first["ok"] and not first["cached"]
        assert second == answered[1] and last == answered[-1]

    def test_the_first_repeat_of_an_executed_request_reads_the_file(
        self, tmp_path, socket_dir, monkeypatch
    ):
        cache = SweepResultCache(directory=tmp_path / "cache")
        entry = cache._entry_path(jobs.digest_for(jobs.normalize(SIMULATE), cache))
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path) or read_bytes(path))

        async def steps(ask):
            executed = json.loads(await ask(SIMULATE))
            return executed, [await ask(SIMULATE) for _ in range(2)]

        executed, repeats = _served(cache, socket_dir, steps)
        assert not executed["cached"]
        assert repeats[0] == repeats[1]
        assert json.loads(repeats[0])["result"] == executed["result"]
        # The miss's probe, then the first repeat's: the execution's put
        # filled nothing, the second repeat reads nothing.
        assert reads == [entry, entry]

    @pytest.mark.parametrize("request_", [SWEEP_OLTP, EXPERIMENT_FIG10], ids=["sweep", "experiment"])
    def test_repeat_replies_of_every_cached_verb_are_byte_identical(
        self, tmp_path, socket_dir, request_
    ):
        cache = SweepResultCache(directory=tmp_path / "cache")
        _, raw = _stored(cache, request_)
        request_id = {"z": [1, "\u00e9"], "a": None}  # unsorted keys, non-ASCII

        async def steps(ask):
            return [await ask(dict(request_, id=request_id, trace="junk")) for _ in range(3)]

        replies = _served(cache, socket_dir, steps)
        expected = protocol.ok_response(jobs.jsonify(raw), request_id, cached=True)
        expected["trace"] = "junk"
        assert replies == [protocol.encode(expected)] * 3
        if request_ is EXPERIMENT_FIG10:
            assert json.loads(replies[-1])["result"]["text"] == raw.to_text()

    def test_a_traced_repeat_has_a_cached_request_span_and_no_cache_get(
        self, tmp_path, socket_dir
    ):
        cache = SweepResultCache(directory=tmp_path / "cache")
        _stored(cache, SIMULATE, {"stand-in": 1})
        trace.flush()
        trace._buffer.clear()
        with scoped_env({"REPRO_TRACE": "on", "REPRO_CACHE_DIR": str(tmp_path)}):
            with trace.span("client.request") as client:
                parent = client.context.as_dict()

            async def steps(ask):
                return [json.loads(await ask(dict(SIMULATE, trace=parent))) for _ in range(2)]

            replies = _served(cache, socket_dir, steps)
            trace.flush()
            records = trace.load_trace_file(trace.trace_path(parent["trace_id"]))
        assert [reply["trace"] for reply in replies] == [parent] * 2
        spans = [record for record in records if record.get("kind") == "span"]
        requests = [span for span in spans if span["name"] == "serve.request"]
        assert [span["attrs"]["cached"] for span in requests] == [True, True]
        gets = [span for span in spans if span["name"] == "cache.get"]
        # The first hit read the entry; the repeat was answered from the map.
        assert [span["parent"] for span in gets] == [requests[0]["span"]]


class _BlockingPool:
    """Pool stand-in whose single job blocks until the test releases it."""

    def __init__(self):
        self.release = threading.Event()
        self.executed = 0

    def start(self):
        return self

    def execute(self, spec, task_timeout=None):
        assert self.release.wait(timeout=30)
        self.executed += 1
        return {"item": spec.get("item") or spec.get("workload")}

    def stats(self):
        return {"workers": 1, "executed": self.executed}

    def shutdown(self):
        self.release.set()


class TestBackpressure:
    def test_busy_reply_when_inflight_bound_reached(self, tmp_path, socket_dir):
        socket_path = f"{socket_dir}/serve.sock"

        async def scenario():
            pool = _BlockingPool()
            server = SimulationServer(
                pool,
                socket_path=socket_path,
                max_queue=1,
                cache=SweepResultCache(directory=tmp_path / "cache"),
            )
            await server.start()
            try:
                reader_a, writer_a = await asyncio.open_unix_connection(socket_path)
                writer_a.write((json.dumps(SWEEP_OLTP) + "\n").encode())
                await writer_a.drain()
                # Let the first request reach the (blocked) pool before the
                # second arrives.
                for _ in range(100):
                    if len(server._inflight) == 1:
                        break
                    await asyncio.sleep(0.01)
                assert len(server._inflight) == 1
                busy_reply = await _ask(socket_path, SWEEP_DSS)
                # An identical request coalesces instead of being refused.
                reader_c, writer_c = await asyncio.open_unix_connection(socket_path)
                writer_c.write((json.dumps(SWEEP_OLTP) + "\n").encode())
                await writer_c.drain()
                await asyncio.sleep(0.05)
                pool.release.set()
                first_reply = json.loads(await reader_a.readline())
                coalesced_reply = json.loads(await reader_c.readline())
                writer_a.close()
                writer_c.close()
                return busy_reply, first_reply, coalesced_reply, pool.executed
            finally:
                await server.stop()

        busy_reply, first_reply, coalesced_reply, executed = asyncio.run(scenario())
        assert not busy_reply["ok"] and busy_reply["code"] == BUSY
        assert first_reply["ok"] and not first_reply["coalesced"]
        assert coalesced_reply["ok"] and coalesced_reply["coalesced"]
        assert executed == 1
