"""Wire protocol of the simulation service.

The service speaks newline-delimited JSON over a TCP or Unix stream socket:
each request is one JSON object on one line, each response is one JSON
object on one line.  Requests carry a ``verb`` plus verb-specific
parameters and an optional ``id`` the response echoes back, so a client
may pipeline several requests over one connection and match replies by id
(replies are written in completion order, not submission order).

Verbs
-----

``simulate``
    One workload under one prefetcher; returns miss/coverage/speedup
    statistics (params: ``workload``, ``prefetcher``, ``cpus``,
    ``accesses_per_cpu``, ``seed``).

``sweep``
    One item of a figure sweep — exactly the per-item task
    ``repro.cli experiment`` fans out (params: ``figure``, ``item``,
    ``scale``, ``num_cpus``).

``experiment``
    A full fig04–fig13 runner; returns the figure's result table (params:
    ``figure``, ``scale``, ``num_cpus``).

``status``
    Server and worker-pool health: in-flight jobs, queue bound, request
    counters.

``cache_stats``
    Entry counts and byte sizes of the on-disk sweep-result and trace
    caches.

Responses
---------

Success::

    {"ok": true, "result": ..., "cached": false, "coalesced": false, "id": ...}

``cached`` marks a reply served from the on-disk result cache without
entering the worker pool; ``coalesced`` marks a reply that piggybacked on
an identical in-flight request.  Failure::

    {"ok": false, "error": "...", "code": 400, "id": ...}

``code`` follows HTTP conventions: 400 malformed/invalid request, 422 the
job is quarantined as a poison task (it killed or timed out workers on
``quarantine_after`` distinct attempts; do not retry), 429 the server's
in-flight job bound is reached (back off and retry), 500 the job raised
while executing, 503 a worker process died mid-job (it is respawned; the
request may be retried), 504 the job missed its per-task deadline (the
worker is killed and respawned; the request may be retried).

The server retries 503/504 failures internally (bounded, with exponential
backoff) before reporting them, so the codes a client sees are already
post-retry.

Trace propagation
-----------------

A request may carry an optional ``trace`` field — a ``{"trace_id": ...,
"span_id": ...}`` object naming the client-side span the server's work
should hang under (see :mod:`repro.obs.trace`).  The field is stripped
before normalization (it never reaches the job digest, so tracing cannot
change cache keys or coalescing), forwarded to the pool worker with the
job, and echoed verbatim in the reply so clients can correlate pipelined
responses with their spans.  Requests without the field are simply not
traced; an unparseable ``trace`` value is ignored rather than rejected.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional

#: Longest accepted request line (bytes).  One line is one JSON request;
#: anything longer is rejected rather than buffered without bound.
MAX_LINE = 1 << 20

#: Error codes (HTTP-flavoured).
BAD_REQUEST = 400
POISONED = 422
BUSY = 429
JOB_FAILED = 500
WORKER_LOST = 503
TASK_TIMEOUT = 504

#: Verbs the server accepts.
VERBS = ("simulate", "sweep", "experiment", "status", "cache_stats")

#: Optional request/reply field carrying the propagated trace context.
TRACE_FIELD = "trace"


class ProtocolError(Exception):
    """A request that cannot be served, with its wire error code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


#: ``json.dumps(value, sort_keys=True)``, without building an encoder per call.
_dumps = json.JSONEncoder(sort_keys=True).encode


def encode(payload: Mapping[str, Any]) -> bytes:
    """Serialise one response/request object to a single wire line.

    Keys are sorted so identical payloads are byte-identical on the wire —
    the golden tests compare raw reply lines across server runs.
    """
    return (_dumps(payload) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Mapping[str, Any]:
    """Parse one request line; raises :class:`ProtocolError` on bad input."""
    if len(line) > MAX_LINE:
        raise ProtocolError(BAD_REQUEST, f"request line exceeds {MAX_LINE} bytes")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(BAD_REQUEST, f"malformed JSON request: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(BAD_REQUEST, "request must be a JSON object")
    return payload


def ok_response(
    result: Any,
    request_id: Optional[Any] = None,
    cached: bool = False,
    coalesced: bool = False,
) -> dict:
    reply = {"ok": True, "result": result, "cached": cached, "coalesced": coalesced}
    if request_id is not None:
        reply["id"] = request_id
    return reply


def cached_reply(result_json: str, request_id: Any = None, trace: Any = None) -> bytes:
    """``encode(ok_response(result, request_id, cached=True))`` plus the
    echoed ``trace`` field, byte for byte, built around ``result_json ==
    json.dumps(result, sort_keys=True)``: the envelope's keys come sorted."""
    line = '{"cached": true, "coalesced": false, '
    if request_id is not None:
        line += f'"id": {_dumps(request_id)}, '
    line += f'"ok": true, "result": {result_json}'
    if trace is not None:
        line += f', "{TRACE_FIELD}": {_dumps(trace)}'
    return (line + "}\n").encode("utf-8")


def error_response(code: int, message: str, request_id: Optional[Any] = None) -> dict:
    reply = {"ok": False, "error": message, "code": code}
    if request_id is not None:
        reply["id"] = request_id
    return reply
