"""Asyncio HTTP/JSON observability gateway.

A deliberately small HTTP/1.0-style server (stdlib only, ``GET`` only,
one response per connection) that runs on the same event loop as the
ndjson simulation service and exposes its runtime state:

``GET /metrics``
    The process metrics registry.  Prometheus text exposition format by
    default; JSON when the request says so (``?format=json`` or an
    ``Accept: application/json`` header).
``GET /healthz``
    Liveness: ``{"status": "ok", "uptime_seconds": ...}`` — cheap enough
    for a poll loop, no registry walk.
``GET /status``
    The same document the ndjson ``status`` verb returns, for HTTP-only
    clients (mirrors :meth:`repro.serve.server.SimulationServer.status`).

The gateway is scrape-grade, not internet-grade: it binds loopback by
default, caps the request head, answers exactly one request per
connection (``Connection: close``), and drops connections that go quiet
mid-request.  Anything fancier belongs behind a real reverse proxy.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import obs

__all__ = ["MetricsGateway"]

#: Upper bound on the request line + headers, bytes.
MAX_REQUEST_HEAD = 16 * 1024

#: Seconds a client may dawdle sending its request head.
REQUEST_TIMEOUT = 10.0

_PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_JSON_TYPE = "application/json; charset=utf-8"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class _RequestError(Exception):
    """A bad request head, carrying the HTTP status it maps onto.

    Raised while parsing so :meth:`MetricsGateway._handle_connection` can
    answer with a proper status line (408 slow client, 431 oversized head,
    400 malformed) instead of silently dropping the connection — silent
    closes look like network faults to a scraper and hide misconfigured
    clients.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class MetricsGateway:
    """Serve the metrics registry (and an optional status document) over HTTP."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[Any] = None,
        status_provider: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self._registry = registry
        self.status_provider = status_provider
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at = 0.0

    # ------------------------------------------------------------------ #
    @property
    def registry(self) -> Any:
        return self._registry if self._registry is not None else obs.get_registry()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port,
            limit=MAX_REQUEST_HEAD,
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, target, headers = await asyncio.wait_for(
                    self._read_request_head(reader), REQUEST_TIMEOUT
                )
            except asyncio.TimeoutError:
                status, content_type, body = _json_reply(
                    408, {"error": "timed out reading request head"}
                )
            except _RequestError as exc:
                status, content_type, body = _json_reply(exc.status, {"error": str(exc)})
            except (ConnectionError, OSError):
                # The socket itself failed — there is no one to answer.
                writer.close()
                return
            else:
                status, content_type, body = self._respond(method, target, headers)
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            )
            try:
                writer.write(head.encode("ascii") + body)
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # scraper went away; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_request_head(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str]]:
        """Parse ``(method, target, headers)`` up to the blank line.

        Raises :class:`_RequestError` with the right HTTP status: 431 when
        a line or the whole head busts :data:`MAX_REQUEST_HEAD` (asyncio's
        stream ``limit`` surfaces the former as ``ValueError``), 400 when
        the request line does not parse (including a request truncated
        before its target).
        """
        try:
            request_line = await reader.readline()
        except ValueError:
            raise _RequestError(431, "request line exceeds limit")
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _RequestError(400, "malformed request line")
        consumed = len(request_line)
        headers: Dict[str, str] = {}
        while True:
            try:
                header = await reader.readline()
            except ValueError:
                raise _RequestError(431, "request head too large")
            consumed += len(header)
            if consumed > MAX_REQUEST_HEAD:
                raise _RequestError(431, "request head too large")
            if header in (b"\r\n", b"\n", b""):
                break
            name, sep, value = header.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        return parts[0].upper(), parts[1], headers

    # ------------------------------------------------------------------ #
    def _respond(
        self, method: str, target: str, headers: Dict[str, str]
    ) -> Tuple[int, str, bytes]:
        """Route one request to ``(status, content_type, body)``."""
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        if method != "GET":
            return _json_reply(405, {"error": f"method {method} not allowed"})
        try:
            if path == "/metrics":
                wants_json = (
                    query.get("format", [""])[0] == "json"
                    or "application/json" in headers.get("accept", "")
                )
                if wants_json:
                    return _json_reply(200, self.registry.render_json())
                return 200, _PROMETHEUS_TYPE, self.registry.render_prometheus().encode("utf-8")
            if path == "/healthz":
                return _json_reply(200, {
                    "status": "ok",
                    "uptime_seconds": round(time.monotonic() - self._started_at, 3),
                })
            if path == "/status":
                if self.status_provider is None:
                    return _json_reply(404, {"error": "no status provider attached"})
                return _json_reply(200, self.status_provider())
        except Exception as exc:  # repro: ignore[EXC001] -- HTTP boundary: a 500 reply beats a dropped scrape
            return _json_reply(500, {"error": f"{type(exc).__name__}: {exc}"})
        return _json_reply(404, {
            "error": f"no route for {path}",
            "routes": ["/metrics", "/metrics?format=json", "/healthz", "/status"],
        })


def _json_reply(status: int, payload: Dict[str, Any]) -> Tuple[int, str, bytes]:
    body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return status, _JSON_TYPE, body
