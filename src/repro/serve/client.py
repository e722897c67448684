"""Blocking client for the simulation service.

Stdlib-socket counterpart of :class:`~repro.serve.server.SimulationServer`:
connects over TCP or a Unix socket, writes one JSON request per line, and
reads one JSON reply per line.  One client drives one connection and issues
one request at a time; for concurrent load, use one client per thread (the
server coalesces identical requests across connections).

Example::

    from repro.serve import ServeClient

    with ServeClient(socket_path="/tmp/repro.sock") as client:
        reply = client.request("simulate", workload="oltp-db2", cpus=2)
        print(reply["result"]["l1_coverage"])
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Dict, Optional

from repro import faults
from repro.obs import trace
from repro.serve.protocol import TRACE_FIELD, encode


class ServeError(RuntimeError):
    """A failed request: transport trouble or an ``ok: false`` reply."""

    def __init__(self, message: str, code: Optional[int] = None) -> None:
        super().__init__(message)
        self.code = code


class ServeClient:
    """Blocking ndjson client; context-manageable; not thread-safe."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 8642,
        timeout: Optional[float] = 600.0,
    ) -> None:
        if socket_path is None and port is None:
            raise ValueError("need a socket_path or a host/port")
        self.socket_path = str(socket_path) if socket_path else None
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None

    # ------------------------------------------------------------------ #
    def connect(
        self,
        retry_for: float = 0.0,
        interval: float = 0.05,
        max_interval: float = 2.0,
    ) -> "ServeClient":
        """Open the connection, optionally retrying for ``retry_for`` seconds
        (covers the race of a client starting alongside the server).

        Retries back off exponentially from ``interval`` up to
        ``max_interval`` per attempt — a server that needs seconds to warm
        its pool is not hammered at 20 attempts/second, but the first few
        retries still catch it the moment the socket appears.  The final
        sleep is clipped so the deadline itself is never overshot.
        """
        deadline = time.monotonic() + retry_for
        delay = interval
        while True:
            try:
                if self.socket_path:
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    try:
                        sock.settimeout(self.timeout)
                        sock.connect(self.socket_path)
                    except OSError:
                        sock.close()  # create_connection does the same for TCP
                        raise
                else:
                    sock = socket.create_connection(
                        (self.host, self.port), timeout=self.timeout
                    )
            except OSError as exc:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServeError(f"cannot connect to {self._address()}: {exc}") from exc
                time.sleep(min(delay, max_interval, remaining))
                delay = min(delay * 2, max_interval)
                continue
            self._sock = sock
            self._file = sock.makefile("rwb")
            return self

    def _address(self) -> str:
        return f"unix:{self.socket_path}" if self.socket_path else f"tcp:{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    def request_raw(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one already-shaped request object; return the decoded reply.

        When ``REPRO_TRACE`` sampling admits this request (or an ambient
        span is active on the calling thread), a ``client.request`` span
        wraps the round trip and its context rides the request's
        ``trace`` field, making the server's work a child of this span.
        """
        if self._file is None:
            self.connect()
        assert self._file is not None
        with trace.span("client.request", {"verb": payload.get("verb")}) as sp:
            if sp.recording and TRACE_FIELD not in payload:
                payload = dict(payload)
                payload[TRACE_FIELD] = sp.context.as_dict()
            try:
                faults.fire("client.send")
                self._file.write(encode(payload))
                self._file.flush()
                # No size cap on replies: the server bounds *request* lines,
                # but replies (a full experiment table, say) may be
                # arbitrarily long and truncating one would desync the
                # connection.
                line = self._file.readline()
            except OSError as exc:
                raise ServeError(
                    f"transport error talking to {self._address()}: {exc}"
                ) from exc
            if not line:
                raise ServeError(f"server at {self._address()} closed the connection")
            try:
                reply = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServeError(f"malformed reply from {self._address()}: {exc}") from exc
            if not isinstance(reply, dict):
                raise ServeError(f"malformed reply from {self._address()}: not an object")
            if sp.recording:
                sp.set("ok", bool(reply.get("ok")))
                sp.set("cached", bool(reply.get("cached")))
                sp.set("coalesced", bool(reply.get("coalesced")))
                if not reply.get("ok"):
                    sp.mark_error(str(reply.get("error", "request failed")))
            return reply

    def request(self, verb: str, **params: Any) -> Dict[str, Any]:
        """Send one request; return the full reply object (``ok`` may be False)."""
        payload = {"verb": verb}
        payload.update(params)
        return self.request_raw(payload)

    def call(self, verb: str, **params: Any) -> Any:
        """Send one request; return ``reply["result"]`` or raise :class:`ServeError`."""
        reply = self.request(verb, **params)
        if not reply.get("ok"):
            raise ServeError(
                str(reply.get("error", "request failed")), code=reply.get("code")
            )
        return reply["result"]

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        if self._sock is None:
            self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
