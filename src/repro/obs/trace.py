"""Structured tracing: request-scoped span trees across processes.

Where :mod:`repro.obs.registry` aggregates (*how many* requests, *what*
latency distribution), this module records causality: every traced request
becomes a tree of spans — ``trace_id``/``span_id``/``parent_id`` — whose
timing comes from :func:`time.perf_counter` and whose tree structure
survives process boundaries.  A span is created with the :func:`span`
context manager::

    with trace.span("sweep.point", {"key": key}) as sp:
        result = run_point()
        sp.set("outcome", "ok")

Sampling
--------

``REPRO_TRACE`` controls whether locally *originated* traces are recorded:

* ``off`` (default, also ``0``/``false``/``no``/empty) — :func:`span`
  returns a shared no-op span; nothing is buffered or written;
* ``on`` (also ``1``/``true``/``yes``) — every root span starts a trace;
* a float in ``(0, 1)`` — that fraction of root spans starts a trace,
  decided by a deterministic accumulator (no entropy: rule ``DET003``
  applies here like everywhere else), so ``0.25`` records exactly every
  fourth root.

Propagation is independent of local sampling: a span created under an
explicit remote parent (:func:`activate`, or ``parent=``) is always
recorded, because the sampling decision was made where the trace began —
the standard distributed-tracing contract.

Export
------

Finished spans buffer in a process-local collector and flush — grouped by
trace — to ``<cache>/traces/trace-<trace_id>.ndjson`` with an append-only
discipline: one ``os.write`` to an ``O_APPEND`` descriptor per
flush, so concurrent writers (server, pool workers) interleave whole
records and a crash can only tear the final line.  :func:`load_trace_file`
recovers from such a torn tail when reading.

Span ``start`` fields are raw :func:`time.perf_counter` readings and are
only comparable *within* one process; each record carries ``pid`` so a
renderer can re-anchor cross-process subtrees under their parent span
(see :mod:`repro.analysis.trace_report`).  No wall clock is recorded
anywhere — trace ids derive from :func:`time.monotonic_ns` and the pid.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import _env

__all__ = [
    "TRACE_ENV_VAR",
    "SpanContext",
    "TraceSpan",
    "span",
    "activate",
    "current",
    "sampling_rate",
    "tracing_enabled",
    "emit",
    "flush",
    "trace_dir",
    "trace_path",
    "load_trace_file",
    "list_trace_files",
]

#: Environment variable selecting the sampling mode (``off|on|<ratio>``).
TRACE_ENV_VAR = "REPRO_TRACE"

#: Buffered spans are force-flushed past this count even mid-trace, so a
#: long sweep's spans reach disk while it is still running.
FLUSH_THRESHOLD = 128

_OFF_VALUES = frozenset({"", "0", "off", "false", "no"})
_ON_VALUES = frozenset({"1", "on", "true", "yes"})


def sampling_rate() -> float:
    """The configured root-span sampling rate in ``[0.0, 1.0]``."""
    raw = (_env.read(TRACE_ENV_VAR) or "").strip().lower()
    if raw in _OFF_VALUES:
        return 0.0
    if raw in _ON_VALUES:
        return 1.0
    try:
        rate = float(raw)
    except ValueError:
        return 0.0
    return min(max(rate, 0.0), 1.0)


def tracing_enabled() -> bool:
    """True when locally originated root spans can be recorded."""
    return sampling_rate() > 0.0


class SpanContext:
    """The propagated identity of a span: ``(trace_id, span_id)``.

    This is what crosses process boundaries — on the serve protocol's
    ``trace`` request/reply field and over the pool's worker pipe.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def as_dict(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, payload: Any) -> Optional["SpanContext"]:
        """Parse a propagated context; ``None`` for anything malformed."""
        if not isinstance(payload, dict):
            return None
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        if isinstance(trace_id, str) and trace_id and isinstance(span_id, str) and span_id:
            return cls(trace_id, span_id)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanContext(trace_id={self.trace_id!r}, span_id={self.span_id!r})"


class _State(threading.local):
    def __init__(self) -> None:
        self.stack: List[Any] = []


_state = _State()
_lock = threading.Lock()
_buffer: List[dict] = []
_span_counter = 0
_sample_debt = 0.0
#: Set by :mod:`repro.obs` at import so finished spans also observe into
#: the ``repro_span_seconds`` metrics histogram.
_metrics_hook: Optional[Callable[[str, float], None]] = None


def _install_metrics_hook(hook: Callable[[str, float], None]) -> None:
    global _metrics_hook
    _metrics_hook = hook


def _next_span_id() -> str:
    global _span_counter
    with _lock:
        _span_counter += 1
        counter = _span_counter
    return f"{os.getpid():x}.{counter:x}"


def _new_trace_id() -> str:
    # monotonic_ns is strictly increasing within a boot and the pid
    # disambiguates concurrent processes — unique without OS entropy.
    return f"{os.getpid():x}-{time.monotonic_ns():x}"


def _should_sample() -> bool:
    rate = sampling_rate()
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    global _sample_debt
    with _lock:
        _sample_debt += rate
        if _sample_debt >= 1.0:
            _sample_debt -= 1.0
            return True
    return False


class TraceSpan:
    """One recorded node of a span tree; use via :func:`span`."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "status",
        "start",
        "duration",
        "_attached",
        "_local_root",
    )

    def __init__(self, name: str, trace_id: str, parent_id: Optional[str],
                 attrs: Optional[dict], attach: bool, local_root: bool) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _next_span_id()
        self.parent_id = parent_id
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.status = "ok"
        self.start = 0.0
        self.duration = 0.0
        self._attached = attach
        self._local_root = local_root

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def recording(self) -> bool:
        return True

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def mark_error(self, message: str = "") -> None:
        self.status = "error"
        if message:
            self.attrs["error"] = message

    def __enter__(self) -> "TraceSpan":
        if self._attached:
            _state.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        if self._attached:
            stack = _state.stack
            if stack and stack[-1] is self:
                stack.pop()
            elif self in stack:  # pragma: no cover - unbalanced exit guard
                stack.remove(self)
        if exc_type is not None and self.status == "ok":
            self.mark_error(f"{exc_type.__name__}: {exc}")
        _collect(self._record(), flush_now=self._local_root)
        hook = _metrics_hook
        if hook is not None:
            hook(self.name, self.duration)
        return False

    def _record(self) -> dict:
        record = {
            "kind": "span",
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "pid": os.getpid(),
            "start": self.start,
            "dur": self.duration,
            "status": self.status,
        }
        if self.attrs:
            record["attrs"] = _jsonable(self.attrs)
        return record


class _NullSpan:
    """Shared no-op span: the entire cost of tracing while sampled out."""

    __slots__ = ()

    context = None
    trace_id = None
    span_id = None
    status = "ok"

    @property
    def recording(self) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    def mark_error(self, message: str = "") -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _RemoteAnchor:
    """Stack entry standing in for a parent span in another process."""

    __slots__ = ("context",)

    def __init__(self, context: SpanContext) -> None:
        self.context = context


def current() -> Optional[SpanContext]:
    """The ambient span context on this thread, if any."""
    stack = _state.stack
    return stack[-1].context if stack else None


def span(name: str, attrs: Optional[dict] = None,
         parent: Optional[SpanContext] = None, attach: bool = True,
         root: bool = True):
    """Open a span named ``name``.

    Parent resolution: an explicit ``parent`` context wins (and forces
    recording — propagation honours the originator's sampling decision);
    otherwise the ambient span on this thread is the parent; otherwise
    this is a root span and the ``REPRO_TRACE`` sampling decision applies.

    ``attach=False`` keeps the span off the thread's ambient stack — use
    it for spans held open across ``await`` points on an event loop,
    where concurrent tasks would otherwise interleave their stacks (pass
    ``parent=`` explicitly to children instead).

    ``root=False`` marks a span that only makes sense *inside* a trace
    (cache ops, sweep points): with no parent and no ambient context
    it is a no-op instead of starting a new single-span trace.
    """
    if parent is not None:
        return TraceSpan(name, parent.trace_id, parent.span_id, attrs,
                         attach, local_root=True)
    stack = _state.stack
    if stack:
        ctx = stack[-1].context
        local_root = isinstance(stack[-1], _RemoteAnchor)
        return TraceSpan(name, ctx.trace_id, ctx.span_id, attrs, attach,
                         local_root=local_root)
    if not root or not _should_sample():
        return _NULL_SPAN
    return TraceSpan(name, _new_trace_id(), None, attrs, attach,
                     local_root=True)


class activate:
    """Install a remote context as this thread's ambient parent::

        with trace.activate(ctx):
            execute_job()        # spans in here are children of ctx

    A ``None`` context is a no-op, so call sites need no conditionals.
    """

    __slots__ = ("_context", "_anchor")

    def __init__(self, context: Optional[SpanContext]) -> None:
        self._context = context
        self._anchor: Optional[_RemoteAnchor] = None

    def __enter__(self) -> Optional[SpanContext]:
        if self._context is not None:
            self._anchor = _RemoteAnchor(self._context)
            _state.stack.append(self._anchor)
        return self._context

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._anchor is not None:
            stack = _state.stack
            if stack and stack[-1] is self._anchor:
                stack.pop()
            elif self._anchor in stack:  # pragma: no cover
                stack.remove(self._anchor)
            self._anchor = None
        if self._context is not None:
            flush()
        return False


def emit(kind: str, parent: Optional[SpanContext], payload: dict) -> None:
    """Append a non-span record (e.g. ``telemetry``) to a trace's file.

    No-op when ``parent`` is ``None``, so instrumented code can emit
    unconditionally.
    """
    if parent is None:
        return
    record = dict(_jsonable(payload))
    record["kind"] = kind
    record["trace"] = parent.trace_id
    record["parent"] = parent.span_id
    record["pid"] = os.getpid()
    _collect(record, flush_now=False)


def _jsonable(value: Any) -> Any:
    """Best-effort conversion so a span attr can never poison a flush."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _collect(record: dict, flush_now: bool) -> None:
    with _lock:
        _buffer.append(record)
        should_flush = flush_now or len(_buffer) >= FLUSH_THRESHOLD
    if should_flush:
        flush()


def flush() -> None:
    """Write all buffered records to their per-trace ndjson files.

    Called automatically when a local root span ends, when the buffer
    exceeds :data:`FLUSH_THRESHOLD`, and at interpreter exit.  Export is
    best-effort: an unwritable cache directory drops the batch rather
    than failing the traced operation.
    """
    with _lock:
        if not _buffer:
            return
        batch, _buffer[:] = list(_buffer), []
    import json  # an untraced run buffers nothing and never loads it

    by_trace: Dict[str, List[dict]] = {}
    for record in batch:
        by_trace.setdefault(record.get("trace", "unknown"), []).append(record)
    for trace_id, records in sorted(by_trace.items()):
        payload = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        ).encode("utf-8")
        path = trace_path(trace_id)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(str(path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
        except OSError:
            pass


atexit.register(flush)


# --------------------------------------------------------------------------- #
# Trace files
# --------------------------------------------------------------------------- #
def trace_dir() -> Path:
    """``<cache>/traces`` — shared with the binary trace cache (distinct
    suffixes: span files are ``trace-*.ndjson``, cached traces ``*.strc``)."""
    from repro.simulation.result_cache import TRACES_SUBDIR, default_cache_dir

    return default_cache_dir() / TRACES_SUBDIR


def trace_path(trace_id: str) -> Path:
    safe = "".join(ch for ch in trace_id if ch.isalnum() or ch in "-._")
    return trace_dir() / f"trace-{safe}.ndjson"


def list_trace_files(directory: Optional[Path] = None) -> List[Path]:
    """Span files under ``directory`` (default: the cache trace dir),
    newest last."""
    base = Path(directory) if directory is not None else trace_dir()
    if not base.is_dir():
        return []
    files = [path for path in base.glob("trace-*.ndjson") if path.is_file()]
    files.sort(key=lambda path: (path.stat().st_mtime, path.name))
    return files


def _parse_line(line: str) -> Optional[dict]:
    """Parse one ndjson line, recovering from a torn tail.

    If a crash tore the final append, the damage is a partial line,
    possibly fused with the start of a later record — retry the parse
    from each subsequent ``{``.
    """
    import json

    text = line.strip()
    while text:
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            brace = text.find("{", 1)
            if brace < 0:
                return None
            text = text[brace:]
            continue
        return record if isinstance(record, dict) else None
    return None


def load_trace_file(path: Path) -> List[dict]:
    """All parseable records in ``path``; torn/foreign lines are skipped."""
    try:
        content = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return []
    records: List[dict] = []
    for line in content.splitlines():
        record = _parse_line(line)
        if record is not None:
            records.append(record)
    return records


def iter_spans(records: List[dict]) -> Iterator[dict]:
    """Just the ``kind == "span"`` records of a loaded trace file."""
    for record in records:
        if record.get("kind") == "span":
            yield record
