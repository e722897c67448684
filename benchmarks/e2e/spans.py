"""The harness's own span recorder.

Spans are recorded from outside the program, around the calls the harness
makes into a layer's public function (a CLI child process, a
``ServeClient.request_raw`` round trip, ``common.simulate`` ...).  They are
kept in memory and written once, when the run ends.  Spans of one operation
share its ``op`` identifier; a span's self time is its duration minus the
part of it covered by its children.

A recorder built with ``enabled=False`` hands out one shared no-op context,
which is what the untraced (end-to-end) runs use.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class _OpenSpan:
    """Context manager for one recorded span.  A class with slots that ends
    as one tuple of scalars, not a generator and a dict: it sits inside the
    timed region of 0.5 ms requests, and ten thousand live dicts would make
    every garbage collection longer."""

    __slots__ = ("recorder", "id", "parent", "op", "name", "start")

    def __init__(self, recorder: "SpanRecorder", name: str, op: Optional[str]) -> None:
        self.recorder = recorder
        self.id = next(recorder._ids)
        self.parent = None
        self.op = op
        self.name = name

    def __enter__(self) -> None:
        stack = self.recorder._local.__dict__.setdefault("stack", [])
        if stack:
            parent = stack[-1]
            self.parent = parent.id
            if self.op is None:
                self.op = parent.op
        stack.append(self)
        self.start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.recorder._local.stack.pop()
        # list.append is atomic across threads
        self.recorder.spans.append((self.id, self.parent, self.op, self.name, self.start, end))


class SpanRecorder:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[tuple] = []  # (id, parent, op, name, start, end)
        self._local = threading.local()  # per-thread stack of open spans
        self._ids = itertools.count(1)
        self._noop = nullcontext()

    def span(self, name: str, op: Optional[str] = None):
        """Context manager timing one call; nests under the thread's open span."""
        if not self.enabled:
            return self._noop
        return _OpenSpan(self, name, op)

    @contextmanager
    def wrapping(self, module, *names: str) -> Iterator[None]:
        """Temporarily wrap ``module.<name>`` callables in spans.

        Lets the harness see calls the program makes *between* its own
        modules (``fig10.run`` -> ``common.simulate``) without touching a
        file under ``src/``; the originals are restored on exit.
        """
        originals = {name: getattr(module, name) for name in names}

        def wrap(label, fn):
            def wrapped(*args, **kwargs):
                with self.span(label):
                    return fn(*args, **kwargs)
            return wrapped

        try:
            for name, fn in originals.items():
                setattr(module, name, wrap(f"{module.__name__}.{name}", fn))
            yield
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)

    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[str, float]:
        """Total self time (seconds) per span name."""
        child_time: Dict[int, float] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        totals: Dict[str, float] = {}
        for span_id, _, _, name, start, end in self.spans:
            own = end - start - child_time.get(span_id, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "op", "name", "start", "end")
        payload = {
            "clock": "time.perf_counter (seconds, process-relative)",
            "self_time_s": self.self_times(),
            "spans": [dict(zip(keys, span)) for span in sorted(self.spans, key=lambda s: s[4])],
        }
        path.write_text(json.dumps(payload, indent=1) + "\n")
