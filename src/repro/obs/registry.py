"""Process-wide metrics registry: counters and fixed-bucket histograms.

The registry is deliberately small and allocation-shy.  A metric *family*
is created once (``registry.counter(name, help, labels=(...))`` is
idempotent); each distinct label-value tuple materializes one *child*
holding the actual numbers.  Observations on a child are O(1) dict/array
operations under a per-child lock — no string formatting, no allocation —
so instrumented code can observe on warm paths and batch-flush from hot
ones (the engine flushes once per run).

It holds only numbers that have no other home: every family answers one of
the questions in the signal census
(``tests/test_devtools_lint.py::TestPackageIsClean``) — which engine path
ran, where the time went by layer, which cache answered.  Numbers that
already live somewhere else (the ``status`` reply, ``WorkerPool.stats()``,
a span attribute, a command's return value) are not copied in, so there
are no gauges and no scrape-time collectors.

Children should be bound once and reused (``hist = H.labels("simulate")``)
on busy paths; ``labels()`` itself is a single dict lookup, so per-event
resolution is acceptable everywhere that is not a per-record loop.

Label cardinality is capped per family (:data:`MAX_LABEL_SETS`).  Beyond
the cap, observations collapse into a shared overflow child whose every
label value is ``"_other"`` — data is aggregated, never silently dropped —
and the family counts the collapsed label sets (``dropped_label_sets`` in
the JSON rendering).

The registry reads no clock — callers observe :func:`time.perf_counter`
intervals (:func:`repro.obs.trace.span` is the timing primitive), never
wall-clock deltas (rule ``OBS001``) — so renderings carry no timestamps and
identical runs render identically.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "LATENCY_BUCKETS",
    "MAX_LABEL_SETS",
    "OVERFLOW_LABEL",
    "Registry",
    "MetricFamily",
]

#: Histogram bucket upper bounds (seconds): request latencies from 1 ms to
#: 1 min, plus the implicit +Inf bucket.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Cap on distinct label-value tuples per family.
MAX_LABEL_SETS = 64

#: Label value every overflow child carries once the cap is hit.
OVERFLOW_LABEL = "_other"

_KINDS = ("counter", "histogram")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


_Signature = Tuple[str, Tuple[str, ...]]


def _signature(kind: str, labels: Sequence[str]) -> _Signature:
    """The ``(kind, label names)`` identity of a family: two registrations
    of one name must agree on it."""
    if kind not in _KINDS:
        raise ValueError(f"unknown metric kind {kind!r}")
    return (kind, tuple(str(label) for label in labels))


class _Child:
    """One labeled time series.  The same class backs both kinds; the
    family's kind decides whether it is incremented or observed."""

    __slots__ = ("_lock", "_value", "_counts", "_sum", "_count")

    def __init__(self, histogram: bool) -> None:
        self._lock = threading.Lock()
        self._value = 0
        if histogram:
            self._counts = [0] * (len(LATENCY_BUCKETS) + 1)
            self._sum = 0.0
            self._count = 0

    # -- counter -------------------------------------------------------- #
    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    # -- histogram ------------------------------------------------------ #
    def observe(self, value: float) -> None:
        index = bisect_left(LATENCY_BUCKETS, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def histogram_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total = self._count
            acc = self._sum
        buckets: Dict[str, int] = {}
        cumulative = 0
        for bound, bucket_count in zip(LATENCY_BUCKETS, counts):
            cumulative += bucket_count
            buckets[_format_value(bound)] = cumulative
        buckets["+Inf"] = total
        return {"buckets": buckets, "count": total, "sum": acc}


class MetricFamily:
    """One named metric plus its labeled children."""

    __slots__ = ("name", "kind", "help", "label_names", "_children", "_lock",
                 "dropped_label_sets")

    def __init__(
        self, name: str, kind: str, help_text: str, label_names: Sequence[str] = (),
    ) -> None:
        self.kind, self.label_names = _signature(kind, label_names)
        self.name = name
        self.help = help_text
        self._children: Dict[Tuple[str, ...], _Child] = {}
        self._lock = threading.Lock()
        self.dropped_label_sets = 0

    # ------------------------------------------------------------------ #
    def signature(self) -> _Signature:
        return (self.kind, self.label_names)

    def labels(self, *values: Any) -> _Child:
        """The child for one label-value tuple (created on first use)."""
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects {len(self.label_names)} label value(s) "
                f"({', '.join(self.label_names) or 'none'}), got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(key)
            if child is not None:
                return child
            if len(self._children) >= MAX_LABEL_SETS and key != self._overflow_key():
                self.dropped_label_sets += 1
                return self._overflow_child()
            child = _Child(self.kind == "histogram")
            self._children[key] = child
            return child

    def _overflow_key(self) -> Tuple[str, ...]:
        return (OVERFLOW_LABEL,) * len(self.label_names)

    def _overflow_child(self) -> _Child:
        # Called under self._lock.
        key = self._overflow_key()
        child = self._children.get(key)
        if child is None:
            child = _Child(self.kind == "histogram")
            self._children[key] = child
        return child

    # Convenience passthroughs for unlabeled families. ------------------ #
    def inc(self, amount: float = 1) -> None:
        self.labels().inc(amount)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        return self.labels().value

    # ------------------------------------------------------------------ #
    def samples(self) -> List[Tuple[Tuple[str, ...], _Child]]:
        with self._lock:
            return sorted(self._children.items())


class Registry:
    """A set of metric families.

    ``counter``/``histogram`` are idempotent per name — calling twice with
    an identical signature returns the same family; a conflicting
    re-registration raises.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _family(
        self, name: str, kind: str, help_text: str, labels: Sequence[str],
    ) -> MetricFamily:
        # Resolving a name that exists is a validation and a lookup: it runs
        # on every cache op and finished span, so it builds no family.
        signature = _signature(kind, labels)
        with self._lock:
            existing = self._families.get(name)
            if existing is None:
                existing = self._families[name] = MetricFamily(name, kind, help_text, labels)
            elif existing.signature() != signature:
                raise ValueError(
                    f"metric {name!r} re-registered with a different "
                    f"signature: {existing.signature()} vs {signature}"
                )
            return existing

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = (),
    ) -> MetricFamily:
        return self._family(name, "counter", help_text, labels)

    def histogram(
        self, name: str, help_text: str = "", labels: Sequence[str] = (),
    ) -> MetricFamily:
        """A histogram over :data:`LATENCY_BUCKETS`."""
        return self._family(name, "histogram", help_text, labels)

    # ------------------------------------------------------------------ #
    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.samples():
                labels = _render_labels(family.label_names, key)
                if family.kind == "histogram":
                    snap = child.histogram_snapshot()
                    for bound, cumulative in snap["buckets"].items():
                        bucket_labels = _render_labels(
                            family.label_names + ("le",), key + (bound,)
                        )
                        lines.append(
                            f"{family.name}_bucket{bucket_labels} {cumulative}"
                        )
                    lines.append(f"{family.name}_sum{labels} {_format_value(snap['sum'])}")
                    lines.append(f"{family.name}_count{labels} {snap['count']}")
                else:
                    lines.append(f"{family.name}{labels} {_format_value(child.value)}")
        return "\n".join(lines) + "\n"

    def render_json(self) -> Dict[str, Any]:
        """The registry as one JSON-serializable dict (stable ordering)."""
        metrics: Dict[str, Any] = {}
        for family in self.families():
            samples = []
            for key, child in family.samples():
                labels = dict(zip(family.label_names, key))
                if family.kind == "histogram":
                    sample: Dict[str, Any] = {"labels": labels}
                    sample.update(child.histogram_snapshot())
                else:
                    sample = {"labels": labels, "value": child.value}
                samples.append(sample)
            metrics[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "dropped_label_sets": family.dropped_label_sets,
                "samples": samples,
            }
        return {"metrics": metrics}


def _render_labels(names: Iterable[str], values: Iterable[str]) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"

