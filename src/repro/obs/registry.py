"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The registry is deliberately small and allocation-shy.  A metric *family*
is created once (``registry.counter(name, help, labels=(...))`` is
idempotent); each distinct label-value tuple materializes one *child*
holding the actual numbers.  Observations on a child are O(1) dict/array
operations under a per-child lock — no string formatting, no allocation —
so instrumented code can observe on warm paths and batch-flush from hot
ones (the engine flushes once per run, mirroring its per-chunk stat
tallies).

Children should be bound once and reused (``hist = H.labels("simulate")``)
on busy paths; ``labels()`` itself is a single dict lookup, so per-event
resolution is acceptable everywhere that is not a per-record loop.

Label cardinality is capped per family (``max_label_sets``, default
64).  Beyond the cap, observations collapse into a
shared overflow child whose every label value is ``"_other"`` — data is
aggregated, never silently dropped — and the family counts the collapsed
label sets (``dropped_label_sets`` in the JSON rendering).

The registry reads no clock — callers observe :func:`time.perf_counter`
intervals (:func:`repro.obs.trace.span` is the timing primitive), never
wall-clock deltas (rule ``OBS001``) — so renderings carry no timestamps and
identical runs render identically.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_MAX_LABEL_SETS",
    "OVERFLOW_LABEL",
    "Registry",
    "MetricFamily",
]

#: Histogram bucket upper bounds (seconds) used when none are given:
#: request latencies from 1 ms to 1 min, plus the implicit +Inf bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Default cap on distinct label-value tuples per family.
DEFAULT_MAX_LABEL_SETS = 64

#: Label value every overflow child carries once the cap is hit.
OVERFLOW_LABEL = "_other"

_KINDS = ("counter", "gauge", "histogram")


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


_Signature = Tuple[str, Tuple[str, ...], Optional[Tuple[float, ...]]]


def _signature(
    kind: str, labels: Sequence[str], buckets: Optional[Sequence[float]]
) -> _Signature:
    """The ``(kind, label names, bucket bounds)`` identity of a family.

    Two registrations of one name must agree on it; it carries the
    validation that belongs to those three (unknown kind, empty or
    non-histogram buckets), so a re-registration is checked without
    building a family.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown metric kind {kind!r}")
    label_names = tuple(str(label) for label in labels)
    if kind != "histogram":
        if buckets is not None:
            raise ValueError(f"{kind} metrics do not take buckets")
        return (kind, label_names, None)
    if buckets is None:
        return (kind, label_names, DEFAULT_LATENCY_BUCKETS)
    bounds = tuple(sorted(buckets))
    if not bounds:
        raise ValueError("histogram needs at least one bucket bound")
    return (kind, label_names, bounds)


class _Child:
    """One labeled time series.  The same class backs all three kinds;
    the family constrains which mutators its kind sanctions."""

    __slots__ = ("_lock", "_value", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Optional[Tuple[float, ...]] = None) -> None:
        self._lock = threading.Lock()
        self._value = 0
        self._bounds = bounds
        if bounds is not None:
            self._counts = [0] * (len(bounds) + 1)
            self._sum = 0.0
            self._count = 0

    # -- counter / gauge ------------------------------------------------ #
    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def sync_to(self, value: float) -> None:
        """Advance a mirrored counter to an externally maintained tally.

        For collectors that mirror pre-existing monotonic counts (the
        serve pool's crash/respawn tallies) without double-counting:
        the value only ever moves forward.
        """
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        return self._value

    # -- histogram ------------------------------------------------------ #
    def observe(self, value: float) -> None:
        index = bisect_left(self._bounds, value)
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
        for bound, bucket_count in zip(self._bounds, counts):
            cumulative += bucket_count
            buckets[_format_value(bound)] = cumulative
        buckets["+Inf"] = total
        return {"buckets": buckets, "count": total, "sum": acc}


class MetricFamily:
    """One named metric plus its labeled children."""

    __slots__ = (
        "name", "kind", "help", "label_names", "max_label_sets",
        "_buckets", "_children", "_lock", "dropped_label_sets",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
        max_label_sets: int = DEFAULT_MAX_LABEL_SETS,
    ) -> None:
        self.kind, self.label_names, self._buckets = _signature(kind, label_names, buckets)
        if max_label_sets < 1:
            raise ValueError("max_label_sets must be positive")
        self.name = name
        self.help = help_text
        self.max_label_sets = max_label_sets
        self._children: Dict[Tuple[str, ...], _Child] = {}
        self._lock = threading.Lock()
        self.dropped_label_sets = 0

    # ------------------------------------------------------------------ #
    def signature(self) -> _Signature:
        return (self.kind, self.label_names, self._buckets)

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
            if len(self._children) >= self.max_label_sets and key != self._overflow_key():
                self.dropped_label_sets += 1
                return self._overflow_child()
            child = _Child(self._buckets)
            self._children[key] = child
            return child

    def _overflow_key(self) -> Tuple[str, ...]:
        return (OVERFLOW_LABEL,) * len(self.label_names)

    def _overflow_child(self) -> _Child:
        # Called under self._lock.
        key = self._overflow_key()
        child = self._children.get(key)
        if child is None:
            child = _Child(self._buckets)
            self._children[key] = child
        return child

    # Convenience passthroughs for unlabeled families. ------------------ #
    def inc(self, amount: float = 1) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def sync_to(self, value: float) -> None:
        self.labels().sync_to(value)

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
    """A set of metric families plus collect-time hooks.

    ``counter``/``gauge``/``histogram`` are idempotent per name — calling
    twice with an identical signature returns the same family; a
    conflicting re-registration raises.  *Collectors* are zero-argument
    callables invoked just before every rendering, the hook gauges whose
    truth lives elsewhere (in-flight depth, pool occupancy, derived hit
    ratios) use to refresh themselves.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[[], None]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
        max_label_sets: int = DEFAULT_MAX_LABEL_SETS,
    ) -> MetricFamily:
        # Resolving a name that exists is a validation and a lookup: it runs
        # on every cache op and finished span, so it builds no family.
        signature = _signature(kind, labels, buckets)
        if max_label_sets < 1:
            raise ValueError("max_label_sets must be positive")
        with self._lock:
            existing = self._families.get(name)
            if existing is None:
                existing = self._families[name] = MetricFamily(
                    name, kind, help_text, labels, buckets, max_label_sets
                )
            elif existing.signature() != signature:
                raise ValueError(
                    f"metric {name!r} re-registered with a different "
                    f"signature: {existing.signature()} vs {signature}"
                )
            return existing

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = (),
        max_label_sets: int = DEFAULT_MAX_LABEL_SETS,
    ) -> MetricFamily:
        return self._family(name, "counter", help_text, labels,
                            max_label_sets=max_label_sets)

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = (),
        max_label_sets: int = DEFAULT_MAX_LABEL_SETS,
    ) -> MetricFamily:
        return self._family(name, "gauge", help_text, labels,
                            max_label_sets=max_label_sets)

    def histogram(
        self, name: str, help_text: str = "", labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
        max_label_sets: int = DEFAULT_MAX_LABEL_SETS,
    ) -> MetricFamily:
        return self._family(name, "histogram", help_text, labels,
                            buckets=buckets, max_label_sets=max_label_sets)

    # ------------------------------------------------------------------ #
    def add_collector(self, collector: Callable[[], None]) -> None:
        with self._lock:
            self._collectors.append(collector)

    def _collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                collector()
            except Exception:  # repro: ignore[EXC001] -- one broken collector must not take /metrics down with it
                continue

    # ------------------------------------------------------------------ #
    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format (0.0.4)."""
        self._collect()
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
        self._collect()
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

    snapshot = render_json


def _render_labels(names: Iterable[str], values: Iterable[str]) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"

