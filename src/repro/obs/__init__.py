"""Production observability: metrics registry, spans, and the HTTP gateway.

``repro.obs`` is the cross-cutting instrumentation layer.  Every other
subsystem records into one process-wide registry (counters, gauges,
fixed-bucket latency histograms — see :mod:`repro.obs.registry`), and the
asyncio HTTP gateway (:mod:`repro.obs.gateway`, ``repro.cli serve --http
PORT``) exposes it as ``GET /metrics`` in both the Prometheus text format
and JSON, next to ``/healthz`` and ``/status``.

Quick use::

    from repro import obs

    REQUESTS = obs.counter(
        "repro_serve_requests_total", "Requests by verb.", labels=("verb",))
    LATENCY = obs.histogram(
        "repro_serve_request_seconds", "Request latency.", labels=("verb",))

    REQUESTS.labels("simulate").inc()
    LATENCY.labels("simulate").observe(elapsed)  # a time.perf_counter() interval

Metric naming convention
------------------------

All metric names are ``repro_<subsystem>_<noun>[_<unit>]`` in
``snake_case``:

* the ``repro_`` prefix namespaces the package in any shared scrape;
* ``<subsystem>`` is the owning module family: ``serve``, ``cache``,
  ``sweep``, ``engine``, ``span``;
* counters end in ``_total`` and only ever go up;
* anything holding a duration ends in ``_seconds`` (histograms observe
  :func:`time.perf_counter` intervals — never wall-clock deltas, which is
  source rule ``OBS001`` in ``tests/source_rules.py``);
* gauges carry no unit suffix and report a current level (``
  repro_serve_inflight``), refreshed by a *collector* at scrape time;
* bounded enumerations ride in labels (``verb=``, ``outcome=``,
  ``cache=``, ``op=``, ``path=``), never in the metric name, and label
  values must be from a small fixed set — unbounded values trip the
  per-family cardinality cap and collapse into ``_other``.

The registry is per process.  Forked sweep/serve workers inherit a copy
at fork time and count into it privately; the numbers served by the
gateway are the front-end process's own (pool-wide execution tallies
reach it through ``WorkerPool.stats()`` mirroring, not through shared
memory).

The layer is always on.  Its cost on the engine is bounded by count, not by
a timing ratio: a run resolves the same number of metric families and writes
one ``engine.run`` span however long its trace is
(``tests/test_engine_path_census.py``).

Structured tracing (:mod:`repro.obs.trace`, ``REPRO_TRACE=off|on|ratio``)
is the causal complement to this aggregate layer: request-scoped span
*trees* that cross the serve protocol and the pool fork boundary.  A
finished trace span also observes into ``repro_span_seconds``, so the
two layers always agree.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs import trace
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_MAX_LABEL_SETS,
    OVERFLOW_LABEL,
    MetricFamily,
    Registry,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_MAX_LABEL_SETS",
    "OVERFLOW_LABEL",
    "MetricFamily",
    "Registry",
    "trace",
    "counter",
    "gauge",
    "histogram",
    "note_cache_op",
    "add_collector",
    "get_registry",
    "install_registry",
    "render_prometheus",
    "render_json",
]

_active: Registry = Registry()


def get_registry() -> Registry:
    """The process-wide active registry."""
    return _active


def install_registry(registry: Registry) -> Registry:
    """Swap the active registry; returns the previous one for restore.

    Instrumented code resolves families through the module functions at
    observation/creation time, so a swap takes effect for everything
    constructed afterwards (tests install a fresh registry, run a
    scenario, and restore).
    """
    global _active
    previous = _active
    _active = registry
    return previous


def counter(name: str, help_text: str = "", labels: Sequence[str] = (),
            max_label_sets: int = DEFAULT_MAX_LABEL_SETS) -> MetricFamily:
    return _active.counter(name, help_text, labels, max_label_sets=max_label_sets)


def gauge(name: str, help_text: str = "", labels: Sequence[str] = (),
          max_label_sets: int = DEFAULT_MAX_LABEL_SETS) -> MetricFamily:
    return _active.gauge(name, help_text, labels, max_label_sets=max_label_sets)


def histogram(name: str, help_text: str = "", labels: Sequence[str] = (),
              buckets: Optional[Sequence[float]] = None,
              max_label_sets: int = DEFAULT_MAX_LABEL_SETS) -> MetricFamily:
    return _active.histogram(name, help_text, labels, buckets=buckets,
                             max_label_sets=max_label_sets)


def _observe_span_seconds(name: str, seconds: float) -> None:
    _active.histogram(
        "repro_span_seconds", "Duration of instrumented spans.", labels=("span",)
    ).labels(name).observe(seconds)


# Every finished TraceSpan also lands in the repro_span_seconds histogram
# through this hook.
trace._install_metrics_hook(_observe_span_seconds)


def note_cache_op(cache: str, *ops: str) -> None:
    """Count cache operations and refresh the derived hit-ratio gauge.

    ``cache`` is the cache kind (``"sweep"``, ``"trace"``); each ``op`` is
    one of ``hit``/``miss``/``store``/``skip``/``error``/``quarantine``/
    ``prune``.  The ``repro_cache_hit_ratio`` gauge is recomputed from the
    process-wide hit/miss tallies whenever a lookup outcome lands, so the
    ratio is always consistent with the counters it derives from.
    """
    family = _active.counter(
        "repro_cache_ops_total",
        "Cache operations by cache kind and op "
        "(hit/miss/store/skip/error/quarantine/prune).",
        labels=("cache", "op"),
    )
    for op in ops:
        family.labels(cache, op).inc()
    hits = family.labels(cache, "hit").value
    lookups = hits + family.labels(cache, "miss").value
    if lookups:
        _active.gauge(
            "repro_cache_hit_ratio",
            "Derived hits / (hits + misses), per cache kind.",
            labels=("cache",),
        ).labels(cache).set(round(hits / lookups, 6))


def add_collector(collector) -> None:
    _active.add_collector(collector)


def render_prometheus() -> str:
    return _active.render_prometheus()


def render_json() -> dict:
    return _active.render_json()
