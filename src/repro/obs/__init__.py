"""Production observability: metrics registry, spans, and the HTTP gateway.

``repro.obs`` is the cross-cutting instrumentation layer.  The serve
front-end, the caches and the engine record into one process-wide registry
(counters and fixed-bucket latency histograms — see
:mod:`repro.obs.registry`), and the asyncio HTTP gateway
(:mod:`repro.obs.gateway`, ``repro.cli serve --http PORT``) exposes it as
``GET /metrics`` in both the Prometheus text format and JSON, next to
``/healthz`` and ``/status``.

Quick use::

    from repro import obs

    REQUESTS = obs.counter(
        "repro_serve_requests_total", "Requests by verb.", labels=("verb",))
    LATENCY = obs.histogram(
        "repro_serve_request_seconds", "Request latency.", labels=("verb",))

    REQUESTS.labels("simulate").inc()
    LATENCY.labels("simulate").observe(elapsed)  # a time.perf_counter() interval

One home per number
-------------------

A family exists only when it answers a question no other output answers —
which engine path ran, where the time went by layer, which cache answered
— and the signal census in ``tests/test_devtools_lint.py`` lists each one
with its reader.  A number that already lives elsewhere is read there:
in-flight depth, outcome tallies and pool occupancy in the ``status``
reply (``GET /status``), pool lifecycle tallies in ``WorkerPool.stats()``,
sweep outcomes on the ``sweep.run`` span, pruned entries in
``prune_cache``'s return value.  So the registry has no gauges and nothing
copies numbers into it at scrape time.

Metric naming convention
------------------------

All metric names are ``repro_<subsystem>_<noun>[_<unit>]`` in
``snake_case``:

* the ``repro_`` prefix namespaces the package in any shared scrape;
* ``<subsystem>`` is the owning module family: ``serve``, ``cache``,
  ``engine``, ``span``;
* counters end in ``_total`` and only ever go up;
* anything holding a duration ends in ``_seconds`` (histograms observe
  :func:`time.perf_counter` intervals — never wall-clock deltas, which is
  source rule ``OBS001`` in ``tests/source_rules.py``);
* bounded enumerations ride in labels (``verb=``, ``cache=``, ``op=``,
  ``path=``, ``span=``), never in the metric name, and label values must be
  from a small fixed set — unbounded values trip the per-family
  cardinality cap and collapse into ``_other``.

The registry is per process.  Forked sweep/serve workers inherit a copy
at fork time and count into it privately; the numbers served by the
gateway are the front-end process's own (the engine-path census rides
back with every worker job, see :mod:`repro.simulation.census`).

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

from typing import Sequence

from repro.obs import trace
from repro.obs.registry import OVERFLOW_LABEL, MetricFamily, Registry

__all__ = [
    "OVERFLOW_LABEL",
    "MetricFamily",
    "Registry",
    "trace",
    "counter",
    "histogram",
    "note_cache_op",
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


def counter(name: str, help_text: str = "", labels: Sequence[str] = ()) -> MetricFamily:
    return _active.counter(name, help_text, labels)


def histogram(name: str, help_text: str = "", labels: Sequence[str] = ()) -> MetricFamily:
    return _active.histogram(name, help_text, labels)


def _observe_span_seconds(name: str, seconds: float) -> None:
    _active.histogram(
        "repro_span_seconds", "Duration of instrumented spans.", labels=("span",)
    ).labels(name).observe(seconds)


# Every finished TraceSpan also lands in the repro_span_seconds histogram
# through this hook.
trace._install_metrics_hook(_observe_span_seconds)


def note_cache_op(cache: str, *ops: str) -> None:
    """Count cache operations: which cache answered, and how.

    ``cache`` is the cache kind (``"sweep"``, ``"trace"``); each ``op`` is
    one of ``hit``/``miss``/``store``/``skip``/``error``/``quarantine``.
    A hit ratio is derived by the reader from the ``hit`` and ``miss``
    samples.
    """
    family = _active.counter(
        "repro_cache_ops_total",
        "Cache operations by cache kind and op "
        "(hit/miss/store/skip/error/quarantine).",
        labels=("cache", "op"),
    )
    for op in ops:
        family.labels(cache, op).inc()


def render_prometheus() -> str:
    return _active.render_prometheus()


def render_json() -> dict:
    return _active.render_json()
