"""A persistent simulation service: warm workers behind an asyncio front-end.

``repro.serve`` turns the one-shot simulate/sweep/experiment workflows into
a long-lived, stdlib-only service:

* :mod:`repro.serve.server` — asyncio ndjson front-end (TCP or Unix
  socket) with request coalescing, a result-cache fast path, and bounded
  in-flight depth with ``busy`` backpressure;
* :mod:`repro.serve.pool` — the package's one forked worker pool: resident
  here, with warm trace/result caches, and short-lived under a parallel
  :func:`~repro.simulation.sweep.sweep_map`;
* :mod:`repro.serve.jobs` — request validation and verb -> task
  resolution; a ``sweep`` request runs one item of a figure's declared
  sweep, the task its ``run()`` builds too, and job identity is the
  content-addressed key the on-disk sweep cache uses, so the service and
  ``repro.cli experiment`` share cache entries;
* :mod:`repro.serve.client` — blocking client library;
* :mod:`repro.serve.protocol` — the wire format.

Start a server from the command line with ``repro.cli serve`` and talk to
it with ``repro.cli submit`` or :class:`ServeClient`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "client": ("ServeClient", "ServeError"),
        "pool": ("WorkerPool",),
        "server": ("SimulationServer",),
        "protocol": (
            "ProtocolError",
            "VERBS",
            "MAX_LINE",
            "BAD_REQUEST",
            "BUSY",
            "JOB_FAILED",
            "POISONED",
            "TASK_TIMEOUT",
            "WORKER_LOST",
        ),
    },
)
