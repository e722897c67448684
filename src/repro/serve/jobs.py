"""Request validation and the verb -> callable job registry.

Every servable job resolves to an importable module-level function plus
positional/keyword arguments, for two reasons:

* workers receive plain parameter dicts over their pipes and rebuild the
  callable locally — no code or closures cross the process boundary; and
* the job's cache digest is computed by
  :meth:`~repro.simulation.result_cache.SweepResultCache.fingerprint` from
  exactly that (function identity, args, kwargs) triple.

For the ``sweep`` verb, the (args, kwargs) shape deliberately mirrors the
tasks :func:`repro.experiments.common.run_sweep` builds — the item is the
single positional argument and the figure-default kwargs are filled in —
so a service request and a ``repro.cli experiment`` sweep over the same
configuration share cache entries: a figure run on the command line warms
the service, and vice versa.  ``tests/test_serve_jobs.py`` pins that
digest parity.
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro._lazy import preload_simulation
from repro.analysis.coverage import coverage_from_result
from repro.analysis.reporting import ResultTable
from repro.experiments import (
    fig04_block_size,
    fig05_density,
    fig06_indexing,
    fig07_pht_storage,
    fig08_training,
    fig09_training_storage,
    fig10_region_size,
    fig11_ghb,
    fig12_speedup,
    fig13_breakdown,
)
from repro.experiments import common
from repro.serve.protocol import BAD_REQUEST, TRACE_FIELD, VERBS, ProtocolError
from repro.prefetch.registry import PREFETCHER_CHOICES
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.simulation.result_cache import SweepResultCache
from repro.simulation.timing import TimingModel
from repro.trace.binary import LaneTrace
from repro.workloads.suite import APPLICATION_NAMES, make_workload

# This module is what a pool worker runs, and the front-end imports it before
# the pool forks: load every selectable prefetcher now, so the first request
# of any kind imports nothing.
preload_simulation()

#: Upper bounds keeping one request from monopolising a worker forever.
MAX_CPUS = 64
MAX_ACCESSES_PER_CPU = 10_000_000
MAX_SCALE = 100.0


# --------------------------------------------------------------------------- #
# The simulate job
# --------------------------------------------------------------------------- #
def run_simulate(
    workload: str,
    prefetcher: str = "sms",
    cpus: int = 4,
    accesses_per_cpu: int = 10_000,
    seed: int = 1,
) -> Dict[str, Any]:
    """One workload under one prefetcher; the service's ``simulate`` verb.

    Mirrors ``repro.cli simulate`` (same factories, same baseline pairing)
    but returns the statistics as a plain dict instead of printing a table,
    so the result is JSON-able and cacheable.  Request sizes are bounded, so
    the workload is generated once into lanes and both engine runs replay
    them (the CLI streams instead, to stay O(chunk) on unbounded lengths).
    """
    stream = make_workload(
        workload, num_cpus=cpus, accesses_per_cpu=accesses_per_cpu, seed=seed
    )
    trace = LaneTrace.from_records(stream, stream.metadata)
    config = SimulationConfig.small(num_cpus=cpus)
    baseline = SimulationEngine(config, name="baseline").run(trace)
    result = SimulationEngine(config, PREFETCHER_CHOICES[prefetcher](), name=prefetcher).run(trace)
    l1 = coverage_from_result(result, level="L1")
    l2 = coverage_from_result(result, level="L2")
    return {
        "workload": workload,
        "prefetcher": prefetcher,
        "cpus": cpus,
        "accesses": stream.total_accesses,
        "baseline_l1_read_misses": baseline.l1_read_misses,
        "l1_read_misses": result.l1_read_misses,
        "baseline_offchip_read_misses": baseline.offchip_read_misses,
        "offchip_read_misses": result.offchip_read_misses,
        "l1_coverage": l1.coverage,
        "offchip_coverage": l2.coverage,
        "overpredictions": l1.overprediction_fraction,
        "speedup": TimingModel().speedup(baseline, result, stream.metadata),
    }


# --------------------------------------------------------------------------- #
# The sweep/experiment figure registries
# --------------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class SweepFigure:
    """One figure's per-item sweep entry: function, item domain, defaults."""

    fn: Callable[..., Any]
    items: Callable[[], Tuple[str, ...]]
    #: Figure-default kwargs, exactly as the figure's ``run()`` passes them
    #: to ``run_sweep`` (same objects, same list-vs-tuple types) so the
    #: cache digests coincide.
    defaults: Callable[[], Dict[str, Any]]


def _categories() -> Tuple[str, ...]:
    return tuple(common.CATEGORY_REPRESENTATIVE)


def _applications() -> Tuple[str, ...]:
    return tuple(common.application_names())


SWEEP_FIGURES: Dict[str, SweepFigure] = {
    "fig04": SweepFigure(
        fig04_block_size.run_category,
        _categories,
        lambda: {"sizes": fig04_block_size.SIZES},
    ),
    "fig05": SweepFigure(
        fig05_density.run_application,
        _applications,
        lambda: {"region_size": 2048},
    ),
    "fig06": SweepFigure(
        fig06_indexing.run_category,
        _categories,
        lambda: {"schemes": fig06_indexing.INDEX_SCHEMES},
    ),
    "fig07": SweepFigure(
        fig07_pht_storage.run_category,
        _categories,
        lambda: {
            "sizes": fig07_pht_storage.PHT_SIZES,
            "schemes": fig07_pht_storage.SCHEMES,
        },
    ),
    "fig08": SweepFigure(
        fig08_training.run_category,
        _categories,
        lambda: {"trainers": fig08_training.TRAINERS},
    ),
    "fig09": SweepFigure(
        fig09_training_storage.run_category,
        _categories,
        lambda: {
            "sizes": fig09_training_storage.PHT_SIZES,
            "trainers": fig09_training_storage.TRAINERS,
        },
    ),
    "fig10": SweepFigure(
        fig10_region_size.run_category,
        _categories,
        lambda: {"region_sizes": fig10_region_size.REGION_SIZES},
    ),
    "fig11": SweepFigure(
        fig11_ghb.run_application,
        _applications,
        lambda: {"configurations": fig11_ghb.CONFIGURATIONS},
    ),
    "fig12": SweepFigure(
        fig12_speedup.run_application,
        _applications,
        lambda: {"samples": 3},
    ),
    "fig13": SweepFigure(
        fig13_breakdown.run_application,
        _applications,
        lambda: {},
    ),
}

EXPERIMENT_FIGURES: Dict[str, Callable[..., ResultTable]] = {
    "fig04": fig04_block_size.run,
    "fig05": fig05_density.run,
    "fig06": fig06_indexing.run,
    "fig07": fig07_pht_storage.run,
    "fig08": fig08_training.run,
    "fig09": fig09_training_storage.run,
    "fig10": fig10_region_size.run,
    "fig11": fig11_ghb.run,
    "fig12": fig12_speedup.run,
    "fig13": fig13_breakdown.run,
}


# --------------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------------- #
def _require(params: Mapping[str, Any], key: str) -> Any:
    if key not in params:
        raise ProtocolError(BAD_REQUEST, f"missing required parameter {key!r}")
    return params[key]


def _as_int(name: str, value: Any, low: int, high: int) -> int:
    # bool is an int subclass; reject it explicitly so "cpus": true fails.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(BAD_REQUEST, f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ProtocolError(BAD_REQUEST, f"{name} must be in [{low}, {high}], got {value}")
    return value


def _as_scale(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(BAD_REQUEST, f"scale must be a number, got {value!r}")
    scale = float(value)
    if not 0.0 < scale <= MAX_SCALE:
        raise ProtocolError(BAD_REQUEST, f"scale must be in (0, {MAX_SCALE}], got {scale}")
    return scale


def _as_choice(name: str, value: Any, choices) -> str:
    if value not in choices:
        raise ProtocolError(
            BAD_REQUEST, f"unknown {name} {value!r}; choose from {sorted(choices)}"
        )
    return value


def _reject_unknown(params: Mapping[str, Any], allowed) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ProtocolError(BAD_REQUEST, f"unknown parameter(s): {', '.join(unknown)}")


def normalize(request: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate one decoded request; return a fully-defaulted spec dict.

    The spec is plain JSON-able data (it crosses the worker pipe as-is):
    ``{"verb": ..., <verb parameters with defaults applied>}``.  Raises
    :class:`ProtocolError` (code 400) for anything out of domain.
    """
    verb = request.get("verb")
    if verb not in VERBS:
        raise ProtocolError(BAD_REQUEST, f"unknown verb {verb!r}; choose from {list(VERBS)}")
    # verb/id are envelope fields; the trace context is observability
    # metadata — stripped here so it can never reach the job digest.
    params = {
        key: value
        for key, value in request.items()
        if key not in ("verb", "id", TRACE_FIELD)
    }

    if verb == "simulate":
        _reject_unknown(params, ("workload", "prefetcher", "cpus", "accesses_per_cpu", "seed"))
        return {
            "verb": verb,
            "workload": _as_choice("workload", _require(params, "workload"), APPLICATION_NAMES),
            "prefetcher": _as_choice(
                "prefetcher", params.get("prefetcher", "sms"), PREFETCHER_CHOICES
            ),
            "cpus": _as_int("cpus", params.get("cpus", 4), 1, MAX_CPUS),
            "accesses_per_cpu": _as_int(
                "accesses_per_cpu", params.get("accesses_per_cpu", 10_000),
                1, MAX_ACCESSES_PER_CPU,
            ),
            "seed": _as_int("seed", params.get("seed", 1), 0, 2**31 - 1),
        }

    if verb == "sweep":
        _reject_unknown(params, ("figure", "item", "scale", "num_cpus"))
        figure = _as_choice("figure", _require(params, "figure"), SWEEP_FIGURES)
        entry = SWEEP_FIGURES[figure]
        return {
            "verb": verb,
            "figure": figure,
            "item": _as_choice("item", _require(params, "item"), entry.items()),
            "scale": _as_scale(params.get("scale", 1.0)),
            "num_cpus": _as_int(
                "num_cpus", params.get("num_cpus", common.DEFAULT_NUM_CPUS), 1, MAX_CPUS
            ),
        }

    if verb == "experiment":
        _reject_unknown(params, ("figure", "scale", "num_cpus"))
        return {
            "verb": verb,
            "figure": _as_choice("figure", _require(params, "figure"), EXPERIMENT_FIGURES),
            "scale": _as_scale(params.get("scale", 1.0)),
            "num_cpus": _as_int(
                "num_cpus", params.get("num_cpus", common.DEFAULT_NUM_CPUS), 1, MAX_CPUS
            ),
        }

    # status / cache_stats take no parameters.
    _reject_unknown(params, ())
    return {"verb": verb}


# --------------------------------------------------------------------------- #
# Executable jobs
# --------------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class Job:
    """A resolved job: ``fn(*args, **kwargs)`` plus its originating spec."""

    verb: str
    fn: Callable[..., Any]
    args: Tuple
    kwargs: Dict[str, Any]

    def execute(self) -> Any:
        return self.fn(*self.args, **dict(self.kwargs))


def job_for(spec: Mapping[str, Any]) -> Job:
    """Resolve a normalized pool-verb spec into an executable :class:`Job`.

    ``status``/``cache_stats`` are answered by the server itself and have
    no job; requesting one here is a programming error.
    """
    verb = spec["verb"]
    if verb == "simulate":
        kwargs = {key: spec[key] for key in ("prefetcher", "cpus", "accesses_per_cpu", "seed")}
        return Job(verb, run_simulate, (spec["workload"],), kwargs)
    if verb == "sweep":
        entry = SWEEP_FIGURES[spec["figure"]]
        kwargs = dict(entry.defaults())
        kwargs["scale"] = spec["scale"]
        kwargs["num_cpus"] = spec["num_cpus"]
        return Job(verb, entry.fn, (spec["item"],), kwargs)
    if verb == "experiment":
        kwargs = {"scale": spec["scale"], "num_cpus": spec["num_cpus"]}
        return Job(verb, EXPERIMENT_FIGURES[spec["figure"]], (), kwargs)
    raise ValueError(f"verb {verb!r} does not dispatch to the worker pool")


#: Verbs that dispatch to the worker pool (everything else is served by the
#: front-end directly).
POOL_VERBS = ("simulate", "sweep", "experiment")


def digest_for(spec: Mapping[str, Any], cache: SweepResultCache) -> Optional[str]:
    """Content-addressed identity of a pool-verb request.

    This is the same (function identity, canonical args, code fingerprint)
    key :class:`SweepResultCache` uses for sweep tasks, so service results
    and command-line sweep results share one cache namespace.
    """
    job = job_for(spec)
    return cache.fingerprint(job.fn, job.args, job.kwargs)


def execute_spec(spec: Mapping[str, Any]) -> Any:
    """Run a normalized pool-verb spec and return its raw (picklable) result."""
    return job_for(spec).execute()


# --------------------------------------------------------------------------- #
# Wire conversion
# --------------------------------------------------------------------------- #
_JSON_SCALARS = (str, int, float, bool, type(None))


def jsonify(value: Any) -> Any:
    """Convert a raw job result into JSON-able data, deterministically.

    Handles the experiment result types: dataclasses, named tuples and
    slotted result objects (as field dicts), dicts with non-string keys (int
    sizes, (scheme, size) tuples — stringified), enums (their values), and
    nested containers.
    :class:`ResultTable` adds its rendered ``text`` so experiment replies can
    be compared byte-for-byte against the direct CLI output.
    """
    # Most of a reply is leaves (twelve of a simulate result's thirteen
    # values), so the scalar test comes first.  Exact types only: an Enum
    # member that subclasses int or str must still reach the Enum branch.
    if type(value) in _JSON_SCALARS:
        return value
    if isinstance(value, ResultTable):
        return {
            "title": value.title,
            "headers": list(value.headers),
            "rows": jsonify(value.rows),
            "text": value.to_text(),
        }
    if isinstance(value, Enum):
        return jsonify(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: jsonify(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {_key_str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        # A NamedTuple result (CoverageReport) goes out by field
        # name, as the dataclass it replaced did, not as a positional list.
        return jsonify(value._asdict())
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if isinstance(value, (bool, int, float, str)):
        return value  # a non-Enum subclass of a scalar type
    fields = getattr(type(value), "__slots__", ())
    if fields:
        # A slotted result object (DensityHistogram, ExecutionBreakdown): its
        # slots are its fields, sent by name as the dataclass it replaced was.
        return {name: jsonify(getattr(value, name)) for name in fields}
    raise TypeError(f"result of type {type(value).__name__} is not JSON-able")


def _key_str(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, Enum):
        return _key_str(key.value)
    if isinstance(key, tuple):
        return "/".join(_key_str(part) for part in key)
    return str(key)
