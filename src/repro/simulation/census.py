"""Engine-path census: which loop did this process's engine runs take?

A light module on purpose — the engine tallies into it, and the sweep
runner, the ``experiment`` summary line and the serve front-end read it
without importing the engine, so printing ``engine: 0 lanes / 0 reference``
costs no engine import.

The tallies are plain ints, not a registry read: a sweep or serve worker's
registry dies with the worker, so its runs come back as a dict and are
absorbed here.  They are mirrored into ``repro_engine_runs_total`` for the
metrics gateway.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import obs

#: ``lanes`` is the production loop; ``reference`` runs only for callers that
#: pass ``lanes=False`` (the parity tests and the benchmark's probes).
_tallies: Dict[str, int] = {"lanes": 0, "reference": 0}


def absorb_engine_path_counts(counts: Dict[str, int]) -> None:
    """Add engine runs to this process's census: the engine's own (one per
    run), and those a child process made (its :func:`engine_path_counts` over
    one task), so a parallel sweep's parent and the serve front-end report
    the runs their workers made."""
    for path, value in counts.items():
        if value > 0:
            _tallies[path] += value
            obs.counter(
                "repro_engine_runs_total",
                "Engine runs by simulation path (lane loop vs reference loop).",
                labels=("path",),
            ).labels(path).inc(value)


def engine_path_counts(since: Optional[Dict[str, int]] = None) -> Dict[str, int]:
    """Engine runs counted in this process, ``lanes`` and ``reference`` — less
    an earlier snapshot when ``since`` is given."""
    if since is None:
        return dict(_tallies)
    return {path: value - since.get(path, 0) for path, value in _tallies.items()}


def format_engine_path_counts(counts: Dict[str, int]) -> str:
    """``engine: N lanes / M reference``."""
    return f"engine: {counts['lanes']} lanes / {counts['reference']} reference"
