"""Engine-path census: which loop did this process's engine runs take?

A light module on purpose — the engine tallies into it, and the sweep
runner, the ``experiment`` summary line and the serve front-end read it
without importing the engine, so printing ``engine: 0 lanes / 0 reference``
costs no engine import.

The tallies are plain ints: the answer to "which engine path did this
request take" must not depend on ``REPRO_OBS`` (a :class:`NullRegistry` drops
every counter).  They are mirrored into ``repro_engine_runs_total`` /
``repro_engine_fallback_total`` for the metrics gateway when obs is on.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import obs

#: Why a run took the reference loop instead of the lane loop.  The input
#: type is never a reason: any trace can be transposed into lanes.
FALLBACK_REASONS = ("disabled", "replacement", "prefetcher")

_tallies: Dict[str, int] = {
    "lanes": 0,
    "reference": 0,
    **{f"fallback:{reason}": 0 for reason in FALLBACK_REASONS},
}


def _runs_counter():
    return obs.counter(
        "repro_engine_runs_total",
        "Engine runs by simulation path (lanes fast path vs reference loop).",
        labels=("path",),
    )


def _fallback_counter():
    return obs.counter(
        "repro_engine_fallback_total",
        "Reference-path engine runs by the reason the lane loop was vetoed.",
        labels=("reason",),
    )


def absorb_engine_path_counts(counts: Dict[str, int]) -> None:
    """Add engine runs to this process's census: the engine's own (one per
    run), and those a child process made (its :func:`engine_path_counts` over
    one task), so a parallel sweep's parent and the serve front-end report
    the runs their workers made."""
    for key, value in counts.items():
        if value > 0:
            _tallies[key] += value
            family, _, label = key.rpartition(":")
            (_fallback_counter() if family else _runs_counter()).labels(label).inc(value)


def engine_path_counts(since: Optional[Dict[str, int]] = None) -> Dict[str, int]:
    """Engine runs counted in this process: ``lanes``, ``reference``, and one
    ``fallback:<reason>`` entry per veto reason — less an earlier snapshot
    when ``since`` is given."""
    if since is None:
        return dict(_tallies)
    return {key: value - since.get(key, 0) for key, value in _tallies.items()}


def format_engine_path_counts(counts: Dict[str, int]) -> str:
    """``engine: N lanes / M reference`` plus, when any run fell back, why."""
    reasons = ", ".join(
        f"{count} {key.partition(':')[2]}"
        for key, count in counts.items()
        if count and key.startswith("fallback:")
    )
    note = f"engine: {counts['lanes']} lanes / {counts['reference']} reference"
    return f"{note} ({reasons})" if reasons else note
