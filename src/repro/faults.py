"""Deterministic fault injection for the fault-tolerance layer.

Every robustness claim in this repository — resumable sweeps, worker
respawn, cache quarantine — is tested against *injected* faults, and an
injected fault must be as reproducible as a simulation result.  This module
provides seeded-by-construction fault *plans*: a plan names the injection
sites that misbehave, the kind of misbehaviour, and the exact occurrences
(1-based hit counts per site, counted per process) on which it fires.
Nothing here draws entropy or reads a clock; the same plan against the same
workload fails at exactly the same points, run after run.

Plans are activated two ways:

* programmatically, with :func:`install_plan` (tests, chaos drills); or
* ambiently, through the ``REPRO_FAULTS`` environment variable (read via
  :mod:`repro._env`), which forked sweep and serve workers inherit — the
  one channel that reaches a worker that was spawned before the test
  existed.

Plan syntax (``;``-separated entries)::

    site:kind@when[:param=value[,param=value...]]

    REPRO_FAULTS="pool.worker:crash@2"          # 2nd pool job kills its worker
    REPRO_FAULTS="sweep.point:crash@3"          # 3rd sweep point kills the process
    REPRO_FAULTS="cache.put:torn@1;pool.worker:hang@2:seconds=60"

``when`` selects occurrences: ``*`` (every hit), ``3`` (the 3rd), ``2,5``
(a list), or ``3+`` (the 3rd onward).  Each process counts its own hits
per site, so "the worker's 2nd job" and "the parent's 2nd point" are
distinct, deterministic events.

Fault kinds
-----------

``crash``
    ``os._exit(code)`` — the process dies as if SIGKILLed, mid-task, with
    no cleanup (param ``code``, default 137).
``hang``
    Sleep for ``seconds`` (default 3600) — a wedged task, for exercising
    deadlines.  The sleeping process still dies on SIGTERM.
``error``
    Raise :class:`InjectedFault` — a task failure without a process death.
``disconnect``
    Raise :class:`ConnectionResetError` — a dropped connection (an
    ``OSError``, so transport error paths handle it).
``enospc``
    Raise ``OSError(ENOSPC)`` — disk full at a write site.
``torn`` / ``flip``
    Byte-level write faults with no generic action: the write site passes
    its payload through :func:`mangle`, which truncates it mid-payload
    (``torn``) or corrupts one byte (``flip``, param ``offset``).

Sites wired in this package: ``sweep.point`` (per sweep-task execution,
parent or sweep worker), ``pool.worker`` (per task in a pool worker: a serve
job, or a point of a parallel sweep),
``cache.put`` (sweep result cache writes), ``client.send`` (serve client
requests).
"""

from __future__ import annotations

import os
import time
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

from repro import _env

__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "check",
    "fire",
    "install_plan",
    "mangle",
]

#: Environment variable carrying the ambient fault plan (inherited by
#: forked workers; empty/unset means no faults).
FAULTS_ENV = "REPRO_FAULTS"

#: Fault kinds with a generic action (:func:`act`); ``torn``/``flip`` are
#: byte-mangling kinds the write site applies itself via :func:`mangle`.
ACTING_KINDS = ("crash", "hang", "error", "disconnect", "enospc")
MANGLING_KINDS = ("torn", "flip")


class InjectedFault(RuntimeError):
    """The error raised by an ``error``-kind fault."""


class FaultSpec(NamedTuple):
    """One plan entry: fire ``kind`` at ``site`` on selected occurrences.

    A ``NamedTuple`` (every command imports this module; none may pay for
    ``dataclasses``); it is never a sweep-task argument, so it has no part
    in any cache key.
    """

    site: str
    kind: str
    #: Explicit 1-based occurrence numbers (empty with ``every``/``after``).
    occurrences: Tuple[int, ...] = ()
    #: Fire on every occurrence (``@*``).
    every: bool = False
    #: Fire from this occurrence onward (``@3+``), 0 = disabled.
    after: int = 0
    #: ``None`` = no parameters (a tuple field cannot default to a fresh dict).
    params: Optional[Mapping[str, str]] = None

    def fires_on(self, occurrence: int) -> bool:
        if self.every:
            return True
        if self.after and occurrence >= self.after:
            return True
        return occurrence in self.occurrences

    def param(self, name: str, default: str) -> str:
        return (self.params or {}).get(name, default)


class FaultPlan:
    """A parsed set of :class:`FaultSpec` entries plus per-site hit counters.

    Counters live on the plan instance and count hits *in this process*;
    a forked child starts from a copy of the parent's counts, so plans
    aimed at worker-side sites should use sites the parent never hits.
    """

    def __init__(self, specs: Tuple[FaultSpec, ...], text: str = "") -> None:
        self.specs = specs
        self.text = text
        self._counts: Dict[str, int] = {}

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``site:kind@when[:k=v,...]`` plan syntax (see module doc)."""
        specs = []
        for raw_entry in text.split(";"):
            entry = raw_entry.strip()
            if not entry:
                continue
            specs.append(_parse_entry(entry))
        return cls(tuple(specs), text=text)

    def hit(self, site: str) -> Optional[FaultSpec]:
        """Count one hit of ``site``; return the spec that fires, if any."""
        count = self._counts.get(site, 0) + 1
        self._counts[site] = count
        for spec in self.specs:
            if spec.site == site and spec.fires_on(count):
                return spec
        return None

    def counts(self) -> Dict[str, int]:
        """Per-site hit counts so far (for assertions and reports)."""
        return dict(self._counts)

    def __repr__(self) -> str:
        return f"FaultPlan({self.text!r})"


def _parse_entry(entry: str) -> FaultSpec:
    site, sep, kind_when = entry.partition(":")
    if not sep or not site:
        raise ValueError(f"fault entry {entry!r} is not site:kind@when")
    kind_when, _, param_text = kind_when.partition(":")
    kind, _, when = kind_when.partition("@")
    kind = kind.strip()
    if kind not in ACTING_KINDS + MANGLING_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r} in {entry!r}; "
            f"choose from {sorted(ACTING_KINDS + MANGLING_KINDS)}"
        )
    occurrences: Tuple[int, ...] = ()
    every = False
    after = 0
    when = when.strip() or "1"
    if when == "*":
        every = True
    elif when.endswith("+"):
        after = _parse_occurrence(when[:-1], entry)
    else:
        occurrences = tuple(
            _parse_occurrence(part, entry) for part in when.split(",") if part.strip()
        )
    params: Dict[str, str] = {}
    if param_text:
        for pair in param_text.split(","):
            key, sep, value = pair.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"fault param {pair!r} in {entry!r} is not key=value")
            params[key.strip()] = value.strip()
    return FaultSpec(
        site=site.strip(), kind=kind, occurrences=occurrences,
        every=every, after=after, params=params,
    )


def _parse_occurrence(text: str, entry: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise ValueError(f"bad occurrence {text!r} in fault entry {entry!r}") from exc
    if value < 1:
        raise ValueError(f"occurrences are 1-based, got {value} in {entry!r}")
    return value


# --------------------------------------------------------------------------- #
# Plan activation
# --------------------------------------------------------------------------- #
#: Sentinel distinguishing "never installed" from "explicitly disabled".
_PLAN_UNSET = object()
_installed_plan = _PLAN_UNSET
#: Cache of the env-activated plan, keyed by the raw env string so the same
#: string keeps one plan instance (and therefore one set of counters) per
#: process, while a changed env (tests using scoped_env) re-parses.
_env_plan_text: Optional[str] = None
_env_plan: Optional[FaultPlan] = None


def install_plan(plan) -> object:
    """Install ``plan`` (a :class:`FaultPlan`, plan string, or ``None``).

    ``None`` disables fault injection regardless of the environment.
    Returns an opaque token; pass it back to restore the previous state
    (including "never installed", which re-enables env activation)::

        previous = faults.install_plan("cache.put:torn@1")
        try:
            ...
        finally:
            faults.install_plan(previous)
    """
    global _installed_plan
    previous = _installed_plan
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _installed_plan = plan
    return previous


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else the ``REPRO_FAULTS`` env plan, else ``None``."""
    global _env_plan_text, _env_plan
    if _installed_plan is not _PLAN_UNSET:
        return _installed_plan  # type: ignore[return-value]
    text = _env.read(FAULTS_ENV) or ""
    if not text:
        return None
    if text != _env_plan_text:
        _env_plan_text = text
        _env_plan = FaultPlan.parse(text)
    return _env_plan


# --------------------------------------------------------------------------- #
# Injection-site API
# --------------------------------------------------------------------------- #
def check(site: str) -> Optional[FaultSpec]:
    """Count one hit of ``site`` against the active plan; no action taken.

    Write sites use this to obtain ``torn``/``flip`` specs for
    :func:`mangle`; for self-acting kinds, call :func:`act` on the result
    (or use :func:`fire`, which does both).
    """
    plan = active_plan()
    if plan is None:
        return None
    return plan.hit(site)


def fire(site: str) -> None:
    """Count one hit of ``site`` and perform the fired fault's action."""
    spec = check(site)
    if spec is not None:
        act(spec)


def act(spec: FaultSpec) -> None:
    """Perform the generic action of a fired spec (see module doc)."""
    if spec.kind == "crash":
        os._exit(int(spec.param("code", "137")))
    if spec.kind == "hang":
        time.sleep(float(spec.param("seconds", "3600")))
        return
    if spec.kind == "error":
        raise InjectedFault(f"injected fault at {spec.site}")
    if spec.kind == "disconnect":
        raise ConnectionResetError(f"injected disconnect at {spec.site}")
    if spec.kind == "enospc":
        import errno

        raise OSError(errno.ENOSPC, f"injected ENOSPC at {spec.site}")
    # torn/flip have no generic action; the write site applies mangle().


def mangle(spec: FaultSpec, data: bytes) -> bytes:
    """Apply a byte-level write fault: truncate (``torn``) or corrupt (``flip``)."""
    if spec.kind == "torn":
        return data[: max(1, len(data) // 2)]
    if spec.kind == "flip":
        if not data:
            return data
        offset = int(spec.param("offset", str(len(data) // 2)))
        offset = min(max(offset, 0), len(data) - 1)
        corrupted = bytearray(data)
        corrupted[offset] ^= 0xFF
        return bytes(corrupted)
    return data
