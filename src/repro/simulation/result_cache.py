"""Content-addressed on-disk memoization for sweep results.

Every figure of the paper re-runs the same deterministic per-item
simulations; across the fig04–fig13 suite (and across repeated invocations)
most tasks are exact repeats.  :class:`SweepResultCache` memoizes completed
:class:`~repro.simulation.sweep.SweepTask` results on disk, keyed by a
fingerprint of

* the task's function identity (``module.qualname``),
* its arguments and keyword arguments (canonically encoded, covering the
  task key, experiment configuration, and trace identity — workload name,
  CPU count, scale, and seed are all arguments of the experiment runners),
  and
* a *code fingerprint* of the whole ``repro`` package source, so any code
  change — workload generators included — invalidates every prior entry
  rather than silently serving stale results.

Entries are pickles stored under ``<digest>.pkl`` and written atomically
(:func:`atomic_store`), so concurrent sweep workers and interrupted
runs can never corrupt the cache; at worst a result is recomputed.  Each
entry is framed with a payload checksum (magic ``RSC1`` + SHA-256 +
pickle bytes): a torn or bit-flipped entry — a crash mid-write on a
non-atomic filesystem, disk trouble, a truncated restore — is *detected*
on read, moved to a ``quarantine/`` side directory for inspection, and
treated as a miss so the sweep regenerates it instead of raising or
silently serving garbage.

The cache is opt-in: library entry points take an explicit cache (or none),
``repro.cli experiment`` enables it by default with ``--no-cache`` as the
escape hatch, and the ``REPRO_SWEEP_CACHE=1`` environment variable turns it
on ambiently for programmatic sweeps.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Optional, Tuple, Union

from repro import _env, faults, obs
from repro.obs import trace

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable enabling the ambient default cache ("1" to enable).
CACHE_ENABLE_ENV = "REPRO_SWEEP_CACHE"

#: Subdirectory of the cache root holding memoized ``.strc`` traces
#: (see :mod:`repro.experiments.common`).
TRACES_SUBDIR = "traces"

#: Subdirectory of the cache root where corrupt entries are moved (never
#: deleted: a corrupt entry is evidence worth keeping until pruned).
QUARANTINE_SUBDIR = "quarantine"

#: Framing for checksummed sweep-cache entries:
#: ``RSC1`` + 32-byte SHA-256 of the payload + pickle payload.
ENTRY_MAGIC = b"RSC1"
_CHECKSUM_BYTES = 32

#: File-name prefix of atomic-write staging files (see :func:`atomic_store`).
_STAGING_PREFIX = ".tmp-"


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sms``."""
    override = _env.read(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-sms"


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every ``repro`` source file (names + contents).

    Computed once per process (~1 MB of source).  Any edit anywhere in the
    package — predictor, engine, workload generator — changes the
    fingerprint and therefore every cache key.
    """
    import repro

    package_root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class _Uncacheable(Exception):
    """Raised while fingerprinting a task that has no stable identity."""


def _canonical(value: Any, out: list) -> None:
    """Append a stable, type-tagged encoding of ``value`` to ``out``.

    Only data whose representation is process-independent is accepted;
    anything else (arbitrary objects, lambdas, open handles) raises
    :class:`_Uncacheable` and the task simply runs uncached.
    """
    if value is None or value is True or value is False:
        out.append(repr(value))
    elif isinstance(value, (int, float, str, bytes)):
        out.append(f"{type(value).__name__}:{value!r}")
    elif isinstance(value, (tuple, list)):
        out.append(f"{type(value).__name__}[")
        for item in value:
            _canonical(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("dict[")
        try:
            items = sorted(value.items())
        except TypeError as exc:
            raise _Uncacheable(f"unsortable dict keys: {exc}") from exc
        for key, item in items:
            _canonical(key, out)
            out.append("=")
            _canonical(item, out)
        out.append("]")
    else:
        raise _Uncacheable(f"value of type {type(value).__name__} has no stable encoding")


def _function_identity(fn: Callable[..., Any]) -> str:
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        raise _Uncacheable("function has no module/qualname")
    if "<lambda>" in qualname or "<locals>" in qualname:
        raise _Uncacheable(f"{qualname} is not an importable module-level function")
    return f"{module}.{qualname}"


class CacheStats:
    """Hit/miss counters for one cache instance.

    A plain class, not a ``@dataclass``: every command that opens the cache
    defines it, and ``dataclasses`` (+ ``inspect``) costs an all-hits figure
    more start-up than the figure itself.
    """

    __slots__ = ("hits", "misses", "skipped", "stores", "errors", "quarantined")

    def __init__(
        self,
        hits: int = 0,
        misses: int = 0,
        skipped: int = 0,
        stores: int = 0,
        errors: int = 0,
        quarantined: int = 0,
    ) -> None:
        self.hits = hits
        self.misses = misses
        self.skipped = skipped  # tasks with no stable fingerprint
        self.stores = stores
        self.errors = errors  # unreadable/unpicklable entries (treated as misses)
        self.quarantined = quarantined  # corrupt entries moved aside instead of served

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.as_dict().items())
        return f"CacheStats({fields})"


class SweepResultCache:
    """On-disk, content-addressed store of completed sweep task results."""

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    def fingerprint(self, fn: Callable[..., Any], args: Tuple, kwargs: Any) -> Optional[str]:
        """Digest identifying one task, or ``None`` when it has no stable key."""
        try:
            parts = [_function_identity(fn), "@", code_fingerprint(), "("]
            _canonical(tuple(args), parts)
            _canonical(dict(kwargs), parts)
            parts.append(")")
        except _Uncacheable:
            self.stats.skipped += 1
            obs.note_cache_op("sweep", "skip")
            return None
        return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()

    def _entry_path(self, digest: str) -> Path:
        # The digest already embeds the code fingerprint; prefixing the file
        # name with it too makes stale entries (from older code versions —
        # permanently unreachable, since any code change rewrites every
        # digest) recognizable from the directory listing alone, which is
        # what ``repro.cli cache prune`` relies on.
        return self.directory / f"{entry_prefix()}-{digest}.pkl"

    # ------------------------------------------------------------------ #
    def get(self, digest: str) -> Tuple[bool, Any]:
        """Return ``(True, value)`` on a hit, ``(False, None)`` on a miss.

        Corrupt entries — bad checksum, truncated frame, unpicklable
        payload — are quarantined (moved to ``quarantine/``) and reported
        as misses, so one damaged file costs one recompute, never a
        failed sweep or a silently wrong result.
        """
        path = self._entry_path(digest)
        with trace.span("cache.get", {"digest": digest[:16]}, root=False) as span:
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                self.stats.misses += 1
                obs.note_cache_op("sweep", "miss")
                span.set("outcome", "miss")
                return False, None
            except OSError as exc:
                self.stats.errors += 1
                self.stats.misses += 1
                obs.note_cache_op("sweep", "error", "miss")
                span.mark_error(f"unreadable entry: {exc}")
                warnings.warn(
                    f"could not read sweep cache entry {path.name}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return False, None
            try:
                value = self._decode(data)
            except Exception as exc:  # repro: ignore[EXC001] -- corrupt entry: quarantine and recompute, don't fail the sweep
                self.stats.errors += 1
                self.stats.quarantined += 1
                self.stats.misses += 1
                obs.note_cache_op("sweep", "error", "quarantine", "miss")
                span.mark_error(f"quarantined corrupt entry: {exc}")
                warnings.warn(
                    f"quarantining corrupt sweep cache entry {path.name}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                quarantine_file(path, self.directory)
                return False, None
            self.stats.hits += 1
            obs.note_cache_op("sweep", "hit")
            span.set("outcome", "hit")
            return True, value

    @staticmethod
    def _decode(data: bytes) -> Any:
        """Verify and unpickle one entry's bytes.

        Nothing is unpickled before its checksum matches: an entry's file
        name embeds the current code fingerprint, so every file :meth:`get`
        can open was written by :meth:`put`, which always frames.
        """
        header_end = len(ENTRY_MAGIC) + _CHECKSUM_BYTES
        if data[: len(ENTRY_MAGIC)] != ENTRY_MAGIC:
            raise ValueError("entry has no RSC1 frame")
        if len(data) < header_end:
            raise ValueError("truncated entry frame")
        checksum = data[len(ENTRY_MAGIC):header_end]
        payload = data[header_end:]
        if hashlib.sha256(payload).digest() != checksum:
            raise ValueError("entry checksum mismatch")
        return pickle.loads(payload)

    def put(self, digest: str, value: Any) -> None:
        """Store ``value`` under ``digest`` atomically; failures are non-fatal.

        The entry is framed as magic + SHA-256(payload) + payload so
        :meth:`get` can detect torn and corrupted writes.
        """
        path = self._entry_path(digest)
        with trace.span("cache.put", {"digest": digest[:16]}, root=False) as span:
            try:
                payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
                data = ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload
                spec = faults.check("cache.put")
                if spec is not None:
                    if spec.kind in faults.MANGLING_KINDS:
                        data = faults.mangle(spec, data)
                    else:
                        faults.act(spec)
                self.directory.mkdir(parents=True, exist_ok=True)
                atomic_store(path, lambda staging: staging.write_bytes(data))
            except (OSError, pickle.PicklingError) as exc:
                self.stats.errors += 1
                obs.note_cache_op("sweep", "error")
                span.mark_error(f"store failed: {exc}")
                warnings.warn(
                    f"could not store sweep cache entry: {exc}", RuntimeWarning,
                    stacklevel=2,
                )
                return
            self.stats.stores += 1
            obs.note_cache_op("sweep", "store")
            span.set("bytes", len(data))

    # ------------------------------------------------------------------ #
    def clear(self) -> int:
        """Delete every entry; return the number removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __repr__(self) -> str:
        return f"SweepResultCache(directory={str(self.directory)!r}, stats={self.stats})"


def entry_prefix() -> str:
    """File-name prefix tying cache entries to the current code fingerprint."""
    return code_fingerprint()[:16]


def atomic_store(path: Path, write: Callable[[Path], object]) -> None:
    """Fill ``path`` atomically: ``write(staging)``, then ``os.replace``.

    Readers and concurrent writers of the same entry never see a half-written
    file.  This is the one place that names a staging file —
    ``.tmp-<pid>-<thread id>`` next to ``path``, unique per writing thread
    and matching no entry glob — so that :func:`remove_temp_files` can remove
    exactly one process's leftovers without racing the writes of siblings
    sharing the directory.  The staging file is unlinked on any exception.
    """
    staging = path.with_name(f"{_STAGING_PREFIX}{os.getpid()}-{threading.get_ident()}")
    try:
        write(staging)
        os.replace(staging, path)
    except BaseException:  # repro: ignore[EXC001] -- re-raised after removing the staging file
        _unlink(staging)
        raise


def _staging_files(directory: Path, pids: Optional[set] = None) -> list:
    """Staging files in ``directory`` left by ``pids`` (``None``: by anyone)."""
    writers = None if pids is None else {str(pid) for pid in pids}
    return [
        path
        for path in directory.glob(f"{_STAGING_PREFIX}*")  # nothing if there is no directory
        if writers is None or path.name.split("-")[1] in writers
    ]


def quarantine_file(path: Path, root: Optional[Union[str, Path]] = None) -> Optional[Path]:
    """Move a corrupt cache file into ``<root>/quarantine/``; None on failure.

    Shared by the sweep cache and the trace cache: the damaged file is
    preserved for inspection (and pruning) instead of deleted, and the
    original name is kept so the offending entry stays identifiable.
    Pass the cache root as ``root`` so both caches share one quarantine
    directory; it defaults to the file's own parent.
    """
    quarantine_root = Path(root) if root is not None else path.parent
    destination = quarantine_root / QUARANTINE_SUBDIR / path.name
    try:
        destination.parent.mkdir(parents=True, exist_ok=True)
        os.replace(str(path), str(destination))
    except OSError:
        # Fall back to deletion: a corrupt entry must never be served again.
        _unlink(path)
        return None
    return destination


def _tally(paths) -> Tuple[int, int]:
    """(count, total bytes) over ``paths``, tolerating concurrent deletion."""
    count = 0
    total = 0
    for path in paths:
        try:
            total += path.stat().st_size
        except OSError:
            continue
        count += 1
    return count, total


def cache_overview(directory: Optional[Union[str, Path]] = None) -> dict:
    """Entry counts and byte sizes for the sweep and trace caches.

    ``stale`` entries carry a code fingerprint other than the current
    package's — they can never be served again (every lookup key embeds the
    current fingerprint) and are what :func:`prune_cache` removes.  Temp
    files are atomic-write staging left behind by interrupted runs; the
    ``quarantine`` count covers corrupt entries moved aside on read.
    """
    root = Path(directory) if directory is not None else default_cache_dir()
    prefix = f"{entry_prefix()}-"
    sweep_fresh, sweep_stale = [], []
    if root.is_dir():
        for path in root.glob("*.pkl"):
            (sweep_fresh if path.name.startswith(prefix) else sweep_stale).append(path)
    traces_root = root / TRACES_SUBDIR
    suffix = f"-{entry_prefix()}.strc"
    trace_fresh, trace_stale = [], []
    if traces_root.is_dir():
        for path in traces_root.glob("*.strc"):
            (trace_fresh if path.name.endswith(suffix) else trace_stale).append(path)

    def section(fresh, stale, temp) -> dict:
        entries, entry_bytes = _tally(fresh)
        stale_entries, stale_bytes = _tally(stale)
        return {
            "entries": entries,
            "bytes": entry_bytes,
            "stale_entries": stale_entries,
            "stale_bytes": stale_bytes,
            "temp_files": len(temp),
        }

    quarantine_root = root / QUARANTINE_SUBDIR
    quarantined, quarantined_bytes = _tally(
        quarantine_root.glob("*") if quarantine_root.is_dir() else []
    )
    return {
        "directory": str(root),
        "sweep": section(sweep_fresh, sweep_stale, _staging_files(root)),
        "traces": section(trace_fresh, trace_stale, _staging_files(traces_root)),
        "quarantine": {"entries": quarantined, "bytes": quarantined_bytes},
    }


def prune_cache(directory: Optional[Union[str, Path]] = None) -> dict:
    """Remove stale-fingerprint entries and temp files from both caches.

    Safe with respect to live data — current-fingerprint entries are never
    touched — but should not race a *running* sweep, whose in-progress
    atomic writes stage through the temp files this removes.
    Returns removal counts per category.
    """
    root = Path(directory) if directory is not None else default_cache_dir()
    prefix = f"{entry_prefix()}-"
    removed = {"sweep_entries": 0, "trace_entries": 0, "temp_files": 0, "quarantined": 0}
    if root.is_dir():
        for path in root.glob("*.pkl"):
            if not path.name.startswith(prefix):
                removed["sweep_entries"] += _unlink(path)
    traces_root = root / TRACES_SUBDIR
    suffix = f"-{entry_prefix()}.strc"
    if traces_root.is_dir():
        for path in traces_root.glob("*.strc"):
            if not path.name.endswith(suffix):
                removed["trace_entries"] += _unlink(path)
    quarantine_root = root / QUARANTINE_SUBDIR
    if quarantine_root.is_dir():
        for path in quarantine_root.glob("*"):
            if path.is_file():
                removed["quarantined"] += _unlink(path)
    removed["temp_files"] = remove_temp_files(root)
    return removed


def remove_temp_files(
    directory: Optional[Union[str, Path]] = None,
    pids: Optional[set] = None,
) -> int:
    """Delete atomic-write staging files from both cache directories.

    Interrupted or killed processes (Ctrl-C'd sweeps, SIGKILLed serve
    workers) leak the staging files of :func:`atomic_store` in the sweep
    cache and the trace cache; completed entries are never touched.
    ``pids`` scopes removal to those writers' files — pass it
    whenever sibling processes may share the directory with live atomic
    writes in flight; ``None`` removes every process's staging files and is
    only safe when no writer is running.  Returns the number removed.
    """
    root = Path(directory) if directory is not None else default_cache_dir()
    return sum(
        _unlink(path)
        for cache_dir in (root, root / TRACES_SUBDIR)
        for path in _staging_files(cache_dir, pids)
    )


def _unlink(path: Path) -> int:
    try:
        path.unlink()
    except OSError:
        return 0
    return 1


#: Sentinel distinguishing "never configured" from "explicitly disabled".
_AMBIENT_UNSET = object()
_ambient_cache: Any = _AMBIENT_UNSET


def set_default_cache(cache: Optional[SweepResultCache]) -> Any:
    """Set (or, with ``None``, disable) the process-wide ambient cache.

    Entry points that own the process — the CLI, the benchmark harness —
    use this to configure caching for every sweep they trigger without
    threading a cache argument through each figure runner.  An explicit
    setting overrides the ``REPRO_SWEEP_CACHE`` environment default.

    Returns an opaque token for the previous setting; pass it back to this
    function to restore whatever was configured before (including the
    "never configured" state), so scoped use does not clobber a caller's
    ambient cache::

        previous = set_default_cache(my_cache)
        try:
            ...
        finally:
            set_default_cache(previous)
    """
    global _ambient_cache
    previous = _ambient_cache
    _ambient_cache = cache
    return previous


def default_cache() -> Optional[SweepResultCache]:
    """The ambient cache for sweeps that were not handed one explicitly.

    Resolution order: :func:`set_default_cache`'s setting, then
    ``REPRO_SWEEP_CACHE=1`` (library/test runs default to no caching so
    results never depend on on-disk state unless asked for).
    """
    if _ambient_cache is not _AMBIENT_UNSET:
        return _ambient_cache
    if _env.flag(CACHE_ENABLE_ENV):
        return SweepResultCache()
    return None
