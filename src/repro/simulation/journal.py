"""Append-only per-point completion journal for resumable sweeps.

A sweep that dies mid-run — SIGKILL, OOM, a nightly job's time limit —
used to lose every completed-but-unstored point.  The journal closes that
window: as each sweep point completes, the parent appends one ndjson
record (``{"digest": ..., "status": "done", ...}``) *after* the point's
result is durable in the :class:`~repro.simulation.result_cache.\
SweepResultCache`.  A restarted sweep loads the journal, answers the
journaled points from the cache, and executes only what is missing — the
resume path ``repro.cli experiment --resume`` and the nightly job rely on.

Design constraints, in order:

* **Crash-safe appends.**  Each record is one ``os.write`` of one short
  line on an ``O_APPEND`` descriptor — the POSIX-atomic append shape — so
  concurrent writers (parallel sweeps, a serve daemon sharing the cache
  directory) interleave whole lines, and a crash can tear at most the
  final line.
* **Torn tails are data loss, not corruption.**  :meth:`SweepJournal.load`
  skips undecodable lines instead of raising; a torn record merely means
  that point recomputes.  A torn write has no trailing newline, so the
  *next* append lands on the same physical line — the loader recovers the
  intact record from the tail of such a merged line, so one torn write
  costs exactly one record.
* **Keyed to the code fingerprint.**  The journal file name embeds
  :func:`~repro.simulation.result_cache.entry_prefix`, matching the cache
  entries it indexes: a code change starts a fresh journal, and stale
  journals are prunable by listing, exactly like stale cache entries.
* **No wall-clock, no entropy.**  Records carry digests, statuses, and
  attempt counts — nothing that varies run to run — so journals from
  identical runs are byte-identical, like everything else here.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Optional, Set, Union

from repro import faults, obs
from repro.obs import trace
from repro.simulation.result_cache import entry_prefix

__all__ = ["SweepJournal", "journal_path"]

#: Subdirectory of the cache root holding completion journals.
JOURNAL_SUBDIR = "journal"


def journal_path(directory: Union[str, Path]) -> Path:
    """Journal file for the current code fingerprint under ``directory``."""
    return Path(directory) / JOURNAL_SUBDIR / f"sweep-{entry_prefix()}.ndjson"


def _parse_line(line: bytes) -> Optional[dict]:
    """One journal line -> record dict, or ``None`` if unrecoverable.

    A crash can tear the final append, leaving a truncated record with no
    newline; the next append then lands on the same physical line
    (``{"atte...{"attempts": 1, ...}``).  When the whole line does not
    parse, retry from each later ``{`` so the intact trailing record is
    recovered and only the torn one is lost.
    """
    import json

    text = line.decode("utf-8", errors="replace")
    start = 0
    while True:
        try:
            record = json.loads(text[start:])
        except json.JSONDecodeError:
            start = text.find("{", start + 1)
            if start < 0:
                return None
            continue
        return record if isinstance(record, dict) else None


class SweepJournal:
    """Append-only record of sweep-point completions in one cache directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.path = journal_path(directory)
        self._loaded: Optional[Dict[str, dict]] = None

    # ------------------------------------------------------------------ #
    def load(self) -> Dict[str, dict]:
        """Latest record per digest; torn/invalid lines are skipped.

        The parse is cached on the instance — a sweep loads once up front
        and then only appends; construct a fresh journal to re-read.
        """
        if self._loaded is not None:
            return self._loaded
        records: Dict[str, dict] = {}
        try:
            with self.path.open("rb") as handle:
                for line in handle:
                    record = _parse_line(line)
                    digest = record.get("digest") if record is not None else None
                    if isinstance(digest, str):
                        records[digest] = record
        except OSError:
            pass  # no journal yet — nothing to resume
        self._loaded = records
        return records

    def completed(self) -> Set[str]:
        """Digests whose latest record is ``status == "done"``."""
        return {
            digest
            for digest, record in self.load().items()
            if record.get("status") == "done"
        }

    def failed(self) -> Dict[str, dict]:
        """Latest record per digest whose status is ``"failed"``."""
        return {
            digest: record
            for digest, record in self.load().items()
            if record.get("status") == "failed"
        }

    # ------------------------------------------------------------------ #
    def record(self, digest: str, status: str, **fields: Any) -> None:
        """Append one record; failures are non-fatal (the sweep goes on).

        Call only after the fact it records is durable (the cache entry
        written) — the journal is the index, the cache is the data.
        """
        import json  # a sweep without a journal never loads it

        record = {"digest": digest, "status": status}
        record.update(fields)
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with trace.span(
            "journal.append", {"status": status, "digest": digest[:16]}, root=False
        ) as span:
            spec = faults.check("journal.append")
            if spec is not None:
                if spec.kind in faults.MANGLING_KINDS:
                    line = faults.mangle(spec, line)
                else:
                    faults.act(spec)
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(str(self.path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
                try:
                    os.write(fd, line)
                finally:
                    os.close(fd)
            except OSError:
                span.mark_error("journal append failed")
                return  # a lost journal line costs one recompute on resume
        obs.counter(
            "repro_sweep_journal_appends_total",
            "Journal records appended, by completion status.",
            labels=("status",),
        ).labels(status).inc()
        if self._loaded is not None:
            self._loaded[digest] = record

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:
        return f"SweepJournal(path={str(self.path)!r})"
