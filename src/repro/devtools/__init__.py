"""Static analysis for the reproduction's correctness contracts.

``python -m repro.devtools.lint src/repro`` (or ``python -m repro.cli
lint``) runs a stdlib-only, AST-based analyzer over the package and fails
on any finding.  The rules are machine checks for invariants the rest of
the system silently depends on: byte-identical determinism (golden-counter
tests, the content-addressed sweep cache, serve-side request coalescing),
the stdlib-only deployment story, fork-safety of ambient state, and the
hot-loop allocation discipline.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage error.

Rule catalog
------------

**DET — determinism** (all result-producing modules, i.e. everything
outside ``devtools/``)

``DET001`` *unseeded global RNG.*  ``random.random()`` et al. draw from the
  time-seeded interpreter global; results differ run to run.
  Fix: a seeded ``random.Random(seed)`` instance.
  Example: ``jitter = random.random()`` → ``rng.random()``.

``DET002`` *wall-clock read.*  ``time.time`` / ``datetime.now`` /
  ``date.today`` values can leak into results or cache keys.  Monotonic and
  perf counters (duration display) are not flagged.

``DET003`` *ambient entropy.*  ``uuid.uuid1/uuid4``, ``os.urandom``,
  ``secrets.*``, ``random.SystemRandom`` can never be replayed.

``DET004`` *builtin hash() feeding a digest.*  ``hash()`` of str/bytes is
  salted per process (``PYTHONHASHSEED``); flowing it into a
  digest/fingerprint/cache-key sink desynchronizes sweep workers.
  Fix: ``repro.core.pht.stable_hash`` or hashing the encoded value.

``DET005`` *unordered set iteration near a serialization/cache-key sink.*
  Set iteration order follows the salted hash; in a function that builds a
  digest or serialized payload, iterate ``sorted(the_set)``.

**ENV — ambient environment** (everywhere except ``repro/_env.py``)

``ENV001`` *direct os.environ access.*  All environment access goes through
  :mod:`repro._env` (``read``/``flag``/``export``/``scoped_env``) so reads
  are auditable and writes are scoped-with-restore or explicit exports.

**IMP — stdlib-only imports**

``IMP001`` *third-party import.*  ``src/repro`` runs on a bare interpreter
  (the serve CI job deploys it with no installs); any non-stdlib,
  non-``repro`` import — even try/except-gated — is a finding.

**HOT — hot-path discipline** (every function of ``simulation/engine.py``,
``core/pht.py``, ``trace/binary.py``, plus *lane functions* — functions
whose name contains ``lane``, and closures nested in one — in any module:
the lane fast path spills into ``core/sms.py`` and ``trace/stream.py``)

``HOT001`` *object construction in a hot loop.*  Per-record constructor
  calls are the allocation cost the batch-lane work removes; hoist them.
  Exception constructors on ``raise`` (error paths) are exempt.

``HOT002`` *deep attribute chain in a hot loop.*  Chains of 3+ attributes
  (``self.result.traffic.record(...)``) re-resolve every iteration; bind a
  local before the loop.

``HOT003`` *try/except inside a hot loop.*  Hoist the ``try`` around the
  loop or pre-validate the batch.

``HOT004`` *per-record boxing inside a lane-path function.*  Calling the
  ``LaneChunk`` ``record()``/``records()`` escape hatches, building
  ``MemoryAccess`` tuples (directly or via ``tuple.__new__``) from lane
  data, or boxing a cache set's packed flags back into a ``CacheLine``, a
  packed directory word into a ``DirectoryEntry`` / ``CoherenceActions``,
  or a packed SMS state word into a ``GenerationRecord`` / ``AGTEvent`` /
  ``TriggerInfo`` / ``PredictionRegister`` / ``StreamRequest`` /
  ``SpatialPattern``, or boxing a *generated* access (``make_access(...)``,
  ``record._replace(...)``) in a workload's batch producer reintroduces the
  per-record allocation the lane path removes.
  Lane-path functions are those named ``*lane*`` (``_step_lanes``,
  ``LaneTrace.iter_lane_chunks``, a workload's ``lane_batches`` and
  ``lane_writer``), closures nested in them, and the ``from_records``
  builders of lane-named classes.

**EXC — exception discipline**

``EXC001`` *broad except without a justification tag.*  ``except
  Exception``/``BaseException``/bare ``except`` swallows the bugs the
  golden tests exist to catch.  Narrow it, or justify it in place (see
  below).

**ROB — service-layer robustness** (``serve/``)

``ROB001`` *blocking receive without a timeout.*  ``Queue.get()`` /
  ``Connection.recv()`` / socket ``accept()`` with no deadline blocks
  forever when the peer dies, wedging a dispatch thread or shutdown.
  Pass a timeout, guard with a timed ``poll``, or justify in place
  (an idle worker parked on its supervised pipe is the sanctioned case).

**OBS — observability** (everywhere, ``devtools/`` included)

``OBS001`` *duration measured with the wall clock.*  ``time.time()`` deltas
  are not durations — NTP slews and clock steps make them negative or
  hours long.  Metrics and timing spans use ``time.perf_counter`` (see the
  :mod:`repro.obs` naming convention).

**SUP / SYN — meta**

``SUP001`` malformed suppression (missing justification or unknown rule)
  — the suppression is ignored and reported.
``SUP002`` suppression on a line where the named rule does not fire.
``SYN001`` file does not parse / cannot be read.

Suppressing a finding
---------------------

Add, on the offending line::

    # repro: ignore[EXC001] -- cleanup must never mask the exit path

The rule list takes IDs or families (``ignore[HOT]``), and the
justification after ``--`` is required.  Findings can also be grandfathered
wholesale into a committed baseline (``--write-baseline``, see
:mod:`repro.devtools.baseline`); this repository's baseline is empty and
should stay that way.
"""

from repro.devtools.rules import RULES, Finding  # noqa: F401

__all__ = ["RULES", "Finding"]
