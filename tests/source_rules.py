"""Static checks for the reproduction's correctness contracts.

A stdlib-only, AST-based analyzer that ``tests/test_devtools_lint.py`` runs
over ``src/repro`` in tier-1: the package must produce zero findings.  The
rules are machine checks for invariants the rest of the system silently
depends on: byte-identical determinism (golden-counter tests, the
content-addressed sweep cache, serve-side request coalescing), the
stdlib-only deployment story, fork-safety of ambient state, and the hot-loop
allocation discipline.  A file that does not parse raises ``SyntaxError``.

Rule catalog
------------

**DET — determinism** (every module: each one can sit upstream of a result
or a cache key)

``DET001`` *unseeded global RNG.*  ``random.random()`` et al. draw from the
  time-seeded interpreter global; results differ run to run.
  Fix: a seeded ``random.Random(seed)`` instance.

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
  ``TriggerInfo`` / ``StreamRequest`` /
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

**OBS — observability**

``OBS001`` *duration measured with the wall clock.*  ``time.time()`` deltas
  are not durations — NTP slews and clock steps make them negative or
  hours long.  Metrics and timing spans use ``time.perf_counter`` (see the
  :mod:`repro.obs` naming convention).

``OBS002`` *hand-rolled span.*  A raw ``start = time.perf_counter()`` ...
  delta measures a duration no metric or trace sees; wrap the region in
  ``trace.span()``.  ``obs/`` itself is exempt (raw clock pairs are its
  job); the finding anchors on the assignment, so one justified tag covers
  the pair.

**SUP — suppressions**

``SUP001`` malformed suppression (missing justification or unknown rule)
  — the suppression is ignored and reported.
``SUP002`` suppression on a line where the named rule does not fire.

Suppressing a finding
---------------------

Add, on the offending line::

    # repro: ignore[EXC001] -- cleanup must never mask the exit path

The list names rule IDs (``ignore[HOT002,HOT003]``), and the justification
after ``--`` is required.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple, Union

PACKAGE = "repro"

#: Modules whose inner loops are throughput-critical (HOT rules apply to
#: every function in them).
HOT_MODULES = frozenset({"simulation/engine.py", "core/pht.py", "trace/binary.py"})

#: The only module allowed to read or write ``os.environ`` directly.
ENV_ALLOWLIST = frozenset({"_env.py"})

#: Callee names that mark a call as a serialization sink for the DET taint
#: rules, matched against the import-resolved dotted callee.
SINK_CALLEES = frozenset(
    {"json.dump", "json.dumps", "pickle.dump", "pickle.dumps", "marshal.dump", "marshal.dumps"}
)

#: Substrings of a (lowercased) callee name that mark it as a sink in its
#: own right — our cache-key builders and fingerprint helpers.
SINK_NAME_FRAGMENTS = ("fingerprint", "digest", "cache_key", "canonical", "stable_hash")

#: ``hashlib`` constructors (``hashlib.sha256(...)`` is a sink call).
HASHLIB_CONSTRUCTORS = frozenset(
    {"sha1", "sha224", "sha256", "sha384", "sha512", "md5", "blake2b", "blake2s",
     "sha3_224", "sha3_256", "sha3_384", "sha3_512", "shake_128", "shake_256", "new"}
)

#: Receiver-name substrings for which ``.update(...)`` / ``.hexdigest()``
#: counts as a digest sink (``digest.update(chunk)``).
DIGEST_RECEIVER_FRAGMENTS = ("digest", "hash", "sha", "md5")

#: ``random`` module entry points that draw from the unseeded global RNG.
UNSEEDED_RANDOM_FUNCTIONS = frozenset(
    {
        "random", "randint", "randrange", "randbytes", "choice", "choices",
        "shuffle", "sample", "uniform", "triangular", "betavariate",
        "expovariate", "gammavariate", "gauss", "lognormvariate",
        "normalvariate", "vonmisesvariate", "paretovariate", "weibullvariate",
        "getrandbits", "seed",
    }
)

#: Wall-clock reads (DET002).  Monotonic/perf counters measure durations for
#: display and never feed results.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.localtime", "time.gmtime", "time.ctime",
        "time.asctime", "datetime.now", "datetime.utcnow", "datetime.today",
        "date.today", "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: Wall-clock sources whose differences masquerade as durations (OBS001).
WALL_CLOCK_DURATION_SOURCES = frozenset({"time.time", "time.time_ns"})

#: Ambient-entropy sources (DET003).
ENTROPY_CALLS = frozenset(
    {"uuid.uuid1", "uuid.uuid4", "os.urandom", "os.getrandom", "random.SystemRandom"}
)
ENTROPY_MODULES = frozenset({"secrets"})

#: Attribute-chain depth (number of dots) at which a loop-body load in a hot
#: function is reported.  ``self.result.traffic.record(...)`` has three.
HOT_ATTR_CHAIN_DEPTH = 3

#: Methods that block without bound unless given a deadline (ROB001), and
#: the receiver-name substrings that mark the receiver as a queue, pipe or
#: socket (so ``reply.get("ok")`` on a dict is never confused with
#: ``Queue.get()``).
BLOCKING_RECV_METHODS = frozenset({"get", "recv", "recv_bytes", "accept"})
BLOCKING_RECEIVER_FRAGMENTS = ("conn", "queue", "sock", "pipe", "idle")

#: Constructors whose call sites box one simulated record (``MemoryAccess``),
#: one resident line's packed flags (``CacheLine``), one block's packed
#: directory word and the actions of a request on it (``DirectoryEntry``,
#: ``CoherenceActions``), or one packed word of SMS state — an AGT generation
#: (``GenerationRecord``, ``AGTEvent``, ``TriggerInfo``), a block a
#: prediction register streams (``StreamRequest``) or a PHT pattern
#: (``SpatialPattern``) — each: exactly
#: the allocations the lane decomposition removes.
BOXED_RECORD_CONSTRUCTORS = frozenset(
    {
        "MemoryAccess", "CacheLine", "DirectoryEntry", "CoherenceActions",
        "GenerationRecord", "AGTEvent", "TriggerInfo",
        "StreamRequest", "SpatialPattern",
    }
)

#: LaneChunk's sanctioned per-record escape hatches, and the receiver-name
#: substrings that mark the receiver as a lane chunk (so ``chunk.records()``
#: is a finding while ``self.result.traffic.record(x)`` is not).
BOX_ESCAPE_METHODS = frozenset({"record", "records"})
BOX_RECEIVER_FRAGMENTS = ("chunk", "lane")

#: Calls that box one *generated* record: the keyword record builder the
#: workload generators had before they wrote rows into lane columns, and the
#: namedtuple copy that re-stamped its instruction count.
ROW_BOXING_CALLS = frozenset({"make_access", "_replace"})

#: Methods of a lane-named class that build lanes *from* boxed records
#: (``LaneChunk.from_records``, ``LaneTrace.from_records``): every
#: non-native trace reaches the lane loop through them.
LANE_CLASS_BUILDERS = frozenset({"from_records"})

#: ``sys.stdlib_module_names`` exists from Python 3.10; on 3.9 this curated
#: list covers every stdlib module a ``repro`` module could plausibly import
#: (an unknown name errs on the side of a finding).
STDLIB_FALLBACK = frozenset(
    {
        "__future__", "abc", "aifc", "argparse", "array", "ast", "asyncio",
        "atexit", "base64", "bdb", "binascii", "bisect", "builtins", "bz2",
        "calendar", "cgi", "cgitb", "chunk", "cmath", "cmd", "code", "codecs",
        "codeop", "collections", "colorsys", "compileall", "concurrent",
        "configparser", "contextlib", "contextvars", "copy", "copyreg",
        "cProfile", "csv", "ctypes", "curses", "dataclasses", "datetime",
        "dbm", "decimal", "difflib", "dis", "distutils", "doctest", "email",
        "encodings", "ensurepip", "enum", "errno", "faulthandler", "fcntl",
        "filecmp", "fileinput", "fnmatch", "fractions", "ftplib", "functools",
        "gc", "getopt", "getpass", "gettext", "glob", "graphlib", "grp",
        "gzip", "hashlib", "heapq", "hmac", "html", "http", "idlelib",
        "imaplib", "imghdr", "imp", "importlib", "inspect", "io", "ipaddress",
        "itertools", "json", "keyword", "lib2to3", "linecache", "locale",
        "logging", "lzma", "mailbox", "mailcap", "marshal", "math",
        "mimetypes", "mmap", "modulefinder", "multiprocessing", "netrc",
        "nntplib", "ntpath", "numbers", "operator", "optparse", "os",
        "ossaudiodev", "pathlib", "pdb", "pickle", "pickletools", "pipes",
        "pkgutil", "platform", "plistlib", "poplib", "posix", "posixpath",
        "pprint", "profile", "pstats", "pty", "pwd", "py_compile", "pyclbr",
        "pydoc", "queue", "quopri", "random", "re", "readline", "reprlib",
        "resource", "rlcompleter", "runpy", "sched", "secrets", "select",
        "selectors", "shelve", "shlex", "shutil", "signal", "site", "smtplib",
        "sndhdr", "socket", "socketserver", "spwd", "sqlite3", "ssl", "stat",
        "statistics", "string", "stringprep", "struct", "subprocess", "sunau",
        "symtable", "sys", "sysconfig", "syslog", "tabnanny", "tarfile",
        "telnetlib", "tempfile", "termios", "test", "textwrap", "threading",
        "time", "timeit", "tkinter", "token", "tokenize", "trace",
        "traceback", "tracemalloc", "tty", "turtle", "turtledemo", "types",
        "typing", "unicodedata", "unittest", "urllib", "uu", "uuid", "venv",
        "warnings", "wave", "weakref", "webbrowser", "wsgiref", "xdrlib",
        "xml", "xmlrpc", "zipapp", "zipfile", "zipimport", "zlib", "zoneinfo",
    }
)
STDLIB_MODULES = frozenset(getattr(sys, "stdlib_module_names", STDLIB_FALLBACK))

SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*ignore\[(?P<rules>[^\]]*)\](?:\s*--\s*(?P<why>.*\S))?"
)

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
COMPREHENSION_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


class Finding(NamedTuple):
    """One reported violation, anchored to a source line (``col`` 0-based)."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


class Suppression:
    """One parsed ``# repro: ignore[...]`` comment."""

    __slots__ = ("line", "rules", "justification", "used")

    def __init__(self, line: int, rules: List[str], justification: str) -> None:
        self.line = line
        self.rules = rules
        self.justification = justification
        self.used = False

    @property
    def active(self) -> bool:
        return bool(self.justification) and all(rule in RULES for rule in self.rules)


class Module:
    """One parsed source file: what every rule may inspect."""

    __slots__ = ("relpath", "tree", "imports", "suppressions")

    def __init__(self, source: str, path: str) -> None:
        self.relpath = path.replace("\\", "/")
        self.tree = ast.parse(source, filename=path)
        self.imports = import_bindings(self.tree)
        self.suppressions: Dict[int, Suppression] = {}
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            match = SUPPRESSION_RE.search(tok.string) if tok.type == tokenize.COMMENT else None
            if match is not None:
                rules = [t.strip() for t in match.group("rules").split(",") if t.strip()]
                line = tok.start[0]
                self.suppressions[line] = Suppression(line, rules, (match.group("why") or "").strip())

    def is_under(self, package: str) -> bool:
        """True for a module inside a ``package/`` directory at any depth."""
        return f"/{package}/" in "/" + self.relpath

    def is_one_of(self, modules: frozenset) -> bool:
        return self.relpath in modules or any(self.relpath.endswith("/" + m) for m in modules)

    def resolve(self, node: ast.AST) -> Optional[str]:
        return resolve(self.imports, dotted_name(node))

    def hot_functions(self) -> Iterator[FunctionNode]:
        """Every function of a hot module, else the lane functions."""
        if self.is_one_of(HOT_MODULES):
            return iter_functions(self.tree)
        return iter_lane_functions(self.tree)


# --------------------------------------------------------------------------- #
# AST helpers: names, imports, functions, loops, taint
# --------------------------------------------------------------------------- #
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def attr_chain_depth(node: ast.AST) -> int:
    """Number of Attribute hops above a Name base (0 when not a pure chain)."""
    depth = 0
    while isinstance(node, ast.Attribute):
        depth += 1
        node = node.value
    return depth if isinstance(node, ast.Name) else 0


def import_bindings(tree: ast.Module) -> Dict[str, str]:
    """Locally-bound name -> the dotted origin it was imported as."""
    bound: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                if alias.name != "*":
                    origin = f"{module}.{alias.name}" if module else alias.name
                    bound[alias.asname or alias.name] = origin
    return bound


def resolve(bound: Dict[str, str], dotted: Optional[str]) -> Optional[str]:
    """Rewrite a call-site dotted name through the import bindings.

    ``from datetime import datetime as dt`` makes ``dt.now`` resolve to
    ``datetime.datetime.now``; an unimported base name passes through
    unchanged so ``self.foo`` stays ``self.foo``.
    """
    if dotted is None:
        return None
    base, _, rest = dotted.partition(".")
    origin = bound.get(base)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin


def resolved_calls(mod: Module) -> Iterator[Tuple[ast.Call, str]]:
    """Every call in the module with its import-resolved dotted callee."""
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Call):
            dotted = mod.resolve(node.func)
            if dotted is not None:
                yield node, dotted


def is_set_expression(node: ast.AST, set_valued: Set[str]) -> bool:
    """True when ``node`` is syntactically set-valued.

    Covers set displays, ``set()``/``frozenset()`` calls, set comprehensions,
    set-algebra methods and operators over set-valued operands, and names
    recorded in ``set_valued``; ``.keys()`` views are not included (dict
    order is insertion order, deterministic).
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_valued
    if isinstance(node, ast.Call):
        if dotted_name(node.func) in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union", "intersection", "difference", "symmetric_difference",
        ):
            return is_set_expression(node.func.value, set_valued)
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return is_set_expression(node.left, set_valued) or is_set_expression(node.right, set_valued)
    return False


def is_builtin_hash_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "hash"


def sink_call_name(node: ast.Call, mod: Module) -> Optional[str]:
    """The resolved callee when ``node`` is a digest/cache-key/serialization sink."""
    dotted = mod.resolve(node.func)
    if dotted is None:
        return None
    last = dotted.rsplit(".", 1)[-1]
    if dotted in SINK_CALLEES:
        return dotted
    if dotted.startswith("hashlib.") and last in HASHLIB_CONSTRUCTORS:
        return dotted
    if any(fragment in last.lower() for fragment in SINK_NAME_FRAGMENTS):
        return dotted
    if isinstance(node.func, ast.Attribute) and node.func.attr in ("update", "hexdigest"):
        receiver = dotted_name(node.func.value)
        if receiver is not None:
            receiver_last = receiver.rsplit(".", 1)[-1].lower()
            if any(fragment in receiver_last for fragment in DIGEST_RECEIVER_FRAGMENTS):
                return dotted
    return None


def scan_function(fn: FunctionNode, mod: Module):
    """One linear pass over a function body: ``(set_valued, hash_valued,
    sink_calls)`` — the local names bound to set-valued expressions, those
    bound to builtin ``hash()`` results, and the ``(call, callee)`` sinks.

    Reassignment order and aliasing through containers are ignored: the
    goal is catching the obvious leak, not proving absence.
    """
    set_valued: Set[str] = set()
    hash_valued: Set[str] = set()
    sink_calls: List[Tuple[ast.Call, str]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target.id] if isinstance(node.target, ast.Name) else []
        else:
            if isinstance(node, ast.Call):
                sink = sink_call_name(node, mod)
                if sink is not None:
                    sink_calls.append((node, sink))
            continue
        if targets:
            if is_set_expression(node.value, set_valued):
                set_valued.update(targets)
            if is_builtin_hash_call(node.value):
                hash_valued.update(targets)
    return set_valued, hash_valued, sink_calls


def call_arguments(node: ast.Call) -> Iterator[ast.AST]:
    yield from node.args
    for keyword in node.keywords:
        yield keyword.value


def iter_functions(tree: ast.AST) -> Iterator[FunctionNode]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def iter_lane_functions(tree: ast.Module) -> Iterator[FunctionNode]:
    """Functions on the lane fast path, in any module.

    A function qualifies when its own name contains ``lane`` or when it is
    nested (at any depth) inside one that does — the fused closures a
    ``lane_hook()`` builder returns are the hottest code in the tree despite
    carrying short names like ``hook``.  Class bodies do not propagate the
    mark: ``LaneChunk.records`` is not a lane function merely for living on
    a lane-named class.  The exception is the :data:`LANE_CLASS_BUILDERS`
    of such a class.
    """

    def walk(node: ast.AST, in_lane: bool, lane_class: bool) -> Iterator[FunctionNode]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lane = (
                    in_lane
                    or "lane" in child.name.lower()
                    or (lane_class and child.name in LANE_CLASS_BUILDERS)
                )
                if lane:
                    yield child
                yield from walk(child, lane, False)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, in_lane, "lane" in child.name.lower())
            else:
                yield from walk(child, in_lane, lane_class)

    yield from walk(tree, False, False)


def loops_in(fn: FunctionNode) -> Iterator[Union[ast.For, ast.While]]:
    """Loop statements in ``fn``, excluding those in nested function defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.For, ast.While)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def loop_body_nodes(loop: Union[ast.For, ast.While]) -> Iterator[ast.AST]:
    """AST nodes in a loop body (and ``else``), excluding nested functions.

    Nested loops' bodies are walked too — their work repeats for the outer
    loop — and the rules dedup on source position.
    """
    stack: List[ast.AST] = list(loop.body) + list(loop.orelse or [])
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def hot_loop_bodies(mod: Module) -> Iterator[Tuple[Set[Tuple[int, int]], List[ast.AST]]]:
    """``(seen, body nodes)`` for every loop of every hot function.

    ``seen`` is shared by the loops of one function: an outer loop's body
    holds its inner loops' bodies, and each position is reported once.
    """
    for fn in mod.hot_functions():
        seen: Set[Tuple[int, int]] = set()
        for loop in loops_in(fn):
            yield seen, list(loop_body_nodes(loop))


def first_unseen(seen: Set[Tuple[int, int]], node: ast.AST) -> bool:
    """Record ``node``'s position; False when it was already reported."""
    key = (node.lineno, node.col_offset)
    if key in seen:
        return False
    seen.add(key)
    return True


# --------------------------------------------------------------------------- #
# The rules: each yields ``(node or line, message)`` for one module
# --------------------------------------------------------------------------- #
def det001(mod: Module):
    for node, dotted in resolved_calls(mod):
        module, _, func = dotted.rpartition(".")
        if module == "random" and func in UNSEEDED_RANDOM_FUNCTIONS:
            yield node, (
                f"call to the unseeded global RNG ({dotted}); "
                "use an explicitly seeded random.Random instance"
            )
        elif dotted == "random.Random" and not node.args and not node.keywords:
            yield node, (
                "random.Random() without a seed falls back to OS entropy; "
                "pass an explicit seed"
            )


def det002(mod: Module):
    for node, dotted in resolved_calls(mod):
        if dotted in WALL_CLOCK_CALLS:
            yield node, f"wall-clock read ({dotted}) in a result-producing module"


def det003(mod: Module):
    for node, dotted in resolved_calls(mod):
        if dotted in ENTROPY_CALLS or dotted.split(".")[0] in ENTROPY_MODULES:
            yield node, f"ambient entropy source ({dotted})"


def det004(mod: Module):
    for fn in iter_functions(mod.tree):
        _, hash_valued, sink_calls = scan_function(fn, mod)
        for call, sink in sink_calls:
            for arg in call_arguments(call):
                tainted = next(
                    (
                        sub for sub in ast.walk(arg)
                        if is_builtin_hash_call(sub)
                        or (isinstance(sub, ast.Name) and sub.id in hash_valued)
                    ),
                    None,
                )
                if tainted is not None:
                    yield tainted, (
                        f"builtin hash() result flows into {sink}(); "
                        "builtin hash is process-salted — use a stable digest"
                    )
                    break


def unordered_argument(node: ast.AST, set_valued: Set[str]) -> Optional[ast.AST]:
    """A set-valued subexpression of ``node`` not shielded by ``sorted()``."""
    if isinstance(node, ast.Call) and dotted_name(node.func) == "sorted":
        return None
    if is_set_expression(node, set_valued):
        return node
    for child in ast.iter_child_nodes(node):
        found = unordered_argument(child, set_valued)
        if found is not None:
            return found
    return None


def det005(mod: Module):
    for fn in iter_functions(mod.tree):
        set_valued, _, sink_calls = scan_function(fn, mod)
        if not sink_calls:
            continue
        seen: Set[Tuple[int, int]] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.For):
                iters = [node.iter]
            elif isinstance(node, COMPREHENSION_NODES):
                iters = [gen.iter for gen in node.generators]
            else:
                continue
            for it in iters:
                if is_set_expression(it, set_valued) and first_unseen(seen, node):
                    yield node, (
                        "unsorted set iteration in a function that "
                        "builds a digest/cache key/serialized payload; "
                        "wrap the iterable in sorted(...)"
                    )
        for call, sink in sink_calls:
            for arg in call_arguments(call):
                bad = unordered_argument(arg, set_valued)
                if bad is not None and first_unseen(seen, bad):
                    yield bad, f"set-valued expression passed to {sink}() without sorted(...)"


def env001(mod: Module):
    if mod.is_one_of(ENV_ALLOWLIST):
        return
    for node in ast.walk(mod.tree):
        dotted = None
        if isinstance(node, ast.Attribute):
            dotted = mod.resolve(node)
        elif isinstance(node, ast.Name):
            dotted = resolve(mod.imports, node.id)
        if dotted == "os.environ":
            yield node, (
                "direct os.environ access; go through repro._env "
                "(read/flag/export/scoped_env)"
            )
        elif isinstance(node, ast.Call):
            callee = mod.resolve(node.func)
            if callee in ("os.getenv", "os.putenv", "os.unsetenv"):
                yield node, f"{callee}() bypasses repro._env; use _env.read/_env.scoped_env"


def imp001(mod: Module):
    for node in ast.walk(mod.tree):
        tops: List[str] = []
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            tops = [(node.module or "").split(".")[0]]
        for top in tops:
            if top and top not in STDLIB_MODULES and top != PACKAGE:
                yield node, (
                    f"import of non-stdlib module {top!r} "
                    f"(package {PACKAGE!r} is stdlib-only)"
                )


def hot001(mod: Module):
    for seen, body in hot_loop_bodies(mod):
        raised = {
            id(sub)
            for node in body if isinstance(node, ast.Raise) and node.exc is not None
            for sub in ast.walk(node.exc)
        }
        for node in body:
            if not isinstance(node, ast.Call) or id(node) in raised:
                continue
            dotted = dotted_name(node.func)
            if dotted is not None and dotted.rsplit(".", 1)[-1][:1].isupper() and first_unseen(seen, node):
                yield node, (
                    f"constructor call {dotted}() inside a loop in a "
                    "hot module; hoist it or restructure over lanes"
                )


def hot002(mod: Module):
    for seen, body in hot_loop_bodies(mod):
        chains = [node for node in body if isinstance(node, ast.Attribute)]
        # A longer chain subsumes the chains it is built on.
        inner = {id(node.value) for node in chains}
        for node in chains:
            if (
                id(node) not in inner
                and attr_chain_depth(node) >= HOT_ATTR_CHAIN_DEPTH
                and first_unseen(seen, node)
            ):
                yield node, (
                    f"attribute chain {dotted_name(node)} re-resolved every "
                    "iteration; bind it to a local before the loop"
                )


def hot003(mod: Module):
    for seen, body in hot_loop_bodies(mod):
        for node in body:
            if isinstance(node, ast.Try) and first_unseen(seen, node):
                yield node, "try statement inside a loop in a hot module; hoist it around the loop"


def hot004(mod: Module):
    for fn in iter_lane_functions(mod.tree):
        # Nested defs are lane functions in their own right (yielded
        # separately), so their bodies are skipped here.
        stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            dotted = dotted_name(node.func) if isinstance(node, ast.Call) else None
            if dotted is None:
                continue
            last = dotted.rsplit(".", 1)[-1]
            if isinstance(node.func, ast.Attribute) and last in BOX_ESCAPE_METHODS:
                receiver = (dotted_name(node.func.value) or "").rsplit(".", 1)[-1].lower()
                if any(f in receiver for f in BOX_RECEIVER_FRAGMENTS):
                    yield node, (
                        f"per-record boxing call .{last}() inside lane "
                        "function; stay on the flat lanes"
                    )
            elif last in BOXED_RECORD_CONSTRUCTORS or dotted == "tuple.__new__":
                yield node, (
                    f"boxed record construction {dotted}() inside lane "
                    "function; the lane path must not allocate records"
                )
            elif last in ROW_BOXING_CALLS:
                yield node, (
                    f"per-record boxing call {last}() inside lane "
                    "function; write the row into the batch columns"
                )


def exc001(mod: Module):
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            label = "bare except"
        else:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            label = ", ".join(
                sub.id for sub in types
                if isinstance(sub, ast.Name) and sub.id in ("Exception", "BaseException")
            )
        if label:
            yield node, (
                f"broad except ({label}); narrow it to the expected "
                "errors or justify with # repro: ignore[EXC001] -- <why>"
            )


def rob001(mod: Module):
    if not mod.is_under("serve"):
        return
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        method = node.func.attr
        receiver = (dotted_name(node.func.value) or "").lower()
        if (
            method not in BLOCKING_RECV_METHODS
            or not any(frag in receiver for frag in BLOCKING_RECEIVER_FRAGMENTS)
            or any(kw.arg == "timeout" for kw in node.keywords)
            or (method == "get" and len(node.args) >= 2)  # Queue.get(block, timeout)
        ):
            continue
        yield node, (
            f"blocking .{method}() on {receiver or 'a queue/connection'} "
            "without a timeout; pass one, guard with a timed poll, or "
            "justify with # repro: ignore[ROB001] -- <why>"
        )


def clock_assignments(mod: Module, sources: frozenset) -> Iterator[Tuple[ast.AST, ast.Name]]:
    """``(assignment, target)`` for every name bound to a call of ``sources``."""
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if isinstance(node.value, ast.Call) and mod.resolve(node.value.func) in sources:
            for target in targets:
                if isinstance(target, ast.Name):
                    yield node, target


def subtractions(mod: Module) -> Iterator[ast.BinOp]:
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            yield node


def obs001(mod: Module):
    wall_named = {target.id for _, target in clock_assignments(mod, WALL_CLOCK_DURATION_SOURCES)}
    for node in subtractions(mod):
        if any(
            (isinstance(side, ast.Call) and mod.resolve(side.func) in WALL_CLOCK_DURATION_SOURCES)
            or (isinstance(side, ast.Name) and side.id in wall_named)
            for side in (node.left, node.right)
        ):
            yield node, (
                "duration computed from time.time(); wall-clock deltas "
                "jump with NTP/DST — use time.perf_counter()"
            )


def obs002(mod: Module):
    if mod.is_under("obs"):
        return
    assigns = {target.id: node for node, target in clock_assignments(mod, {"time.perf_counter"})}
    flagged: Set[int] = set()
    for node in subtractions(mod):
        for side in (node.left, node.right):
            anchor = assigns.get(side.id) if isinstance(side, ast.Name) else None
            if anchor is None or id(anchor) in flagged:
                continue
            flagged.add(id(anchor))
            # Anchored on the *assignment* so one justified tag covers the
            # whole start/stop pair.
            yield anchor, (
                f"raw perf_counter pair ({side.id} = time.perf_counter() "
                "... delta); wrap the timed region in trace.span(), "
                "or justify with # repro: ignore[OBS002] -- <why>"
            )
            break


def sup001(mod: Module):
    for sup in mod.suppressions.values():
        if sup.active:
            continue
        if not sup.justification:
            reason = "missing justification (use # repro: ignore[RULE] -- <why>)"
        else:
            reason = "unknown rule " + ", ".join(repr(t) for t in sup.rules if t not in RULES)
        yield sup.line, f"ineffective suppression: {reason}"


def sup002(mod: Module):
    for sup in mod.suppressions.values():
        if sup.active and not sup.used:
            yield sup.line, (
                "suppression for " + ",".join(sup.rules)
                + " matches no finding on this line; remove it"
            )


#: Every rule by ID.  The SUP rules come last: they read which suppressions
#: the other rules' findings used.
RULES = {
    "DET001": det001, "DET002": det002, "DET003": det003, "DET004": det004,
    "DET005": det005, "ENV001": env001, "IMP001": imp001, "HOT001": hot001,
    "HOT002": hot002, "HOT003": hot003, "HOT004": hot004, "EXC001": exc001,
    "ROB001": rob001, "OBS001": obs001, "OBS002": obs002,
    "SUP001": sup001, "SUP002": sup002,
}


def lint_source(source: str, path: str) -> List[Finding]:
    """Findings for one module's source; ``path`` doubles as its scope key."""
    mod = Module(source, path)
    findings: List[Finding] = []
    for rule_id, check in RULES.items():
        for where, message in check(mod):
            line, col = (where, 0) if isinstance(where, int) else (where.lineno, where.col_offset)
            sup = mod.suppressions.get(line)
            # A suppression never silences the report on itself.
            if not rule_id.startswith("SUP") and sup is not None and sup.active and rule_id in sup.rules:
                sup.used = True
            else:
                findings.append(Finding(rule_id, path, line, col, message))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def python_files(*roots: Path) -> List[Path]:
    """Every ``.py`` file under ``roots``, sorted per root."""
    return [path for root in roots for path in sorted(Path(root).rglob("*.py"))]


def lint_file(path: Path) -> List[Finding]:
    return lint_source(Path(path).read_text(encoding="utf-8"), str(path))
