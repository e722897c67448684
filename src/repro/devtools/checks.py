"""The registered rules.  See :mod:`repro.devtools` for the catalog.

Every rule here is deliberately *narrow*: the analyzer gates CI, so a rule
that cries wolf gets suppressed into noise.  Each one targets a pattern
that has a concrete failure mode in this repository (cross-process
nondeterminism breaking byte-identity, ambient state breaking cache keys,
third-party imports breaking the stdlib-only deployment story, per-record
overhead in the measured hot loops, broad excepts swallowing real bugs).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.devtools import dataflow
from repro.devtools.config import (
    BLOCKING_RECEIVER_FRAGMENTS,
    BLOCKING_RECV_METHODS,
    BLOCKING_RECV_PREFIXES,
    ENTROPY_CALLS,
    ENTROPY_MODULES,
    HOT_ATTR_CHAIN_DEPTH,
    UNSEEDED_RANDOM_FUNCTIONS,
    WALL_CLOCK_CALLS,
    stdlib_module_names,
)
from repro.devtools.rules import Finding, ModuleContext, Rule, register


def _resolved_calls(ctx: ModuleContext) -> Iterator[Tuple[ast.Call, str]]:
    """Every call in the module with its import-resolved dotted callee."""
    imports = dataflow.ImportMap(ctx.tree)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            dotted = imports.resolve(dataflow.dotted_name(node.func))
            if dotted is not None:
                yield node, dotted


# --------------------------------------------------------------------------- #
# DET — determinism
# --------------------------------------------------------------------------- #
class _ResultModuleRule(Rule):
    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.is_result_producing


@register
class UnseededRandom(_ResultModuleRule):
    id = "DET001"
    family = "DET"
    title = "unseeded global RNG"
    rationale = (
        "The module-level random.* functions draw from an interpreter-global, "
        "time-seeded RNG; any result they touch differs run to run, which "
        "breaks golden-counter tests and poisons content-addressed cache keys."
    )
    example_bad = "jitter = random.random()"
    example_fix = "rng = random.Random(config.seed); jitter = rng.random()"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node, dotted in _resolved_calls(ctx):
            module, _, func = dotted.rpartition(".")
            if module == "random" and func in UNSEEDED_RANDOM_FUNCTIONS:
                yield self.finding(
                    ctx, node,
                    f"call to the unseeded global RNG ({dotted}); "
                    "use an explicitly seeded random.Random instance",
                )
            elif dotted == "random.Random" and not node.args and not node.keywords:
                yield self.finding(
                    ctx, node,
                    "random.Random() without a seed falls back to OS entropy; "
                    "pass an explicit seed",
                )


@register
class WallClockRead(_ResultModuleRule):
    id = "DET002"
    family = "DET"
    title = "wall-clock read"
    rationale = (
        "Wall-clock values (time.time, datetime.now) differ on every run; "
        "flowing one into a result, file payload, or cache key silently "
        "breaks byte-identical reproduction.  Monotonic/perf counters for "
        "duration display are fine and not flagged."
    )
    example_bad = "stamp = time.time()"
    example_fix = "pass timestamps in explicitly, or keep them out of results"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node, dotted in _resolved_calls(ctx):
            if dotted in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"wall-clock read ({dotted}) in a result-producing module",
                )


@register
class AmbientEntropy(_ResultModuleRule):
    id = "DET003"
    family = "DET"
    title = "ambient entropy source"
    rationale = (
        "uuid1/uuid4, os.urandom, secrets.* and random.SystemRandom draw "
        "OS entropy that can never be replayed; nothing in a deterministic "
        "reproduction may depend on them."
    )
    example_bad = "token = uuid.uuid4().hex"
    example_fix = "derive identifiers from the (seeded) content being named"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node, dotted in _resolved_calls(ctx):
            if dotted in ENTROPY_CALLS or dotted.split(".")[0] in ENTROPY_MODULES:
                yield self.finding(
                    ctx, node, f"ambient entropy source ({dotted})"
                )


@register
class BuiltinHashIntoDigest(_ResultModuleRule):
    id = "DET004"
    family = "DET"
    title = "builtin hash() feeding a digest"
    rationale = (
        "hash() over str/bytes is salted per process (PYTHONHASHSEED); a "
        "digest, fingerprint, or cache key derived from it differs across "
        "processes, so sweep workers stop sharing cache entries."
    )
    example_bad = "digest.update(str(hash(key)).encode())"
    example_fix = "use repro.core.pht.stable_hash or hash the encoded value"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = dataflow.ImportMap(ctx.tree)
        for fn in dataflow.iter_functions(ctx.tree):
            facts = dataflow.scan_function(fn, imports)
            if not facts.has_sink:
                continue
            for call, sink in facts.sink_calls:
                for arg in dataflow.call_argument_names(call):
                    tainted = self._tainted_use(arg, facts.hash_valued)
                    if tainted is not None:
                        yield self.finding(
                            ctx, tainted,
                            f"builtin hash() result flows into {sink}(); "
                            "builtin hash is process-salted — use a stable digest",
                        )
                        break

    @staticmethod
    def _tainted_use(node: ast.AST, hash_valued: Set[str]):
        for sub in ast.walk(node):
            if dataflow.is_builtin_hash_call(sub):
                return sub
            if isinstance(sub, ast.Name) and sub.id in hash_valued:
                return sub
        return None


@register
class UnorderedIterationIntoSink(_ResultModuleRule):
    id = "DET005"
    family = "DET"
    title = "unordered set iteration near a cache key / serialization"
    rationale = (
        "Set iteration order follows the process-salted string hash; in a "
        "function that builds a digest, cache key, or serialized payload, "
        "iterating a set unsorted makes the output order — and therefore "
        "the bytes — differ across processes."
    )
    example_bad = "for name in {a, b}: digest.update(name.encode())"
    example_fix = "for name in sorted({a, b}): digest.update(name.encode())"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = dataflow.ImportMap(ctx.tree)
        for fn in dataflow.iter_functions(ctx.tree):
            facts = dataflow.scan_function(fn, imports)
            if not facts.has_sink:
                continue
            seen: Set[Tuple[int, int]] = set()
            for node in ast.walk(fn):
                iters: List[ast.AST] = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(node, dataflow.COMPREHENSION_NODES):
                    iters.extend(gen.iter for gen in node.generators)
                for it in iters:
                    if dataflow.is_set_expression(it, facts.set_valued):
                        key = (node.lineno, node.col_offset)
                        if key not in seen:
                            seen.add(key)
                            yield self.finding(
                                ctx, node,
                                "unsorted set iteration in a function that "
                                "builds a digest/cache key/serialized payload; "
                                "wrap the iterable in sorted(...)",
                            )
            for call, sink in facts.sink_calls:
                for arg in dataflow.call_argument_names(call):
                    bad = self._unordered_argument(arg, facts.set_valued)
                    if bad is not None:
                        key = (bad.lineno, bad.col_offset)
                        if key not in seen:
                            seen.add(key)
                            yield self.finding(
                                ctx, bad,
                                f"set-valued expression passed to {sink}() "
                                "without sorted(...)",
                            )

    @staticmethod
    def _unordered_argument(node: ast.AST, set_valued: Set[str]):
        """A set-valued subexpression of ``node`` not shielded by sorted()."""
        if isinstance(node, ast.Call):
            callee = dataflow.dotted_name(node.func)
            if callee == "sorted":
                return None
        if dataflow.is_set_expression(node, set_valued):
            return node
        for child in ast.iter_child_nodes(node):
            found = UnorderedIterationIntoSink._unordered_argument(child, set_valued)
            if found is not None:
                return found
        return None


# --------------------------------------------------------------------------- #
# ENV — ambient environment access
# --------------------------------------------------------------------------- #
@register
class AmbientEnvironment(Rule):
    id = "ENV001"
    family = "ENV"
    title = "os.environ access outside repro._env"
    rationale = (
        "Ambient environment reads make behaviour depend on invisible state "
        "and break the scoped save/restore discipline; all access goes "
        "through repro._env (read/flag/export/scoped_env), the one audited "
        "allowlist module."
    )
    example_bad = 'enabled = os.environ.get("REPRO_TRACE_CACHE") == "1"'
    example_fix = 'from repro import _env; enabled = _env.flag("REPRO_TRACE_CACHE")'

    def applies(self, ctx: ModuleContext) -> bool:
        return not ctx.is_env_allowlisted

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = dataflow.ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            dotted = None
            if isinstance(node, ast.Attribute):
                dotted = imports.resolve(dataflow.dotted_name(node))
            elif isinstance(node, ast.Name):
                dotted = imports.resolve(node.id)
            if dotted == "os.environ":
                yield self.finding(
                    ctx, node,
                    "direct os.environ access; go through repro._env "
                    "(read/flag/export/scoped_env)",
                )
            elif isinstance(node, ast.Call):
                callee = imports.resolve(dataflow.dotted_name(node.func))
                if callee in ("os.getenv", "os.putenv", "os.unsetenv"):
                    yield self.finding(
                        ctx, node,
                        f"{callee}() bypasses repro._env; use _env.read/_env.scoped_env",
                    )


# --------------------------------------------------------------------------- #
# IMP — stdlib-only imports
# --------------------------------------------------------------------------- #
@register
class ThirdPartyImport(Rule):
    id = "IMP001"
    family = "IMP"
    title = "third-party import in a stdlib-only package"
    rationale = (
        "src/repro is deployable with a bare interpreter (the serve CI job "
        "proves it); a third-party import anywhere — even try/except-gated — "
        "adds an undeclared dependency and a divergent code path."
    )
    example_bad = "import numpy as np"
    example_fix = "use array/struct/math from the stdlib, or move the code out of src/repro"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        allowed = stdlib_module_names()
        for node in ast.walk(ctx.tree):
            tops: List[str] = []
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [(node.module or "").split(".")[0]]
            for top in tops:
                if top and top not in allowed and top != ctx.package:
                    yield self.finding(
                        ctx, node,
                        f"import of non-stdlib module {top!r} "
                        f"(package {ctx.package!r} is stdlib-only)",
                    )


# --------------------------------------------------------------------------- #
# HOT — hot-path discipline
# --------------------------------------------------------------------------- #
class _HotRule(Rule):
    """HOT rules cover every function of a hot module, plus lane functions
    (:func:`dataflow.iter_lane_functions`) wherever they live — the lane
    fast path spills into ``core/sms.py`` and ``trace/stream.py``, which are
    not hot modules wholesale."""

    def applies(self, ctx: ModuleContext) -> bool:
        return True

    def hot_functions(self, ctx: ModuleContext):
        if ctx.is_hot:
            return dataflow.iter_functions(ctx.tree)
        return dataflow.iter_lane_functions(ctx.tree)


@register
class LoopAllocation(_HotRule):
    id = "HOT001"
    family = "HOT"
    title = "object construction inside a hot loop"
    rationale = (
        "Constructing class instances per record is the allocation cost the "
        "batch-lane work removes; in the tagged hot modules any constructor "
        "call inside a loop body must be hoisted or rewritten over flat "
        "lanes.  Exception constructors on raise statements are error paths "
        "and exempt."
    )
    example_bad = "for r in chunk: out.append(MemoryAccess(*r))"
    example_fix = "hoist construction out of the loop or use tuple.__new__ batches"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for fn in self.hot_functions(ctx):
            seen: Set[Tuple[int, int]] = set()
            for loop in dataflow.loops_in(fn):
                raised: Set[int] = set()
                for node in dataflow.loop_body_nodes(loop):
                    if isinstance(node, ast.Raise) and node.exc is not None:
                        raised.update(id(sub) for sub in ast.walk(node.exc))
                for node in dataflow.loop_body_nodes(loop):
                    if not isinstance(node, ast.Call) or id(node) in raised:
                        continue
                    dotted = dataflow.dotted_name(node.func)
                    if dotted is None:
                        continue
                    last = dotted.rsplit(".", 1)[-1]
                    if last[:1].isupper():
                        key = (node.lineno, node.col_offset)
                        if key not in seen:
                            seen.add(key)
                            yield self.finding(
                                ctx, node,
                                f"constructor call {dotted}() inside a loop in a "
                                "hot module; hoist it or restructure over lanes",
                            )


@register
class LoopAttributeChain(_HotRule):
    id = "HOT002"
    family = "HOT"
    title = "deep attribute chain inside a hot loop"
    rationale = (
        "Each dot is a dict probe repeated every iteration; chains of "
        f"{HOT_ATTR_CHAIN_DEPTH}+ attributes in a hot loop body are loads "
        "the interpreter cannot cache — bind the target to a local before "
        "the loop."
    )
    example_bad = "for r in chunk: self.result.traffic.record(r)"
    example_fix = "record = self.result.traffic.record  # before the loop"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for fn in self.hot_functions(ctx):
            seen: Set[Tuple[int, int]] = set()
            for loop in dataflow.loops_in(fn):
                value_children: Set[int] = set()
                chains: List[ast.Attribute] = []
                for node in dataflow.loop_body_nodes(loop):
                    if isinstance(node, ast.Attribute):
                        value_children.add(id(node.value))
                        chains.append(node)
                for node in chains:
                    if id(node) in value_children:
                        continue  # a longer chain subsumes this one
                    if dataflow.attr_chain_depth(node) >= HOT_ATTR_CHAIN_DEPTH:
                        key = (node.lineno, node.col_offset)
                        if key not in seen:
                            seen.add(key)
                            dotted = dataflow.dotted_name(node)
                            yield self.finding(
                                ctx, node,
                                f"attribute chain {dotted} re-resolved every "
                                "iteration; bind it to a local before the loop",
                            )


@register
class LoopTryExcept(_HotRule):
    id = "HOT003"
    family = "HOT"
    title = "try/except inside a hot loop"
    rationale = (
        "A try block inside the per-record loop adds setup cost on every "
        "iteration and hides the real control flow; hoist the try around "
        "the loop or pre-validate the batch."
    )
    example_bad = "for r in chunk:\n    try: step(r)\n    except KeyError: pass"
    example_fix = "validate before the loop, or wrap the whole loop in one try"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for fn in self.hot_functions(ctx):
            seen: Set[Tuple[int, int]] = set()
            for loop in dataflow.loops_in(fn):
                for node in dataflow.loop_body_nodes(loop):
                    if isinstance(node, ast.Try):
                        key = (node.lineno, node.col_offset)
                        if key not in seen:
                            seen.add(key)
                            yield self.finding(
                                ctx, node,
                                "try statement inside a loop in a hot module; "
                                "hoist it around the loop",
                            )


#: Constructors whose call sites box one simulated record (``MemoryAccess``),
#: one resident line's packed flags (``CacheLine``), one block's packed
#: directory word and the actions of a request on it (``DirectoryEntry``,
#: ``CoherenceActions``), or one packed word of SMS state — an AGT generation
#: (``GenerationRecord``, ``AGTEvent``, ``TriggerInfo``), a prediction
#: register and the blocks it streams (``PredictionRegister``,
#: ``StreamRequest``) or a PHT pattern (``SpatialPattern``) — each: exactly
#: the allocations the lane decomposition removes.
BOXED_RECORD_CONSTRUCTORS = frozenset(
    {
        "MemoryAccess", "CacheLine", "DirectoryEntry", "CoherenceActions",
        "GenerationRecord", "AGTEvent", "TriggerInfo",
        "PredictionRegister", "StreamRequest", "SpatialPattern",
    }
)

#: LaneChunk's sanctioned per-record escape hatches; calling them from a lane
#: function defeats the point of having lanes at all.
BOX_ESCAPE_METHODS = frozenset({"record", "records"})

#: Calls that box one *generated* record: the keyword record builder the
#: workload generators had before they wrote rows into lane columns, and the
#: namedtuple copy that re-stamped its instruction count.
ROW_BOXING_CALLS = frozenset({"make_access", "_replace"})

#: Receiver-name substrings that mark the receiver as a lane chunk, so that
#: ``chunk.records()`` is a finding while ``self.result.traffic.record(x)``
#: (a stats call) is not.
BOX_RECEIVER_FRAGMENTS = ("chunk", "lane")


@register
class LaneBoxing(_HotRule):
    id = "HOT004"
    family = "HOT"
    title = "per-record boxing inside a lane-path function"
    rationale = (
        "Lane functions exist so the engine never materialises one object "
        "per record.  Calling the LaneChunk record()/records() escape "
        "hatches, constructing MemoryAccess tuples (directly or via "
        "tuple.__new__) from lane data, or boxing a cache set's packed flags "
        "back into a CacheLine, a packed directory word into a "
        "DirectoryEntry / CoherenceActions, or a packed AGT / PHT / "
        "prediction-register word into a GenerationRecord / AGTEvent / "
        "TriggerInfo / PredictionRegister / StreamRequest / SpatialPattern, "
        "or building a generated access with make_access() / copying one "
        "with ._replace() in a workload's batch producer "
        "reintroduces exactly the per-record allocation the fast path was "
        "built to remove — operate on the flat integer lanes, flag ints, "
        "directory words, SMS state words and batch columns, or hand the "
        "chunk to the boxed reference path."
    )
    example_bad = "def _step_lanes(...):\n    for r in chunk.records(): ..."
    example_fix = "for i in range(len(chunk)): use chunk.pc[i], chunk.address[i], ..."

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for fn in dataflow.iter_lane_functions(ctx.tree):
            # Nested defs are lane functions in their own right (yielded
            # separately), so exclude their bodies here.
            stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                stack.extend(ast.iter_child_nodes(node))
                if not isinstance(node, ast.Call):
                    continue
                dotted = dataflow.dotted_name(node.func)
                if dotted is None:
                    continue
                last = dotted.rsplit(".", 1)[-1]
                if isinstance(node.func, ast.Attribute) and last in BOX_ESCAPE_METHODS:
                    receiver = dataflow.dotted_name(node.func.value)
                    receiver_last = (receiver or "").rsplit(".", 1)[-1].lower()
                    if any(f in receiver_last for f in BOX_RECEIVER_FRAGMENTS):
                        yield self.finding(
                            ctx, node,
                            f"per-record boxing call .{last}() inside lane "
                            "function; stay on the flat lanes",
                        )
                elif last in BOXED_RECORD_CONSTRUCTORS or dotted == "tuple.__new__":
                    yield self.finding(
                        ctx, node,
                        f"boxed record construction {dotted}() inside lane "
                        "function; the lane path must not allocate records",
                    )
                elif last in ROW_BOXING_CALLS:
                    yield self.finding(
                        ctx, node,
                        f"per-record boxing call {last}() inside lane "
                        "function; write the row into the batch columns",
                    )


# --------------------------------------------------------------------------- #
# EXC — exception discipline
# --------------------------------------------------------------------------- #
@register
class BroadExcept(Rule):
    id = "EXC001"
    family = "EXC"
    title = "broad except without a justification tag"
    rationale = (
        "except Exception (or worse) swallows the very bugs the golden "
        "tests exist to surface.  Narrow it to the errors the block can "
        "actually raise; where broad really is correct (cleanup paths, "
        "crash isolation at a service boundary) say why on the line: "
        "# repro: ignore[EXC001] -- <why>."
    )
    example_bad = "except Exception:\n    pass"
    example_fix = "except (OSError, ValueError):  # or tag with a justification"

    _BROAD = ("Exception", "BaseException")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            label = self._broad_label(node.type)
            if label is not None:
                yield self.finding(
                    ctx, node,
                    f"broad except ({label}); narrow it to the expected "
                    "errors or justify with # repro: ignore[EXC001] -- <why>",
                )

    def _broad_label(self, type_node) -> "str | None":
        if type_node is None:
            return "bare except"
        names = []
        nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        for sub in nodes:
            if isinstance(sub, ast.Name) and sub.id in self._BROAD:
                names.append(sub.id)
        return ", ".join(names) if names else None


# --------------------------------------------------------------------------- #
# ROB — service-layer robustness
# --------------------------------------------------------------------------- #
@register
class BlockingReceiveWithoutTimeout(Rule):
    id = "ROB001"
    family = "ROB"
    title = "blocking receive without a timeout in the service layer"
    rationale = (
        "A Queue.get / Connection.recv / socket accept with no deadline "
        "blocks forever when its peer dies; in repro.serve that wedges an "
        "executor thread, a dispatch path, or the whole shutdown sequence. "
        "Pass a timeout (or guard the recv with a timed poll); where "
        "unbounded blocking is the contract — an idle worker waiting for "
        "its next job under parent supervision — justify it in place: "
        "# repro: ignore[ROB001] -- <why>."
    )
    example_bad = "reply = handle.conn.recv()"
    example_fix = "if handle.conn.poll(deadline): reply = handle.conn.recv()"

    def applies(self, ctx: ModuleContext) -> bool:
        slashed = "/" + ctx.relpath
        return any(
            ctx.relpath.startswith(prefix) or ("/" + prefix) in slashed
            for prefix in BLOCKING_RECV_PREFIXES
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            if method not in BLOCKING_RECV_METHODS:
                continue
            receiver = (dataflow.dotted_name(node.func.value) or "").lower()
            if not any(frag in receiver for frag in BLOCKING_RECEIVER_FRAGMENTS):
                continue
            if any(kw.arg == "timeout" for kw in node.keywords):
                continue
            if method == "get" and len(node.args) >= 2:
                continue  # Queue.get(block, timeout): positional deadline
            yield self.finding(
                ctx, node,
                f"blocking .{method}() on {receiver or 'a queue/connection'} "
                "without a timeout; pass one, guard with a timed poll, or "
                "justify with # repro: ignore[ROB001] -- <why>",
            )


# --------------------------------------------------------------------------- #
# OBS — observability discipline
# --------------------------------------------------------------------------- #

#: Wall-clock sources whose differences masquerade as durations.
WALL_CLOCK_DURATION_SOURCES = frozenset({"time.time", "time.time_ns"})


@register
class WallClockDuration(Rule):
    id = "OBS001"
    family = "OBS"
    title = "duration measured with the wall clock"
    rationale = (
        "time.time() is subject to NTP slews and DST/admin step changes, so "
        "a time.time() delta is not a duration — metrics built on it go "
        "negative or jump by hours.  Durations come from time.perf_counter "
        "(or time.monotonic); see the repro.obs naming convention.  Applies "
        "everywhere, devtools included — DET002 already bans wall-clock in "
        "result-producing modules, this rule catches the measurement misuse "
        "in the rest."
    )
    example_bad = "start = time.time(); ...; elapsed = time.time() - start"
    example_fix = "start = time.perf_counter(); elapsed = time.perf_counter() - start"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = dataflow.ImportMap(ctx.tree)
        wall_named: Set[str] = set()
        for node in ast.walk(ctx.tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            if targets and self._is_wall_read(node.value, imports):
                wall_named.update(
                    t.id for t in targets if isinstance(t, ast.Name)
                )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp) or not isinstance(node.op, ast.Sub):
                continue
            for side in (node.left, node.right):
                if self._is_wall_read(side, imports) or (
                    isinstance(side, ast.Name) and side.id in wall_named
                ):
                    yield self.finding(
                        ctx, node,
                        "duration computed from time.time(); wall-clock deltas "
                        "jump with NTP/DST — use time.perf_counter()",
                    )
                    break

    @staticmethod
    def _is_wall_read(node, imports: dataflow.ImportMap) -> bool:
        if not isinstance(node, ast.Call):
            return False
        dotted = imports.resolve(dataflow.dotted_name(node.func))
        return dotted in WALL_CLOCK_DURATION_SOURCES


@register
class RawClockPair(Rule):
    id = "OBS002"
    family = "OBS"
    title = "hand-rolled span: raw perf_counter start/stop pair"
    rationale = (
        "A bare start = time.perf_counter() ... delta measures a duration "
        "that goes nowhere the observability stack can see: it skips the "
        "repro_span_seconds histogram and never joins a trace.  Wrap the "
        "timed region in trace.span() instead, which records the "
        "same perf_counter delta *and* exports it.  The instrumentation "
        "layer itself (repro/obs) is exempt — raw clock pairs are its job.  "
        "Where the numeric delta is genuinely needed in-line (a user-facing "
        "rate display), justify it: # repro: ignore[OBS002] -- <why>."
    )
    example_bad = "start = time.perf_counter(); ...; rate = n / (time.perf_counter() - start)"
    example_fix = "with trace.span('convert'): ..."

    def applies(self, ctx: ModuleContext) -> bool:
        slashed = "/" + ctx.relpath
        return not (ctx.relpath.startswith("obs/") or "/obs/" in slashed)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = dataflow.ImportMap(ctx.tree)
        assigns: Dict[str, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            if targets and self._is_perf_read(node.value, imports):
                for target in targets:
                    if isinstance(target, ast.Name):
                        assigns[target.id] = node
        flagged: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.BinOp) or not isinstance(node.op, ast.Sub):
                continue
            for side in (node.left, node.right):
                if not isinstance(side, ast.Name) or side.id not in assigns:
                    continue
                anchor = assigns[side.id]
                if id(anchor) in flagged:
                    continue
                flagged.add(id(anchor))
                # The finding anchors on the *assignment* line so one
                # justified ignore covers the whole start/stop pair.
                yield self.finding(
                    ctx, anchor,
                    f"raw perf_counter pair ({side.id} = time.perf_counter() "
                    "... delta); wrap the timed region in trace.span(), "
                    "or justify with # repro: ignore[OBS002] -- <why>",
                )
                break

    @staticmethod
    def _is_perf_read(node, imports: dataflow.ImportMap) -> bool:
        if not isinstance(node, ast.Call):
            return False
        return imports.resolve(dataflow.dotted_name(node.func)) == "time.perf_counter"


# --------------------------------------------------------------------------- #
# SUP / SYN — emitted by the walker, registered for the catalog
# --------------------------------------------------------------------------- #
class _WalkerEmitted(Rule):
    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())


@register
class MalformedSuppression(_WalkerEmitted):
    id = "SUP001"
    family = "SUP"
    title = "suppression without justification (or unknown rule)"
    rationale = (
        "# repro: ignore[...] must name registered rules and carry a "
        "justification after ' -- '; an unexplained suppression is a "
        "finding in its own right and suppresses nothing."
    )
    example_bad = "except Exception:  # repro: ignore[EXC001]"
    example_fix = "except Exception:  # repro: ignore[EXC001] -- cleanup must not mask exit"


@register
class UnusedSuppression(_WalkerEmitted):
    id = "SUP002"
    family = "SUP"
    title = "suppression that suppresses nothing"
    rationale = (
        "A # repro: ignore[...] on a line where the named rule does not "
        "fire is stale documentation; remove it so real suppressions stay "
        "auditable."
    )
    example_bad = "x = 1  # repro: ignore[DET001] -- leftover"
    example_fix = "delete the stale comment"


@register
class UnparseableModule(_WalkerEmitted):
    id = "SYN001"
    family = "SYN"
    title = "module failed to parse"
    rationale = "A file the analyzer cannot parse cannot be certified clean."
    example_bad = "def f(:"
    example_fix = "fix the syntax error"
