"""Dataflow-lite helpers: name resolution and per-function taint tracking.

The DET taint rules need to know three things about a function body without
a real dataflow engine:

* which local names hold *set-valued* expressions (iteration order depends
  on the interpreter's salted string hash, so letting one flow into a cache
  key or serialization call is a cross-process nondeterminism bug);
* which local names hold results of the builtin ``hash()`` (salted the same
  way); and
* whether the function contains a *sink* — a digest update, a cache-key
  builder, or a serialization call.

One linear pass per function collects all three; this deliberately ignores
reassignment order and aliasing through containers — the goal is catching
the obvious leak, not proving absence.  Import tracking maps the names a
module binds (``import hashlib``, ``from random import random as rnd``)
back to their dotted origins so rules can match call sites canonically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.devtools.config import (
    DIGEST_RECEIVER_FRAGMENTS,
    HASHLIB_CONSTRUCTORS,
    SINK_CALLEES,
    SINK_NAME_FRAGMENTS,
)

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
LOOP_NODES = (ast.For, ast.While)
COMPREHENSION_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


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


class ImportMap:
    """Maps locally-bound names to the dotted origin they were imported as."""

    def __init__(self, tree: ast.Module) -> None:
        self.bound: Dict[str, str] = {}
        self.star_modules: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    origin = alias.name if alias.asname else alias.name.split(".")[0]
                    self.bound[local] = origin
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        self.star_modules.add(module)
                        continue
                    local = alias.asname or alias.name
                    origin = f"{module}.{alias.name}" if module else alias.name
                    self.bound[local] = origin

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Rewrite a call-site dotted name through the import bindings.

        ``from datetime import datetime as dt`` makes ``dt.now`` resolve to
        ``datetime.datetime.now``; an unimported base name passes through
        unchanged so ``self.foo`` stays ``self.foo``.
        """
        if dotted is None:
            return None
        base, _, rest = dotted.partition(".")
        origin = self.bound.get(base)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin


def is_set_expression(node: ast.AST, set_valued: Set[str]) -> bool:
    """True when ``node`` is syntactically set-valued.

    Covers set displays, ``set()``/``frozenset()`` calls, set comprehensions,
    set-algebra operators over set-valued operands, ``.keys()`` views are
    *not* included (dict order is insertion order, deterministic), and names
    recorded in ``set_valued`` by the enclosing function scan.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_valued
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        if callee in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union", "intersection", "difference", "symmetric_difference",
        ):
            return is_set_expression(node.func.value, set_valued)
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return is_set_expression(node.left, set_valued) or is_set_expression(
            node.right, set_valued
        )
    return False


def is_builtin_hash_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "hash"
    )


def sink_call_name(node: ast.Call, imports: ImportMap) -> Optional[str]:
    """A human-readable sink description when ``node`` is a sink call."""
    dotted = imports.resolve(dotted_name(node.func))
    if dotted is None:
        return None
    last = dotted.rsplit(".", 1)[-1]
    lowered = last.lower()
    if dotted in SINK_CALLEES:
        return dotted
    if dotted.startswith("hashlib.") and last in HASHLIB_CONSTRUCTORS:
        return dotted
    if any(fragment in lowered for fragment in SINK_NAME_FRAGMENTS):
        return dotted
    if isinstance(node.func, ast.Attribute) and node.func.attr in ("update", "hexdigest"):
        receiver = dotted_name(node.func.value)
        if receiver is not None:
            receiver_last = receiver.rsplit(".", 1)[-1].lower()
            if any(fragment in receiver_last for fragment in DIGEST_RECEIVER_FRAGMENTS):
                return dotted
    return None


@dataclass
class FunctionFacts:
    """What one function-body scan learned (see module docstring)."""

    node: FunctionNode
    set_valued: Set[str] = field(default_factory=set)
    hash_valued: Set[str] = field(default_factory=set)
    sink_calls: List[Tuple[ast.Call, str]] = field(default_factory=list)

    @property
    def has_sink(self) -> bool:
        return bool(self.sink_calls)


def iter_functions(tree: ast.Module) -> Iterator[FunctionNode]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


#: Substring of a function name that puts it on the engine's lane fast path
#: (``_step_lanes``, ``lane_hook``, ``decode_record_lanes``, ...).
LANE_NAME_FRAGMENT = "lane"

#: Methods of a lane-named class that build lanes *from* boxed records
#: (``LaneChunk.from_records``, ``LaneTrace.from_records``): every
#: non-native trace reaches the lane loop through them, so they are on the
#: lane path although their own names do not say so.
LANE_CLASS_BUILDERS = frozenset({"from_records"})


def iter_lane_functions(tree: ast.Module) -> Iterator[FunctionNode]:
    """Functions on the lane fast path, in any module.

    A function qualifies when its own name contains :data:`LANE_NAME_FRAGMENT`
    or when it is nested (at any depth) inside one that does — the fused
    closures a ``lane_hook()`` builder returns are the hottest code in the
    tree despite carrying short names like ``hook``.  Class bodies do not
    propagate the mark: ``LaneChunk.records`` is not a lane function merely
    for living on a lane-named class.  The exception is the
    :data:`LANE_CLASS_BUILDERS` of such a class.
    """

    def walk(node: ast.AST, in_lane: bool, lane_class: bool) -> Iterator[FunctionNode]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lane = (
                    in_lane
                    or LANE_NAME_FRAGMENT in child.name.lower()
                    or (lane_class and child.name in LANE_CLASS_BUILDERS)
                )
                if lane:
                    yield child
                yield from walk(child, lane, False)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, in_lane, LANE_NAME_FRAGMENT in child.name.lower())
            else:
                yield from walk(child, in_lane, lane_class)

    yield from walk(tree, False, False)


def scan_function(fn: FunctionNode, imports: ImportMap) -> FunctionFacts:
    """One pass over a function body collecting taint and sink facts."""
    facts = FunctionFacts(node=fn)
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            value = node.value
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if targets:
                if is_set_expression(value, facts.set_valued):
                    facts.set_valued.update(targets)
                if is_builtin_hash_call(value):
                    facts.hash_valued.update(targets)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                if is_set_expression(node.value, facts.set_valued):
                    facts.set_valued.add(node.target.id)
                if is_builtin_hash_call(node.value):
                    facts.hash_valued.add(node.target.id)
        elif isinstance(node, ast.Call):
            sink = sink_call_name(node, imports)
            if sink is not None:
                facts.sink_calls.append((node, sink))
    return facts


def call_argument_names(node: ast.Call) -> Iterator[ast.AST]:
    for arg in node.args:
        yield arg
    for keyword in node.keywords:
        yield keyword.value


def loops_in(fn: FunctionNode) -> Iterator[Union[ast.For, ast.While]]:
    """Loop statements in ``fn``, excluding those in nested function defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, LOOP_NODES):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def loop_body_nodes(loop: Union[ast.For, ast.While]) -> Iterator[ast.AST]:
    """AST nodes in a loop body, excluding nested functions and nested loops'
    own reporting (nested loops are yielded by :func:`loops_in` separately —
    their bodies are still walked here because work in them repeats for the
    outer loop too; dedup happens on line numbers at report time)."""
    stack: List[ast.AST] = []
    for stmt in loop.body + (loop.orelse or []):
        stack.append(stmt)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))
