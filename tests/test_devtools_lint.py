"""Tests for the source rules of ``tests/source_rules.py``.

Golden fixture snippets per rule ID (one violating + one clean each),
suppressions, the catalog, the meta-test that certifies the package has no
finding, and the censuses of knobs, modules, public names, assigned
attributes and constants, lazy exports, documented paths and imports.
"""

import ast
import re
import textwrap
from pathlib import Path

import pytest

import repro
from tests import source_rules
from tests.source_rules import (
    RULES,
    dotted_name,
    import_bindings,
    lint_file,
    lint_source,
    python_files,
    resolve,
)

PACKAGE_DIR = Path(repro.__file__).parent


def rules_at(source, path="pkg/module.py"):
    """Lint dedented ``source``; return the list of (rule, line) pairs."""
    return [(f.rule, f.line) for f in lint_source(textwrap.dedent(source), path)]


def rule_ids(source, path="pkg/module.py"):
    return [rule for rule, _ in rules_at(source, path)]


def dotted_module(path):
    return ".".join(path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts)


def lazy_export_tables():
    """``(package, name) -> (defining submodule, {its file, the package's
    __init__})`` for every entry of every ``lazy_exports`` table."""
    exports = {}
    for init in PACKAGE_DIR.rglob("__init__.py"):
        package = dotted_module(init.parent)
        for node in ast.walk(ast.parse(init.read_text())):
            if isinstance(node, ast.Call) and dotted_name(node.func) == "lazy_exports":
                for submodule, names in ast.literal_eval(node.args[1]).items():
                    owner = init.parent / f"{submodule}.py"
                    for name in names:
                        exports[package, name] = (f"{package}.{submodule}", {owner, init})
    return exports


def table_strings(tree):
    """Ids of the string constants of ``__slots__`` declarations and of
    ``lazy_exports`` tables: they name things, they do not use them."""
    tables = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__" for target in node.targets
        ):
            tables.append(node.value)
        elif isinstance(node, ast.Call) and dotted_name(node.func) == "lazy_exports":
            tables.append(node.args[1])
    return {id(constant) for table in tables for constant in ast.walk(table)}


def product_names(repo):
    """``(used, defined)``: every identifier that src/, benchmarks/ and
    examples/ use, and the qualified names of src/repro's public functions,
    classes and methods (``Class.method``)."""
    identifier = re.compile(r"[A-Za-z_]\w*\Z")
    used, defined = set(), set()
    for path in python_files(repo / "src", repo / "benchmarks", repo / "examples"):
        tree = ast.parse(path.read_text())
        tables = table_strings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and identifier.match(node.value) and id(node) not in tables):
                used.add(node.value)
        if PACKAGE_DIR not in path.parents:
            continue
        definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        for node in tree.body:
            if isinstance(node, definitions):
                defined.add(node.name)
                if isinstance(node, ast.ClassDef):
                    defined.update(
                        f"{node.name}.{member.name}"
                        for member in node.body if isinstance(member, definitions)
                    )
    return used, {name for name in defined if not name.rpartition(".")[2].startswith("_")}


def _assigned_names(statement):
    """Names and attributes a statement stores to (``+=`` included)."""
    if isinstance(statement, ast.Assign):
        for target in statement.targets:
            yield from (n for n in ast.walk(target) if isinstance(n, (ast.Name, ast.Attribute)))
    elif isinstance(statement, ast.AugAssign) or (
        isinstance(statement, ast.AnnAssign) and statement.value is not None
    ):
        yield statement.target


#: Slotted classes whose fields product code reads by walking ``__slots__``
#: from outside the class: the results ``serve.jobs.jsonify`` sends field by
#: field.  A class that walks its own ``self.__slots__`` (``CacheStats.as_dict``,
#: ``SimulationConfig``, ``SMSConfig``) is found without being listed.
SLOTS_WALKED_BY_JSONIFY = {"DensityHistogram", "ExecutionBreakdown"}


def _slots(cls):
    """The string entries of ``cls``'s own ``__slots__`` declaration."""
    return {
        constant.value
        for statement in cls.body if isinstance(statement, ast.Assign)
        if any(isinstance(target, ast.Name) and target.id == "__slots__"
               for target in statement.targets)
        for constant in ast.walk(statement.value) if isinstance(constant, ast.Constant)
    }


def _walks_own_slots(cls):
    return any(
        isinstance(node, ast.Attribute) and node.attr == "__slots__"
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        for node in ast.walk(cls)
    )


def product_reads_and_stores(repo):
    """``(names, attributes, constants, fields)``.

    ``names`` holds every bare name src/, benchmarks/ and examples/ load;
    ``attributes`` every attribute they load, import alias and
    identifier-shaped string, plus the ``__slots__`` entries of the classes
    whose fields product code walks by name.  ``constants`` maps each module
    constant and class attribute src/repro assigns or ``+=``-es to
    ``{where}``, and ``fields`` does the same for its ``self.`` attributes.
    """
    identifier = re.compile(r"[A-Za-z_]\w*\Z")
    names, attributes, constants, fields = set(), set(), {}, {}
    for path in python_files(repo / "src", repo / "benchmarks", repo / "examples"):
        tree = ast.parse(path.read_text())
        tables = table_strings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                attributes.update(node.name.split("."))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and identifier.match(node.value) and id(node) not in tables):
                attributes.add(node.value)
        if PACKAGE_DIR not in path.parents:
            continue
        where = str(path.relative_to(PACKAGE_DIR))
        for statement in tree.body:
            for target in _assigned_names(statement):
                if isinstance(target, ast.Name):
                    constants.setdefault(target.id, set()).add(where)
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            if cls.name in SLOTS_WALKED_BY_JSONIFY or _walks_own_slots(cls):
                attributes.update(_slots(cls))
            for statement in cls.body:
                for target in _assigned_names(statement):
                    if isinstance(target, ast.Name):
                        constants.setdefault(target.id, set()).add(f"{where}:{cls.name}")
            methods = (m for m in cls.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
            for statement in (node for method in methods for node in ast.walk(method)):
                for target in _assigned_names(statement):
                    if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        fields.setdefault(target.attr, set()).add(f"{where}:{cls.name}")
    return names, attributes, constants, fields


# --------------------------------------------------------------------------- #
# DET — determinism
# --------------------------------------------------------------------------- #
class TestDET001:
    def test_unseeded_module_function(self):
        findings = rules_at(
            """
            import random

            def jitter():
                return random.random()
            """
        )
        assert findings == [("DET001", 5)]

    def test_from_import_alias(self):
        assert "DET001" in rule_ids(
            """
            from random import randint as roll

            def pick():
                return roll(1, 6)
            """
        )

    def test_unseeded_instance(self):
        assert "DET001" in rule_ids(
            """
            import random

            def make_rng():
                return random.Random()
            """
        )

    def test_clean_seeded_instance(self):
        assert rule_ids(
            """
            import random

            def make_rng(seed):
                rng = random.Random(seed)
                return rng.random()
            """
        ) == []


class TestDET002:
    def test_wall_clock(self):
        findings = rules_at(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert findings == [("DET002", 5)]

    def test_datetime_now_via_from_import(self):
        assert "DET002" in rule_ids(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """
        )

    def test_clean_perf_counter(self):
        assert rule_ids(
            """
            import time

            def measure():
                return time.perf_counter()
            """
        ) == []


class TestDET003:
    def test_uuid4(self):
        findings = rules_at(
            """
            import uuid

            def token():
                return uuid.uuid4().hex
            """
        )
        assert findings == [("DET003", 5)]

    def test_os_urandom_and_secrets(self):
        ids = rule_ids(
            """
            import os
            import secrets

            def entropy():
                return os.urandom(8) + secrets.token_bytes(8)
            """
        )
        assert ids.count("DET003") == 2

    def test_clean_deterministic_uuid5(self):
        assert rule_ids(
            """
            import uuid

            def name_id(name):
                return uuid.uuid5(uuid.NAMESPACE_DNS, name)
            """
        ) == []


class TestDET004:
    def test_hash_into_digest(self):
        findings = rules_at(
            """
            import hashlib

            def cache_key(value):
                mixed = hash(value)
                digest = hashlib.sha256()
                digest.update(str(mixed).encode())
                return digest.hexdigest()
            """
        )
        assert ("DET004", 7) in findings

    def test_direct_hash_argument(self):
        assert "DET004" in rule_ids(
            """
            import hashlib

            def cache_key(value):
                digest = hashlib.sha256()
                digest.update(str(hash(value)).encode())
                return digest.hexdigest()
            """
        )

    def test_clean_repr_into_digest(self):
        assert rule_ids(
            """
            import hashlib

            def cache_key(value):
                digest = hashlib.sha256()
                digest.update(repr(value).encode())
                return digest.hexdigest()
            """
        ) == []


class TestDET005:
    def test_set_iteration_near_serialization(self):
        findings = rules_at(
            """
            import json

            def encode(items):
                names = {item.name for item in items}
                out = []
                for name in names:
                    out.append(name)
                return json.dumps(out)
            """
        )
        assert ("DET005", 7) in findings

    def test_set_argument_to_sink(self):
        assert "DET005" in rule_ids(
            """
            import json

            def encode(items):
                return json.dumps(list({i for i in items}))
            """
        )

    def test_clean_sorted_iteration(self):
        assert rule_ids(
            """
            import json

            def encode(items):
                names = {item.name for item in items}
                return json.dumps(sorted(names))
            """
        ) == []

    def test_set_iteration_without_sink_is_fine(self):
        assert rule_ids(
            """
            def total(items):
                distinct = {i for i in items}
                count = 0
                for item in distinct:
                    count += 1
                return count
            """
        ) == []


# --------------------------------------------------------------------------- #
# ENV / IMP
# --------------------------------------------------------------------------- #
class TestENV001:
    def test_environ_read(self):
        findings = rules_at(
            """
            import os

            def cache_dir():
                return os.environ.get("REPRO_CACHE_DIR")
            """
        )
        assert findings == [("ENV001", 5)]

    def test_environ_write_and_getenv(self):
        ids = rule_ids(
            """
            import os

            def configure(value):
                os.environ["X"] = value
                return os.getenv("Y")
            """
        )
        assert ids.count("ENV001") == 2

    def test_from_import_environ(self):
        assert "ENV001" in rule_ids(
            """
            from os import environ

            def cache_dir():
                return environ.get("REPRO_CACHE_DIR")
            """
        )

    def test_allowlisted_module_is_exempt(self):
        assert rule_ids(
            """
            import os

            def read(name):
                return os.environ.get(name)
            """,
            path="pkg/_env.py",
        ) == []


class TestIMP001:
    def test_third_party_import(self):
        findings = rules_at(
            """
            import numpy
            """
        )
        assert findings == [("IMP001", 2)]

    def test_third_party_from_import(self):
        assert "IMP001" in rule_ids(
            """
            from scipy.stats import gmean
            """
        )

    def test_clean_stdlib_package_and_relative(self):
        assert rule_ids(
            """
            import json
            from pathlib import Path
            from repro.core import pht
            from . import sibling
            """
        ) == []


# --------------------------------------------------------------------------- #
# HOT — tagged hot modules, plus lane functions anywhere
# --------------------------------------------------------------------------- #
HOT_PATH = "pkg/simulation/engine.py"
COLD_PATH = "pkg/analysis/charts.py"


class TestHOT001:
    def test_construction_in_loop(self):
        findings = rules_at(
            """
            class Record:
                pass

            def decode(chunk):
                out = []
                for item in chunk:
                    out.append(Record())
                return out
            """,
            path=HOT_PATH,
        )
        assert findings == [("HOT001", 8)]

    def test_raise_in_loop_is_exempt(self):
        assert rule_ids(
            """
            def validate(chunk):
                for item in chunk:
                    if item < 0:
                        raise ValueError(item)
            """,
            path=HOT_PATH,
        ) == []

    def test_not_applied_outside_hot_modules(self):
        assert rule_ids(
            """
            class Record:
                pass

            def decode(chunk):
                return [Record() for _ in chunk]
            """,
            path="pkg/analysis/charts.py",
        ) == []


class TestHOT002:
    def test_deep_chain_in_loop(self):
        findings = rules_at(
            """
            def apply(obj, chunk):
                for item in chunk:
                    obj.result.traffic.record(item)
            """,
            path=HOT_PATH,
        )
        assert findings == [("HOT002", 4)]

    def test_clean_hoisted_chain(self):
        assert rule_ids(
            """
            def apply(obj, chunk):
                record = obj.result.traffic.record
                for item in chunk:
                    record(item)
            """,
            path=HOT_PATH,
        ) == []


class TestHOT003:
    def test_try_in_loop(self):
        findings = rules_at(
            """
            def steps(chunk, table):
                for item in chunk:
                    try:
                        table[item] += 1
                    except KeyError:
                        table[item] = 1
            """,
            path=HOT_PATH,
        )
        assert findings == [("HOT003", 4)]

    def test_clean_try_around_loop(self):
        assert rule_ids(
            """
            def steps(chunk, table):
                try:
                    for item in chunk:
                        table[item] += 1
                finally:
                    table.clear()
            """,
            path=HOT_PATH,
        ) == []


class TestHOTLaneScope:
    """HOT001-003 follow lane functions out of the tagged hot modules."""

    def test_lane_function_in_cold_module(self):
        findings = rules_at(
            """
            class Record:
                pass

            def step_lanes(chunk):
                out = []
                for item in chunk:
                    out.append(Record())
                return out
            """,
            path=COLD_PATH,
        )
        assert findings == [("HOT001", 8)]

    def test_closure_inside_lane_builder(self):
        # The fused closures a lane_hook() builder returns carry short
        # names; they inherit the lane scope from the enclosing function.
        findings = rules_at(
            """
            def lane_hook(self):
                def hook(chunk, obj):
                    for item in chunk:
                        obj.result.traffic.record(item)
                return hook
            """,
            path=COLD_PATH,
        )
        assert findings == [("HOT002", 5)]

    def test_non_lane_function_in_cold_module_stays_exempt(self):
        assert rule_ids(
            """
            class Record:
                pass

            def decode(chunk):
                out = []
                for item in chunk:
                    out.append(Record())
                return out
            """,
            path=COLD_PATH,
        ) == []

    def test_lane_class_name_does_not_mark_methods(self):
        # Only function names propagate the lane mark; LaneChunk.records
        # is the sanctioned boxing API, not a lane function.
        assert rule_ids(
            """
            class LaneChunk:
                def totals(self, table):
                    for item in self.pc:
                        try:
                            table[item] += 1
                        except KeyError:
                            table[item] = 1
            """,
            path=COLD_PATH,
        ) == []


class TestHOT004:
    def test_records_escape_hatch_in_lane_function(self):
        findings = rules_at(
            """
            def step_lanes(chunk, step):
                for record in chunk.records():
                    step(record)
            """,
            path=COLD_PATH,
        )
        assert ("HOT004", 3) in findings

    def test_boxed_record_construction_in_lane_function(self):
        findings = rules_at(
            """
            def on_access_lane(pc, address):
                return MemoryAccess(pc, address)
            """,
            path=COLD_PATH,
        )
        assert findings == [("HOT004", 3)]

    def test_tuple_new_in_lane_function(self):
        findings = rules_at(
            """
            def decode_lanes(cls, fields):
                return tuple.__new__(cls, fields)
            """,
            path=COLD_PATH,
        )
        assert findings == [("HOT004", 3)]

    def test_cache_line_boxing_in_lane_function(self):
        findings = rules_at(
            """
            def _step_lanes(self, chunk, hooks):
                for block in chunk.address:
                    line = CacheLine(block, False, True, False)
            """,
            path=COLD_PATH,
        )
        assert ("HOT004", 4) in findings

    def test_packed_flags_in_lane_function_are_clean(self):
        findings = rules_at(
            """
            def _step_lanes(self, chunk, hooks):
                for block in chunk.address:
                    cache_set[block] = prefetched
            """,
            path=COLD_PATH,
        )
        assert findings == []

    def test_directory_boxing_in_lane_function(self):
        findings = rules_at(
            """
            def _step_lanes(self, chunk, hooks):
                for block in chunk.address:
                    entry = DirectoryEntry(block_addr=block)
                    actions = protocol.CoherenceActions()
            """,
            path=COLD_PATH,
        )
        assert ("HOT004", 4) in findings
        assert ("HOT004", 5) in findings

    def test_packed_directory_words_in_lane_function_are_clean(self):
        findings = rules_at(
            """
            def _step_lanes(self, chunk, hooks):
                for block, cpu in zip(chunk.address, chunk.cpu):
                    word = entries.get(block, 0)
                    if not word & cpu_bits[cpu]:
                        entries[block] = word | cpu_bits[cpu]
            """,
            path=COLD_PATH,
        )
        assert findings == []

    def test_sms_state_boxing_in_lane_function(self):
        findings = rules_at(
            """
            def _lane_closures(self):
                def on_access_lane(pc, address):
                    trigger = GenerationRecord(0, pc, 0, address, 1)
                    response = agt.TrainerResponse(trigger=trigger)
                    return response, [TrainerResponse(), GenerationRecord(0, pc, 0, address)]
                return on_access_lane
            """,
            path=COLD_PATH,
        )
        assert findings == [("HOT004", line) for line in (4, 5, 6, 6)]

    def test_packed_sms_words_in_lane_function_are_clean(self):
        findings = rules_at(
            """
            def _lane_closures(self):
                def on_access_lane(pc, address):
                    word = filter_pop(region, None)
                    accumulation[region] = (word << nb) | (1 << offset)
                    registers.append((region, bits))
                    return drain_bits(max_requests)
                return on_access_lane
            """,
            path=COLD_PATH,
        )
        assert findings == []

    def test_generated_record_boxing_in_batch_producer(self):
        findings = rules_at(
            """
            class Workload:
                def lane_batches(self, cpu, rng):
                    def page_visit(base):
                        record = self.make_access(context, pc=1, address=base)
                        rows.append(record._replace(instruction_count=count))
                        rows.append(MemoryAccess(pc=1, address=base))
                    while True:
                        page_visit(0)
                        yield rows
            """,
            path=COLD_PATH,
        )
        assert findings == [("HOT004", 5), ("HOT004", 6), ("HOT004", 7)]

    def test_rows_written_into_batch_columns_are_clean(self):
        findings = rules_at(
            """
            class Workload:
                def lane_batches(self, cpu, rng):
                    access, footprint, end_operation, take = self.lane_writer(rng)
                    while True:
                        access(0x400, 0x1000, 1)
                        footprint(0x2000, offsets, 0x500, write_probability=0.1)
                        yield take()
            """,
            path=COLD_PATH,
        )
        assert findings == []

    def test_applies_in_hot_modules_too(self):
        findings = rules_at(
            """
            def iter_lane_chunks(stream):
                for chunk in stream:
                    yield chunk.records()
            """,
            path=HOT_PATH,
        )
        assert ("HOT004", 4) in findings

    def test_lane_class_record_builders_are_lane_functions(self):
        source = """
            class LaneChunk:
                @classmethod
                def from_records(cls, records):
                    return cls([MemoryAccess(*fields) for fields in records])

                def records(self):
                    return [tuple.__new__(MemoryAccess, f) for f in self.rows]

            class LaneTrace:
                def iter_lane_chunks(self, chunk_size):
                    for chunk in self.chunks:
                        yield chunk.records()

            class Reader:
                def from_records(self, records):
                    return [MemoryAccess(*fields) for fields in records]
            """
        assert rules_at(source, path=COLD_PATH) == [("HOT004", 5), ("HOT004", 13)]

    def test_boxing_outside_lane_functions_is_fine(self):
        assert rule_ids(
            """
            def read_all(stream):
                out = []
                for chunk in stream:
                    out.extend(chunk.records())
                return out
            """,
            path=COLD_PATH,
        ) == []

    def test_lane_function_on_flat_lanes_is_clean(self):
        assert rule_ids(
            """
            def step_lanes(chunk, step):
                addresses = chunk.address
                cpus = chunk.cpu
                for i in range(len(chunk)):
                    step(cpus[i], addresses[i])
            """,
            path=COLD_PATH,
        ) == []


# --------------------------------------------------------------------------- #
# EXC / ROB / SUP
# --------------------------------------------------------------------------- #
class TestEXC001:
    def test_broad_except(self):
        findings = rules_at(
            """
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    return None
            """
        )
        assert findings == [("EXC001", 5)]

    def test_bare_and_tuple_forms(self):
        ids = rule_ids(
            """
            def load(path):
                try:
                    return open(path).read()
                except (ValueError, BaseException):
                    pass
                try:
                    return open(path).read()
                except:
                    return None
            """
        )
        assert ids.count("EXC001") == 2

    def test_clean_narrow_except(self):
        assert rule_ids(
            """
            def load(path):
                try:
                    return open(path).read()
                except (OSError, ValueError):
                    return None
            """
        ) == []


class TestROB001:
    def test_blocking_recv_in_serve_module(self):
        findings = rules_at(
            """
            def pump(conn):
                return conn.recv()
            """,
            path="pkg/serve/pool.py",
        )
        assert findings == [("ROB001", 3)]

    def test_queue_get_without_timeout(self):
        assert rule_ids(
            """
            def take(idle_queue):
                return idle_queue.get()
            """,
            path="pkg/serve/pool.py",
        ) == ["ROB001"]

    def test_timeout_kwarg_is_clean(self):
        assert rule_ids(
            """
            def take(idle_queue, conn):
                handle = idle_queue.get(timeout=5.0)
                if conn.poll(1.0):
                    return conn.recv(), handle  # repro: ignore[ROB001] -- poll-guarded above
                return None, handle
            """,
            path="pkg/serve/pool.py",
        ) == []

    def test_dict_get_is_not_confused(self):
        assert rule_ids(
            """
            def lookup(reply, spec):
                return reply.get("ok"), spec.get("item")
            """,
            path="pkg/serve/server.py",
        ) == []

    def test_not_applied_outside_serve(self):
        assert rule_ids(
            """
            def pump(conn):
                return conn.recv()
            """,
            path="pkg/simulation/sweep.py",
        ) == []

    def test_justified_ignore_silences(self):
        assert rule_ids(
            """
            def pump(conn):
                return conn.recv()  # repro: ignore[ROB001] -- idle worker loop; parent supervises
            """,
            path="pkg/serve/pool.py",
        ) == []


# --------------------------------------------------------------------------- #
# OBS — observability discipline
# --------------------------------------------------------------------------- #
class TestOBS001:
    def test_direct_wall_clock_delta(self):
        findings = rules_at(
            """
            import time

            def measure(start):
                return time.time() - start
            """
        )
        assert findings == [("DET002", 5), ("OBS001", 5)]

    def test_named_wall_clock_start(self):
        assert rule_ids(
            """
            import time

            def measure():
                start = time.time()
                work()
                return time.time() - start
            """
        ) == ["DET002", "DET002", "OBS001"]

    def test_time_ns_variant(self):
        assert rule_ids(
            """
            from time import time_ns

            def measure(start):
                return time_ns() - start
            """
        ) == ["DET002", "OBS001"]

    def test_fires_alongside_det002_in_result_modules(self):
        ids = rule_ids(
            """
            import time

            def measure(start):
                return time.time() - start
            """
        )
        assert "OBS001" in ids and "DET002" in ids

    def test_clean_perf_counter_delta(self):
        # Clean for OBS001 (no wall clock) — but a raw perf_counter pair is
        # now its own finding, OBS002: the duration should flow through
        # obs.span()/trace.span().
        assert rule_ids(
            """
            import time

            def measure():
                start = time.perf_counter()
                work()
                return time.perf_counter() - start
            """
        ) == ["OBS002"]

    def test_plain_subtraction_not_flagged(self):
        assert rule_ids(
            """
            def delta(a, b):
                return a - b
            """
        ) == []


class TestOBS002:
    def test_perf_counter_pair_flagged_at_assignment(self):
        findings = rules_at(
            """
            import time

            def measure():
                start = time.perf_counter()
                work()
                return time.perf_counter() - start
            """
        )
        # Anchored on the assignment line so one ignore covers the pair.
        assert findings == [("OBS002", 5)]

    def test_from_import_alias(self):
        assert rule_ids(
            """
            from time import perf_counter as clock

            def measure():
                t0 = clock()
                work()
                return clock() - t0
            """
        ) == ["OBS002"]

    def test_obs_package_exempt(self):
        source = """
            import time

            def observe():
                start = time.perf_counter()
                work()
                return time.perf_counter() - start
            """
        assert "OBS002" not in rule_ids(source, path="pkg/obs/registry.py")
        assert "OBS002" in rule_ids(source, path="pkg/serve/server.py")

    def test_monotonic_deadline_not_flagged(self):
        # Deadline arithmetic on time.monotonic() is not a span.
        assert rule_ids(
            """
            import time

            def wait(timeout):
                deadline = time.monotonic() + timeout
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return
            """
        ) == []

    def test_read_without_delta_not_flagged(self):
        assert rule_ids(
            """
            import time

            def stamp(record):
                record["at"] = time.perf_counter()
                return record
            """
        ) == []

    def test_justified_ignore_suppresses(self):
        assert rule_ids(
            """
            import time

            def rate(n):
                start = time.perf_counter()  # repro: ignore[OBS002] -- user-facing rate display
                work()
                return n / (time.perf_counter() - start)
            """
        ) == []


class TestSuppressions:
    BROAD = """
        def load(path):
            try:
                return open(path).read()
            except Exception:{comment}
                return None
        """

    def test_justified_suppression_silences(self):
        source = self.BROAD.format(
            comment="  # repro: ignore[EXC001] -- sandboxed plugin boundary"
        )
        assert rule_ids(source) == []

    def test_missing_justification_is_sup001_and_keeps_finding(self):
        source = self.BROAD.format(comment="  # repro: ignore[EXC001]")
        ids = rule_ids(source)
        assert "SUP001" in ids and "EXC001" in ids

    def test_unknown_rule_is_sup001(self):
        source = self.BROAD.format(comment="  # repro: ignore[NOPE123] -- because")
        ids = rule_ids(source)
        assert "SUP001" in ids and "EXC001" in ids

    def test_unused_suppression_is_sup002(self):
        ids = rule_ids(
            """
            def fine():
                return 1  # repro: ignore[DET001] -- stale tag
            """
        )
        assert ids == ["SUP002"]

    def test_syntax_error_raises(self):
        with pytest.raises(SyntaxError):
            lint_source("def broken(:\n", "pkg/module.py")


class TestCatalog:
    def test_catalog_names_exactly_the_rules(self):
        # The module docstring is the one catalog: a rule without an entry,
        # or an entry without a rule, fails here.
        catalog = set(re.findall(r"\b[A-Z]{3}\d{3}\b", source_rules.__doc__))
        assert sorted(catalog) == sorted(RULES)


#: The questions a signal may answer (the North star's observability aim).
ENGINE_PATH = "which engine path did this run take?"
LAYER_TIME = "where did the wall-clock go, by layer?"
WHICH_CACHE = "which cache answered?"
KNOB_COST = "what did that knob cost?"

#: Who reads a signal, and the file that shows it.  ``trace-report`` renders
#: every span of a trace file whatever its name, so it names no span.
READERS = {
    "trace-report": None,
    "benchmarks/e2e/layers.py": "benchmarks/e2e/layers.py",
    "CI scrape step": ".github/workflows/ci.yml",
}

#: Every metric family and span name src/repro creates: the question it
#: answers and who reads it.  A number whose home is elsewhere (the status
#: reply, ``WorkerPool.stats()``, a span attribute, a return value) gets no
#: family of its own.
SIGNALS = {
    # metric families
    "repro_engine_runs_total": (ENGINE_PATH, "benchmarks/e2e/layers.py"),
    "repro_serve_requests_total": (LAYER_TIME, "CI scrape step"),
    "repro_serve_request_seconds": (LAYER_TIME, "CI scrape step"),
    "repro_span_seconds": (LAYER_TIME, "CI scrape step"),
    "repro_cache_ops_total": (WHICH_CACHE, "CI scrape step"),
    # spans
    "client.request": (LAYER_TIME, "trace-report"),
    "serve.request": (LAYER_TIME, "trace-report"),
    "serve.execute": (LAYER_TIME, "trace-report"),
    "worker.execute": (LAYER_TIME, "trace-report"),
    "sweep.run": (LAYER_TIME, "trace-report"),
    "sweep.point": (LAYER_TIME, "trace-report"),
    "cache.get": (WHICH_CACHE, "trace-report"),
    "cache.put": (LAYER_TIME, "trace-report"),
    "engine.run": (ENGINE_PATH, "trace-report"),
}


def signal_names(package_dir):
    """Every literal family name passed to ``<x>.counter`` / ``<x>.histogram``
    / ``<x>.gauge`` and every literal span name passed to ``<x>.span`` under
    ``package_dir``, plus the sites that pass a computed name."""
    makers = {"counter", "histogram", "gauge", "span"}
    names, computed = set(), []
    for path in python_files(package_dir):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in makers and node.args):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                names.add(first.value)
            else:
                computed.append(f"{path.relative_to(package_dir)}: {ast.unparse(first)}")
    return names, computed


# --------------------------------------------------------------------------- #
# Meta: the package is clean, and injections are caught
# --------------------------------------------------------------------------- #
class TestPackageIsClean:
    def test_package_lints_clean(self):
        findings = [f for path in python_files(PACKAGE_DIR) for f in lint_file(path)]
        assert findings == [], "\n".join(map(str, findings))

    def test_no_dataclasses_outside_serve(self):
        # Every class the package defines, ``serve/`` included, is a plain
        # class or a NamedTuple: ``dataclasses`` (and the ``inspect`` it
        # drags in) is start-up cost no command needs.
        offenders = [
            str(path.relative_to(PACKAGE_DIR))
            for path in python_files(PACKAGE_DIR)
            if any(
                origin.split(".")[0] == "dataclasses"
                for origin in import_bindings(ast.parse(path.read_text())).values()
            )
        ]
        assert offenders == []

    def test_one_place_starts_worker_processes(self):
        # Parallel sweeps and the service share one pool: nothing but
        # WorkerPool._spawn starts a process (no multiprocessing.Pool, no
        # executor of processes, no fork or subprocess of its own).
        starters = {"Process", "Pool", "ProcessPoolExecutor", "Popen", "fork", "forkpty",
                    "posix_spawn", "posix_spawnp"}
        sites = []
        for path in python_files(PACKAGE_DIR):
            where = ["<module>"]

            class Starts(ast.NodeVisitor):
                def visit_FunctionDef(self, node):
                    where.append(node.name)
                    self.generic_visit(node)
                    where.pop()

                visit_AsyncFunctionDef = visit_FunctionDef

                def visit_Call(self, node):
                    name = dotted_name(node.func) or ""
                    if name.startswith("subprocess.") or name.split(".")[-1] in starters:
                        sites.append((str(path.relative_to(PACKAGE_DIR)), where[-1]))
                    self.generic_visit(node)

            Starts().visit(ast.parse(path.read_text()))
        assert sites == [("serve/pool.py", "_spawn")]

    def test_env_knobs_in_source_are_exactly_those_in_readme(self):
        # Knob inventory: removing (or adding) a REPRO_* variable under
        # src/repro/ without touching the README fails here, both ways.
        readme = Path(__file__).resolve().parent.parent / "README.md"
        if not readme.exists():
            pytest.skip("no README (installed-package run)")
        knob = re.compile(r"REPRO_[A-Z_]+")
        in_source = set()
        for path in python_files(PACKAGE_DIR):
            in_source.update(knob.findall(Path(path).read_text()))
        assert in_source == set(knob.findall(readme.read_text()))
        assert len(in_source) == 6

    def test_every_module_is_imported_by_another_or_dispatched(self):
        # Module census: a module reached only through its package's lazy
        # table (or by nothing) is dead weight that only its own test file
        # keeps alive.  An importer is any other module of src/, benchmarks/
        # or examples/; ``from repro.<pkg> import Name`` counts for the
        # submodule the package's ``lazy_exports`` table maps ``Name`` to.
        repo = Path(__file__).resolve().parent.parent
        if not (repo / "benchmarks").is_dir():
            pytest.skip("no benchmarks/ (installed-package run)")

        modules = {
            dotted_module(path) for path in python_files(PACKAGE_DIR)
            if path.name != "__init__.py"
        }
        lazy_owner = {
            f"{package}.{name}": submodule
            for (package, name), (submodule, _) in lazy_export_tables().items()
        }

        imported = set()
        for path in python_files(PACKAGE_DIR, repo / "benchmarks", repo / "examples"):
            importer = dotted_module(path) if PACKAGE_DIR in path.parents else None
            tree = ast.parse(path.read_text())
            origins = set(import_bindings(tree).values())
            # ``import repro.simulation.engine`` binds only ``repro``.
            origins.update(
                alias.name
                for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names
            )
            for origin in origins:
                target = lazy_owner.get(origin, origin)
                while target and target not in modules:
                    target = target.rpartition(".")[0]
                if target and target != importer:
                    imported.add(target)

        from repro.figures import FIGURES

        dispatched = {"repro.cli"} | {
            f"repro.experiments.{module}" for module in FIGURES.values()
        }
        exempt = {
            # The real decoupled sectored cache: the reference implementation
            # tests/test_decoupled_cache.py compares DecoupledSectoredTrainer's
            # forced-eviction approximation against.  No figure simulates it.
            "repro.memory.decoupled",
        }
        assert sorted(modules - imported - dispatched - exempt) == []
        assert exempt <= modules - imported, "exemption no longer needed"

    def test_every_public_name_is_used_by_the_product(self):
        # Symbol census: a public function, class or method of src/repro
        # that nothing in src/, benchmarks/ or examples/ names is kept alive
        # only by its own tests.  A name is used where it appears as a name,
        # an attribute, an import or an identifier-shaped string (getattr
        # dispatch, ``__all__``); the string entries of ``__slots__`` and
        # ``lazy_exports`` tables do not count.
        repo = Path(__file__).resolve().parent.parent
        if not (repo / "benchmarks").is_dir():
            pytest.skip("no benchmarks/ (installed-package run)")
        used, defined = product_names(repo)
        exempt = {
            # The reference decoupled sectored cache that
            # tests/test_decoupled_cache.py checks DecoupledSectoredTrainer
            # against (the module census exempts its module for the same
            # reason); no figure simulates it.
            "DecoupledSectoredCache": "test oracle",
            "DecoupledSectoredCache.resident_sectors": "test oracle's inspection",
            # The coherence invariants the directory oracle tests assert
            # after every step.
            "DirectoryEntry.validate": "invariant checker",
            # One-call engine construction, used by a dozen test files.
            "run_simulation": "test construction helper",
        }
        unused = {name for name in defined if name.rpartition(".")[2] not in used}
        assert sorted(unused - set(exempt)) == []
        assert set(exempt) <= unused, "exemption no longer needed"

    def test_every_assigned_attribute_and_constant_is_read(self):
        # Attribute census: a module constant, class attribute or instance
        # attribute of src/repro that is assigned or ``+=``-ed but that
        # nothing in src/, benchmarks/ or examples/ reads is a tally nobody
        # looks at, paid for on every update.  A constant is read where its
        # name or attribute is loaded; a ``self.`` attribute only where it is
        # loaded as an attribute, imported, named by an identifier string, or
        # walked through ``__slots__`` — a bare name of the same spelling,
        # such as the constructor parameter in ``self.x = x``, is not a read.
        # ``__slots__`` and ``lazy_exports`` strings do not count, and
        # neither do tests.
        repo = Path(__file__).resolve().parent.parent
        if not (repo / "benchmarks").is_dir():
            pytest.skip("no benchmarks/ (installed-package run)")
        names, attributes, constants, fields = product_reads_and_stores(repo)
        dunder = re.compile(r"__\w+__\Z")
        unread = {
            f"{where}.{name}"
            for name, places in constants.items()
            if name not in names | attributes and not dunder.match(name)
            for where in places
        } | {
            f"{where}.{name}"
            for name, places in fields.items()
            if name not in attributes and not dunder.match(name)
            for where in places
        }
        assert sorted(unread) == []

    def test_every_signal_answers_a_question(self):
        # Signal census: a metric family or span that answers none of the
        # four observability questions, or that nothing reads, is paid for on
        # every update and read by no one.  A row for a signal that no longer
        # exists fails too.
        repo = Path(__file__).resolve().parent.parent
        if not (repo / "benchmarks").is_dir():
            pytest.skip("no benchmarks/ (installed-package run)")
        names, computed = signal_names(PACKAGE_DIR)
        # The only computed names are the obs package's own pass-throughs.
        assert computed == ["obs/__init__.py: name"] * 2
        assert sorted(names) == sorted(SIGNALS)
        questions = {ENGINE_PATH, LAYER_TIME, WHICH_CACHE, KNOB_COST}
        for name, (question, reader) in SIGNALS.items():
            assert question in questions, name
            where = READERS[reader]
            assert where is None or name in (repo / where).read_text(), (name, reader)

    def test_slots_walked_by_jsonify_name_slotted_classes(self):
        # The census's jsonify listing must name real slotted classes, so a
        # rename cannot leave it counting reads of nothing.
        slotted = {
            node.name
            for path in python_files(PACKAGE_DIR)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef) and _slots(node)
        }
        assert SLOTS_WALKED_BY_JSONIFY <= slotted

    def test_every_lazy_export_has_an_importer(self):
        # A ``lazy_exports`` entry exists so that something can write
        # ``from repro.<pkg> import Name``: each one needs an importer (of
        # the package or of the defining submodule) outside that submodule
        # and the package's own ``__init__``.
        repo = Path(__file__).resolve().parent.parent
        if not (repo / "benchmarks").is_dir():
            pytest.skip("no benchmarks/ (installed-package run)")
        importers = {}
        for path in python_files(repo / "src", repo / "benchmarks", repo / "examples"):
            tree = ast.parse(path.read_text())
            bound = import_bindings(tree)
            origins = set(bound.values())
            origins.update(
                resolve(bound, dotted_name(node))
                for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            )
            for origin in origins:
                importers.setdefault(origin, set()).add(path)
        orphans = sorted(
            f"{package}.{name}"
            for (package, name), (submodule, owners) in lazy_export_tables().items()
            if not (importers.get(f"{package}.{name}", set())
                    | importers.get(f"{submodule}.{name}", set())) - owners
        )
        assert orphans == []

    def test_docs_name_only_files_that_exist(self):
        # Path census: every backticked repo-relative path in the README and
        # in a docstring under src/repro names something in the checkout, so
        # deleting or renaming a file fails here until its mentions are fixed.
        # A ``:line`` or ``::test`` suffix is ignored.
        repo = Path(__file__).resolve().parent.parent
        if not (repo / "README.md").exists():
            pytest.skip("no README (installed-package run)")
        roots = ("src/", "tests/", "benchmarks/", "examples/", ".github/")
        outputs = {
            # Where ``repro.cli trace-report`` writes by default; git-ignored.
            "benchmarks/trace_report/",
        }
        texts = {"README.md": (repo / "README.md").read_text()}
        documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        for path in python_files(PACKAGE_DIR):
            docstrings = (
                ast.get_docstring(node, clean=False)
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, documented)
            )
            texts[str(path.relative_to(repo))] = "\n".join(filter(None, docstrings))
        missing = sorted(
            f"{where}: {name}"
            for where, text in texts.items()
            for name in re.findall(r"`+([^`\s]+)`+", text)
            if name.startswith(roots) and name not in outputs
            and not (repo / name.partition(":")[0]).exists()
        )
        assert missing == []

    def test_injected_unseeded_random_is_caught(self):
        source = (PACKAGE_DIR / "core" / "sms.py").read_text()
        source += "\n\ndef _jitter():\n    import random\n    return random.random()\n"
        findings = lint_source(source, "src/repro/core/sms.py")
        assert [f.rule for f in findings] == ["DET001"]
        assert findings[0].line == len(source.splitlines())

    def test_injected_numpy_import_is_caught(self):
        source = "import numpy\n" + (PACKAGE_DIR / "trace" / "stream.py").read_text()
        findings = lint_source(source, "src/repro/trace/stream.py")
        assert [(f.rule, f.line) for f in findings] == [("IMP001", 1)]
