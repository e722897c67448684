"""Tests for the repro.devtools static analyzer.

Golden fixture snippets per rule ID (one violating + one clean each),
suppression and baseline round-trips, CLI exit codes, and the meta-test
that certifies the shipped package lints clean with an empty baseline.
"""

import ast
import json
import re
import textwrap
from pathlib import Path

import pytest

import repro
from repro.devtools import baseline as baseline_mod
from repro.devtools import dataflow
from repro.devtools import lint as lint_mod
from repro.devtools.rules import RULES
from repro.devtools.walker import discover_files, lint_file, lint_source

PACKAGE_DIR = Path(repro.__file__).parent


def rules_at(source, path="pkg/module.py"):
    """Lint dedented ``source``; return the list of (rule, line) pairs."""
    report = lint_source(textwrap.dedent(source), path)
    return [(f.rule, f.line) for f in report.findings]


def rule_ids(source, path="pkg/module.py"):
    return [rule for rule, _ in rules_at(source, path)]


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

    def test_not_flagged_outside_result_modules(self):
        assert rule_ids(
            """
            import random

            def jitter():
                return random.random()
            """,
            path="pkg/devtools/helper.py",
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
                    trigger = TriggerInfo(pc=pc, address=address, region=0, offset=0)
                    event = agt.AGTEvent(is_trigger=True, trigger=trigger)
                    record = GenerationRecord(0, pc, 0, address)
                    registers.append(PredictionRegister(geometry, 0, pattern))
                    return [StreamRequest(address, 0, 0)], SpatialPattern(32, 1)
                return on_access_lane
            """,
            path=COLD_PATH,
        )
        assert findings == [("HOT004", line) for line in (4, 5, 6, 7, 8, 8)]

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
# EXC / SUP / SYN
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
            """,
            path="pkg/devtools/helper.py",  # outside DET002's scope
        )
        assert findings == [("OBS001", 5)]

    def test_named_wall_clock_start(self):
        assert rule_ids(
            """
            import time

            def measure():
                start = time.time()
                work()
                return time.time() - start
            """,
            path="pkg/devtools/helper.py",
        ) == ["OBS001"]

    def test_time_ns_variant(self):
        assert "OBS001" in rule_ids(
            """
            from time import time_ns

            def measure(start):
                return time_ns() - start
            """,
            path="pkg/devtools/helper.py",
        )

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
            """,
            path="pkg/devtools/helper.py",
        ) == ["OBS002"]

    def test_plain_subtraction_not_flagged(self):
        assert rule_ids(
            """
            def delta(a, b):
                return a - b
            """,
            path="pkg/devtools/helper.py",
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
            """,
            path="pkg/devtools/helper.py",
        )
        # Anchored on the assignment line so one ignore covers the pair.
        assert findings == [("OBS002", 5)]

    def test_from_import_alias(self):
        assert "OBS002" in rule_ids(
            """
            from time import perf_counter as clock

            def measure():
                t0 = clock()
                work()
                return clock() - t0
            """,
            path="pkg/devtools/helper.py",
        )

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
            """,
            path="pkg/devtools/helper.py",
        ) == []

    def test_read_without_delta_not_flagged(self):
        assert rule_ids(
            """
            import time

            def stamp(record):
                record["at"] = time.perf_counter()
                return record
            """,
            path="pkg/devtools/helper.py",
        ) == []

    def test_justified_ignore_suppresses(self):
        assert rule_ids(
            """
            import time

            def rate(n):
                start = time.perf_counter()  # repro: ignore[OBS002] -- user-facing rate display
                work()
                return n / (time.perf_counter() - start)
            """,
            path="pkg/devtools/helper.py",
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

    def test_family_token_works(self):
        source = self.BROAD.format(
            comment="  # repro: ignore[EXC] -- sandboxed plugin boundary"
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

    def test_syntax_error_is_syn001(self):
        assert rule_ids("def broken(:\n") == ["SYN001"]


# --------------------------------------------------------------------------- #
# Baseline round-trip
# --------------------------------------------------------------------------- #
class TestBaseline:
    BAD = textwrap.dedent(
        """
        import numpy
        """
    )

    def test_round_trip(self, tmp_path, capsys):
        module = tmp_path / "mod.py"
        module.write_text(self.BAD)
        baseline = tmp_path / "baseline.json"

        assert lint_mod.main([str(module)]) == 1
        assert (
            lint_mod.main([str(module), "--baseline", str(baseline), "--write-baseline"])
            == 0
        )
        capsys.readouterr()
        assert lint_mod.main([str(module), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_new_finding_not_masked(self, tmp_path, capsys):
        module = tmp_path / "mod.py"
        module.write_text(self.BAD)
        baseline = tmp_path / "baseline.json"
        lint_mod.main([str(module), "--baseline", str(baseline), "--write-baseline"])
        module.write_text(self.BAD + "import scipy\n")
        capsys.readouterr()
        assert lint_mod.main([str(module), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "scipy" in out and "numpy" not in out

    def test_edited_line_resurfaces(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(self.BAD)
        baseline = tmp_path / "baseline.json"
        lint_mod.main([str(module), "--baseline", str(baseline), "--write-baseline"])
        module.write_text("\nimport numpy as np\n")
        assert lint_mod.main([str(module), "--baseline", str(baseline)]) == 1

    def test_unused_entries_reported(self, tmp_path, capsys):
        module = tmp_path / "mod.py"
        module.write_text(self.BAD)
        baseline = tmp_path / "baseline.json"
        lint_mod.main([str(module), "--baseline", str(baseline), "--write-baseline"])
        module.write_text("import json\n")
        capsys.readouterr()
        assert lint_mod.main([str(module), "--baseline", str(baseline)]) == 0
        err = capsys.readouterr().err
        assert "unused baseline entry" in err

    def test_corrupt_baseline_is_usage_error(self, tmp_path, capsys):
        module = tmp_path / "mod.py"
        module.write_text("import json\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text("not json")
        assert lint_mod.main([str(module), "--baseline", str(baseline)]) == 2


# --------------------------------------------------------------------------- #
# CLI behaviour
# --------------------------------------------------------------------------- #
class TestCLI:
    def test_clean_file_exits_zero(self, tmp_path):
        module = tmp_path / "ok.py"
        module.write_text("import json\n")
        assert lint_mod.main([str(module)]) == 0

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_mod.main([str(tmp_path / "absent.py")]) == 2

    def test_unknown_select_is_usage_error(self, tmp_path, capsys):
        module = tmp_path / "ok.py"
        module.write_text("import json\n")
        assert lint_mod.main([str(module), "--select", "BOGUS"]) == 2

    def test_select_limits_rules(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("import numpy\nimport os\nx = os.environ.get('A')\n")
        assert lint_mod.main([str(module), "--select", "ENV001"]) == 1
        assert lint_mod.main([str(module), "--select", "DET"]) == 0

    def test_json_output_shape(self, tmp_path, capsys):
        module = tmp_path / "mod.py"
        module.write_text("import numpy\n")
        assert lint_mod.main([str(module), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"IMP001": 1}
        assert payload["findings"][0]["rule"] == "IMP001"
        assert payload["findings"][0]["line"] == 1

    def test_repro_cli_subcommand(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", str(PACKAGE_DIR)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_every_rule_has_catalog_metadata(self):
        for rule_id, rule in RULES.items():
            assert rule.title and rule.rationale, rule_id
            assert rule_id.startswith(rule.family)


# --------------------------------------------------------------------------- #
# Meta: the shipped package is clean, and injections are caught
# --------------------------------------------------------------------------- #
class TestPackageIsClean:
    def test_package_lints_clean(self):
        findings = []
        for path in discover_files([PACKAGE_DIR]):
            findings.extend(lint_file(path).findings)
        assert findings == [], "\n".join(f.format_human() for f in findings)

    def test_shipped_baseline_is_empty(self):
        baseline_path = Path(__file__).resolve().parent.parent / "lint-baseline.json"
        if not baseline_path.exists():
            pytest.skip("no committed baseline (installed-package run)")
        assert baseline_mod.load(baseline_path) == {}

    def test_env_knobs_in_source_are_exactly_those_in_readme(self):
        # Knob inventory: removing (or adding) a REPRO_* variable under
        # src/repro/ without touching the README fails here, both ways.
        readme = Path(__file__).resolve().parent.parent / "README.md"
        if not readme.exists():
            pytest.skip("no README (installed-package run)")
        knob = re.compile(r"REPRO_[A-Z_]+")
        in_source = set()
        for path in discover_files([PACKAGE_DIR]):
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

        def dotted(path):
            return ".".join(path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts)

        package_files = discover_files([PACKAGE_DIR])
        modules = {dotted(path) for path in package_files if path.name != "__init__.py"}
        lazy_owner = {}
        for path in package_files:
            if path.name != "__init__.py":
                continue
            package = dotted(path.parent)
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and dataflow.dotted_name(node.func) == "lazy_exports":
                    for submodule, names in ast.literal_eval(node.args[1]).items():
                        for name in names:
                            lazy_owner[f"{package}.{name}"] = f"{package}.{submodule}"

        imported = set()
        for path in discover_files([PACKAGE_DIR, repo / "benchmarks", repo / "examples"]):
            importer = dotted(path) if PACKAGE_DIR in path.parents else None
            tree = ast.parse(path.read_text())
            origins = set(dataflow.ImportMap(tree).bound.values())
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

        from repro.cli import EXPERIMENT_CHOICES

        dispatched = {"repro.cli"} | {
            f"repro.experiments.{module}" for module in EXPERIMENT_CHOICES.values()
        }
        exempt = {
            # The real decoupled sectored cache: the reference implementation
            # tests/test_decoupled_cache.py compares DecoupledSectoredTrainer's
            # forced-eviction approximation against.  No figure simulates it.
            "repro.memory.decoupled",
        }
        assert sorted(modules - imported - dispatched - exempt) == []
        assert exempt <= modules - imported, "exemption no longer needed"

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
        for path in discover_files([PACKAGE_DIR]):
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
        report = lint_source(source, "src/repro/core/sms.py")
        assert [f.rule for f in report.findings] == ["DET001"]
        assert report.findings[0].line == len(source.splitlines())

    def test_injected_numpy_import_is_caught(self):
        source = "import numpy\n" + (PACKAGE_DIR / "trace" / "stream.py").read_text()
        report = lint_source(source, "src/repro/trace/stream.py")
        assert [(f.rule, f.line) for f in report.findings] == [("IMP001", 1)]
