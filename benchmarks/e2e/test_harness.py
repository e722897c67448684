"""Tier-1 smoke test of the end-to-end benchmark harness.

Runs ``bench.py --quick`` (tiny sizes, a few seconds) once untraced over all
workloads and once traced, side by side, and checks that the harness and
``BENCHMARK.json`` name exactly the same workloads and metrics.  It measures
nothing: quick results are refused by ``bench.py compare``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = [sys.executable, str(HERE / "bench.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_is_within_the_contract_limits():
    """The driver refuses a file outside these limits before a single run."""
    text = (ROOT / "BENCHMARK.json").read_text()
    spec = json.loads(text)
    assert len(text.encode()) <= 64 * 1024
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    assert spec["paths"] == [str(HERE.relative_to(ROOT))]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    for workload in spec["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in [*spec["end_to_end"], *spec["per_layer"]]:
        assert metric["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
    setup = [metric for metric in spec["end_to_end"] if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"] for metric in spec["end_to_end"])


def test_quick_run_emits_exactly_the_declared_names(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    outputs = {"untraced": tmp_path / "untraced.json", "traced": tmp_path / "traced.json"}
    commands = {
        "untraced": [*BENCH, "--quick", "--seed", "5", "--out", str(outputs["untraced"])],
        "traced": [*BENCH, "--quick", "--seed", "5", "--trace", "1",
                   "--workload", "trace_replay", "--out", str(outputs["traced"])],
    }
    procs = {
        key: subprocess.Popen(command, cwd=tmp_path, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        for key, command in commands.items()
    }
    stdout = {}
    for key, proc in procs.items():
        stdout[key], stderr = proc.communicate(timeout=170)
        assert proc.returncode == 0, stderr[-2000:]
    results = {key: json.loads(path.read_text()) for key, path in outputs.items()}

    workloads = [workload["name"] for workload in spec["workloads"]]
    end_to_end = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    for name in [*workloads, *end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name
    assert len(set(workloads) | set(end_to_end) | set(per_layer)) == (
        len(workloads) + len(end_to_end) + len(per_layer)
    ), "a name is used twice"

    untraced = results["untraced"]
    assert untraced["quick"] is True
    assert [run["workload"] for run in untraced["runs"]] == workloads
    for run in untraced["runs"]:
        emitted = {name: metric["unit"] for name, metric in run["metrics"].items()}
        assert emitted == end_to_end, run["workload"]
        assert all(metric["value"] > 0 for metric in run["metrics"].values()), run
        assert run["failed"] == 0 and run["correct"], run["info"]["failures"]
        assert re.fullmatch(r"[0-9a-f]{64}", run["sim_digest"])

    (traced,) = results["traced"]["runs"]
    emitted = {name: metric["unit"] for name, metric in traced["metrics"].items()}
    assert emitted == per_layer
    assert traced["failed"] == 0, traced["info"]["failures"]
    assert traced["metrics"]["engine.runs_lanes"]["value"] + \
        traced["metrics"]["engine.runs_reference"]["value"] == 28
    spans = json.loads((ROOT / ".bench_e2e" / "spans-trace_replay.json").read_text())
    assert {span["name"] for span in spans["spans"]} >= {
        "op.trace_replay", "ServeClient.request_raw", "repro.experiments.common.simulate",
    }

    # The driver's contract: the last line is one JSON object with four keys.
    for key, text in stdout.items():
        last = json.loads(text.strip().splitlines()[-1])
        assert sorted(last) == ["attempted", "correct", "failed", "metrics"], key
        assert last["attempted"] >= 1 and last["failed"] == 0

    refused = subprocess.run(
        [*BENCH, "compare", str(outputs["untraced"]), str(outputs["untraced"])],
        capture_output=True, text=True, timeout=60,
    )
    assert refused.returncode != 0 and "quick" in refused.stdout
