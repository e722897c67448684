"""Tests for ``benchmarks/bench_history.py check`` (imported by path).

The check guards two kinds of metric: trailing-median comparisons
(``CHECKED_METRICS``) and absolute budgets (``BUDGET_METRICS``).  A guarded
metric missing from the newest record must fail the guard, not skip it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_history.py"
_spec = importlib.util.spec_from_file_location("bench_history", _SCRIPT)
bench_history = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_history)

#: A record with every guarded metric present and within budget.
HEALTHY = {
    "engine_sms_rps": 50_000,
    "lane_speedup": 3.3,
    "trace_overhead_pct": 0.4,
    "obs_overhead_pct": 1.6,
}


def _check(tmp_path, capsys, records, strict=True):
    history = tmp_path / "history.jsonl"
    history.write_text(
        "".join(json.dumps({"quick": False, "metrics": metrics}) + "\n" for metrics in records)
    )
    argv = ["--history", str(history), "check"] + (["--strict"] if strict else [])
    return bench_history.main(argv), capsys.readouterr().out


def _without(metric):
    return {name: value for name, value in HEALTHY.items() if name != metric}


class TestCheck:
    def test_within_budget_passes(self, tmp_path, capsys):
        code, out = _check(tmp_path, capsys, [HEALTHY, HEALTHY])
        assert code == 0
        assert "::warning::" not in out

    @pytest.mark.parametrize("metric", ["trace_overhead_pct", "obs_overhead_pct"])
    def test_over_budget_fails(self, tmp_path, capsys, metric):
        code, out = _check(tmp_path, capsys, [HEALTHY, {**HEALTHY, metric: 7.5}])
        assert code == 1
        assert "::warning::" in out and "over its" in out

    @pytest.mark.parametrize("metric", sorted(HEALTHY))
    def test_missing_guarded_metric_fails_like_a_regression(self, tmp_path, capsys, metric):
        code, out = _check(tmp_path, capsys, [HEALTHY, _without(metric)])
        assert code == 1
        warnings = [line for line in out.splitlines() if line.startswith("::warning::")]
        assert len(warnings) == 1 and metric in warnings[0]

    def test_missing_metric_only_warns_without_strict(self, tmp_path, capsys):
        code, out = _check(
            tmp_path, capsys, [HEALTHY, _without("trace_overhead_pct")], strict=False
        )
        assert code == 0
        assert "::warning::" in out and "trace_overhead_pct" in out

    def test_drop_below_trailing_median_fails(self, tmp_path, capsys):
        code, out = _check(tmp_path, capsys, [HEALTHY, {**HEALTHY, "engine_sms_rps": 30_000}])
        assert code == 1
        assert "::warning::" in out and "dropped" in out

    def test_no_comparable_history_is_not_a_failure(self, tmp_path, capsys):
        # A first record has nothing to drift from; its budgets still apply.
        code, out = _check(tmp_path, capsys, [HEALTHY])
        assert code == 0
        assert "no comparable prior entries for engine_sms_rps" in out
        assert "::warning::" not in out

    def test_empty_history_is_not_a_failure(self, tmp_path, capsys):
        code, out = _check(tmp_path, capsys, [])
        assert code == 0
        assert "no history yet" in out
