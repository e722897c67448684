"""Append-only benchmark history and regression check.

``bench_throughput.py`` writes a point-in-time ``BENCH_engine.json``; this
tool keeps the trajectory.  Two subcommands::

    python benchmarks/bench_history.py append --report BENCH_engine.json
    python benchmarks/bench_history.py check

``append`` extracts the headline throughput numbers from a report and
appends one JSON line — keyed by git SHA and UTC timestamp — to
``benchmarks/BENCH_history.jsonl``.  ``check`` compares the newest entry's
engine SMS throughput *and* the lanes-vs-reference speedup against the
trailing median of the preceding entries (same ``quick`` flag only, so CI
smoke numbers are never compared against full local runs) and warns when
either dropped by more than the threshold (default 15%), and the overhead
metrics against their absolute budgets.  A guarded metric that is missing
from the newest entry is reported like a regression: an unchecked guard is
not a passed one.

The check is **non-gating** by design: shared CI runners are noisy, so a
single slow machine must not block a merge.  ``check`` always exits 0
unless ``--strict`` is given; regressions are reported as a
``::warning::``-prefixed line that GitHub Actions surfaces as an
annotation.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_HISTORY = REPO_ROOT / "benchmarks" / "BENCH_history.jsonl"
DEFAULT_REPORT = REPO_ROOT / "BENCH_engine.json"

#: Metric the regression check watches, as a path into the report.
CHECKED_METRIC = ("engine", "sms", "records_per_second")
#: How many trailing entries feed the median.
TRAILING_WINDOW = 10

#: Metrics ``check`` compares against their trailing medians: a drop in
#: ``engine_sms_rps`` means the engine got slower outright, a drop in
#: ``lane_speedup`` means the lane fast path stopped paying for itself
#: relative to the reference path (both are CPU-time based, so a loaded
#: runner distorts neither).
CHECKED_METRICS = (
    ("engine_sms_rps", "engine sms.records_per_second"),
    ("lane_speedup", "lanes_vs_reference.lane_speedup"),
)

#: Overhead metrics ``check`` compares against an absolute budget rather
#: than a trailing median: these are already relative numbers (percent
#: cost of an instrumentation layer on the lane path), so the guard is
#: "stay under budget", not "don't drift from history".
BUDGET_METRICS = (
    ("trace_overhead_pct", "trace_overhead.overhead_pct", 1.0),
    ("obs_overhead_pct", "obs_overhead.overhead_pct", 2.0),
)


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _dig(mapping: dict, path) -> object:
    value = mapping
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def _extract_metrics(report: dict) -> dict:
    """The headline numbers worth tracking across commits."""
    metrics = {
        "engine_baseline_rps": _dig(report, ("engine", "baseline", "records_per_second")),
        "engine_sms_rps": _dig(report, ("engine", "sms", "records_per_second")),
        "lane_speedup": _dig(report, ("lanes_vs_reference", "lane_speedup")),
        "lanes_rps": _dig(report, ("lanes_vs_reference", "lanes", "records_per_second")),
        "reference_rps": _dig(report, ("lanes_vs_reference", "reference", "records_per_second")),
        "decode_binary_rps": _dig(report, ("decode", "binary", "records_per_second")),
        "generate_oltp_rps": _dig(report, ("generate", "oltp-db2", "records_per_second")),
        "obs_overhead_pct": _dig(report, ("obs_overhead", "overhead_pct")),
        "trace_overhead_pct": _dig(report, ("trace_overhead", "overhead_pct")),
    }
    return {key: value for key, value in metrics.items() if value is not None}


def _load_history(path: Path):
    entries = []
    if path.exists():
        for line_number, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                print(f"{path}:{line_number}: skipping unparseable history line",
                      file=sys.stderr)
    return entries


def command_append(args: argparse.Namespace) -> int:
    report_path = Path(args.report)
    report = json.loads(report_path.read_text())
    entry = {
        "git_sha": _git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": bool(report.get("quick")),
        "metrics": _extract_metrics(report),
    }
    history_path = Path(args.history)
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with history_path.open("a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"appended {entry['git_sha'][:12]} ({len(entry['metrics'])} metrics) "
          f"to {history_path}")
    return 0


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _warn_missing(metric_name: str, display: str) -> None:
    """A guarded metric the latest record lacks is a failed guard, not a pass."""
    print(f"::warning::{display} ({metric_name}) is missing from the latest "
          f"history entry; its guard cannot be checked")


def command_check(args: argparse.Namespace) -> int:
    entries = _load_history(Path(args.history))
    if not entries:
        print("bench-history: no history yet; nothing to check")
        return 0
    latest = entries[-1]
    regressed = []
    for metric_name, display in CHECKED_METRICS:
        latest_value = latest.get("metrics", {}).get(metric_name)
        if latest_value is None:
            _warn_missing(metric_name, display)
            regressed.append(metric_name)
            continue
        prior = [
            entry["metrics"][metric_name]
            for entry in entries[:-1]
            if entry.get("quick") == latest.get("quick")
            and entry.get("metrics", {}).get(metric_name) is not None
        ][-TRAILING_WINDOW:]
        if not prior:
            print(f"bench-history: no comparable prior entries for "
                  f"{metric_name}; skipping")
            continue
        median = _median(prior)
        drop = (median - latest_value) / median if median else 0.0
        print(f"bench-history: {metric_name} latest={latest_value:,} "
              f"trailing-median={median:,.2f} (n={len(prior)}) drop={drop:+.1%}")
        if drop > args.threshold:
            print(f"::warning::{display} dropped {drop:.1%} below the "
                  f"trailing median ({latest_value:,} vs {median:,.2f}); "
                  f"threshold {args.threshold:.0%}")
            regressed.append(metric_name)
    for metric_name, display, budget in BUDGET_METRICS:
        latest_value = latest.get("metrics", {}).get(metric_name)
        if latest_value is None:
            _warn_missing(metric_name, display)
            regressed.append(metric_name)
            continue
        print(f"bench-history: {metric_name} latest={latest_value:+.2f}% "
              f"budget={budget:.0f}%")
        if latest_value > budget:
            print(f"::warning::{display} is {latest_value:+.2f}%, over its "
                  f"{budget:.0f}% budget")
            regressed.append(metric_name)
    if regressed:
        return 1 if args.strict else 0
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", default=str(DEFAULT_HISTORY),
                        help="history file (JSON lines, append-only)")
    sub = parser.add_subparsers(dest="command", required=True)

    append = sub.add_parser("append", help="record one BENCH_engine.json report")
    append.add_argument("--report", default=str(DEFAULT_REPORT),
                        help="report produced by bench_throughput.py")
    append.set_defaults(func=command_append)

    check = sub.add_parser("check", help="warn when throughput regressed")
    check.add_argument("--threshold", type=float, default=0.15,
                       help="relative drop vs the trailing median that trips "
                            "the warning (default 0.15)")
    check.add_argument("--strict", action="store_true",
                       help="exit 1 on regression instead of warning only")
    check.set_defaults(func=command_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
