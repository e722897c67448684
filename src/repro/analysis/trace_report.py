"""Trace waterfall: render one recorded span tree as text, SVG, and tables.

``repro.cli trace-report`` is the read side of :mod:`repro.obs.trace`:
given one ``trace-<id>.ndjson`` file (default: the newest one in the
cache's trace directory) it reconstructs the span tree and emits

* ``trace_report.md`` — an indented text waterfall, the critical path,
  a slowest-spans table, and the simulation-time telemetry series;
* ``waterfall.svg`` — one bar per span on a shared timeline, in a minimal
  no-dependency SVG style;
* ``telemetry.svg`` — coverage-over-trace-position polylines, when the
  trace carries ``kind == "telemetry"`` records.

Cross-process re-anchoring
--------------------------

Span ``start`` fields are raw :func:`time.perf_counter` readings, which
are only comparable *within* one process — the tracer records no wall
clock anywhere (rule ``DET001``).  The renderer therefore anchors each
process subtree relative to its parent span: when a child span was
recorded by a different pid than its parent, the child subtree keeps its
own internal timing but is shifted so it sits centred inside the parent
span (and never starts before it).  Bars from one process are exact;
alignment *between* processes is presentational, which the report states
up front.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs import trace as obs_trace

__all__ = [
    "DEFAULT_OUT_DIR",
    "SpanNode",
    "load_trace",
    "build_tree",
    "critical_path",
    "slowest_spans",
    "render_text_waterfall",
    "render_waterfall_svg",
    "render_telemetry_svg",
    "render_markdown",
    "write_report",
]

#: Default output directory, relative to the repository root.
DEFAULT_OUT_DIR = Path("benchmarks") / "trace_report"

#: Text-waterfall bar width in characters.
TEXT_BAR_WIDTH = 40

SVG_WIDTH = 640
SVG_ROW_HEIGHT = 18
SVG_PAD = 12
SVG_LABEL_WIDTH = 190

#: Bar fill per nesting depth, cycled.
SVG_COLORS = ("#2a6fbb", "#4a8fd0", "#6aafdf", "#8ac4e8", "#a8d4ee")

TELEMETRY_SVG_HEIGHT = 160
TELEMETRY_SERIES = (
    ("l1_coverage", "#2a6fbb"),
    ("l2_coverage", "#bb6f2a"),
    ("l1_overprediction_rate", "#999999"),
)


class SpanNode:
    """One span record plus its children and re-anchored absolute times."""

    __slots__ = ("record", "children", "abs_start", "abs_end")

    def __init__(self, record: dict) -> None:
        self.record = record
        self.children: List["SpanNode"] = []
        self.abs_start = 0.0
        self.abs_end = 0.0

    @property
    def name(self) -> str:
        return str(self.record.get("name", "?"))

    @property
    def duration(self) -> float:
        value = self.record.get("dur", 0.0)
        return float(value) if isinstance(value, (int, float)) else 0.0

    @property
    def pid(self) -> int:
        value = self.record.get("pid", 0)
        return int(value) if isinstance(value, int) else 0

    @property
    def status(self) -> str:
        return str(self.record.get("status", "ok"))

    def walk(self, depth: int = 0):
        """Depth-first ``(node, depth)`` pairs, children in start order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)


def load_trace(path: Union[str, Path]) -> Tuple[List[dict], List[dict]]:
    """``(span_records, telemetry_records)`` from one trace ndjson file."""
    records = obs_trace.load_trace_file(Path(path))
    spans = [record for record in records if record.get("kind") == "span"]
    telemetry = [record for record in records if record.get("kind") == "telemetry"]
    return spans, telemetry


def build_tree(spans: Sequence[dict]) -> List[SpanNode]:
    """Span records -> anchored roots (spans with no recorded parent).

    A span whose parent id never reached the file (lost flush, foreign
    process) is promoted to a root rather than dropped, so a damaged
    trace still renders.
    """
    nodes: Dict[str, SpanNode] = {}
    for record in spans:
        span_id = record.get("span")
        if isinstance(span_id, str) and span_id:
            # Last record wins on duplicate ids (re-appended flushes).
            nodes[span_id] = SpanNode(record)
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent_id = node.record.get("parent")
        parent = nodes.get(parent_id) if isinstance(parent_id, str) else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: float(child.record.get("start", 0.0)))
    roots.sort(key=lambda root: float(root.record.get("start", 0.0)))
    for root in roots:
        _anchor(root, offset=-float(root.record.get("start", 0.0)))
    return roots


def _anchor(node: SpanNode, offset: float) -> None:
    """Assign absolute times; re-anchor children recorded by another pid.

    ``offset`` maps this node's process-local clock onto the report
    timeline.  Same-pid children inherit it unchanged (their relative
    timing is exact).  A child from a different process gets a fresh
    offset that centres it inside this span, clamped so it never starts
    before its parent — cross-process alignment is presentational.
    """
    start = float(node.record.get("start", 0.0))
    node.abs_start = start + offset
    node.abs_end = node.abs_start + node.duration
    for child in node.children:
        if child.pid == node.pid:
            _anchor(child, offset)
            continue
        child_start = float(child.record.get("start", 0.0))
        child_center = child_start + child.duration / 2.0
        parent_center = node.abs_start + node.duration / 2.0
        child_offset = parent_center - child_center
        if child_start + child_offset < node.abs_start:
            child_offset = node.abs_start - child_start
        _anchor(child, child_offset)


def critical_path(root: SpanNode) -> List[SpanNode]:
    """Root -> leaf chain through the child finishing last at each level."""
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda child: child.abs_end)
        path.append(node)
    return path


def slowest_spans(roots: Sequence[SpanNode], limit: int = 10) -> List[SpanNode]:
    """The ``limit`` longest spans across all trees, longest first."""
    flat = [node for root in roots for node, _ in root.walk()]
    flat.sort(key=lambda node: (-node.duration, node.name))
    return flat[:limit]


def _extent(roots: Sequence[SpanNode]) -> Tuple[float, float]:
    lo = min(node.abs_start for root in roots for node, _ in root.walk())
    hi = max(node.abs_end for root in roots for node, _ in root.walk())
    return lo, (hi if hi > lo else lo + 1e-9)


def _format_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.2f} ms"


def render_text_waterfall(roots: Sequence[SpanNode]) -> str:
    """An indented tree with aligned duration bars, one line per span."""
    if not roots:
        return "(no spans)"
    lo, hi = _extent(roots)
    span_total = hi - lo
    labels = []
    for root in roots:
        for node, depth in root.walk():
            labels.append("  " * depth + node.name)
    width = max(len(label) for label in labels)
    lines = []
    index = 0
    for root in roots:
        for node, depth in root.walk():
            left = int(TEXT_BAR_WIDTH * (node.abs_start - lo) / span_total)
            filled = int(TEXT_BAR_WIDTH * node.duration / span_total)
            filled = max(filled, 1)
            if left + filled > TEXT_BAR_WIDTH:
                left = TEXT_BAR_WIDTH - filled
            bar = " " * left + "#" * filled + " " * (TEXT_BAR_WIDTH - left - filled)
            marker = " !" if node.status != "ok" else ""
            lines.append(
                f"{labels[index]:<{width}}  |{bar}|  "
                f"{_format_ms(node.duration)} pid={node.pid}{marker}"
            )
            index += 1
    return "\n".join(lines)


def render_waterfall_svg(roots: Sequence[SpanNode]) -> str:
    """One bar per span on a shared timeline."""
    rows = [(node, depth) for root in roots for node, depth in root.walk()]
    height = SVG_PAD * 2 + SVG_ROW_HEIGHT * max(len(rows), 1) + 14
    if not rows:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
            f'height="{height}" viewBox="0 0 {SVG_WIDTH} {height}">\n'
            f'  <text x="{SVG_PAD}" y="{SVG_PAD + 10}" font-size="10" '
            f'font-family="monospace" fill="#333333">empty trace</text>\n</svg>\n'
        )
    lo, hi = _extent(roots)
    span_total = hi - lo
    inner_w = SVG_WIDTH - SVG_LABEL_WIDTH - 2 * SVG_PAD
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{height}" viewBox="0 0 {SVG_WIDTH} {height}">',
        f'  <rect width="{SVG_WIDTH}" height="{height}" fill="#ffffff"/>',
        f'  <text x="{SVG_PAD}" y="{SVG_PAD}" font-size="10" '
        f'font-family="monospace" fill="#333333">span waterfall: '
        f"{html.escape(_format_ms(span_total))} total, {len(rows)} span(s)</text>",
    ]
    for row, (node, depth) in enumerate(rows):
        y = SVG_PAD + 6 + row * SVG_ROW_HEIGHT
        x = SVG_LABEL_WIDTH + SVG_PAD + inner_w * (node.abs_start - lo) / span_total
        w = max(inner_w * node.duration / span_total, 1.0)
        color = "#bb2a2a" if node.status != "ok" else SVG_COLORS[depth % len(SVG_COLORS)]
        label = html.escape("  " * depth + node.name)
        parts.append(
            f'  <text x="{SVG_PAD}" y="{y + 12}" font-size="9" '
            f'font-family="monospace" fill="#333333">{label}</text>'
        )
        parts.append(
            f'  <rect x="{x:.1f}" y="{y + 3}" width="{w:.1f}" '
            f'height="{SVG_ROW_HEIGHT - 6}" fill="{color}">'
            f"<title>{label.strip()}: {html.escape(_format_ms(node.duration))} "
            f"(pid {node.pid})</title></rect>"
        )
    parts.append("</svg>\n")
    return "\n".join(parts)


def _telemetry_samples(telemetry: Sequence[dict]) -> List[dict]:
    samples: List[dict] = []
    for record in telemetry:
        batch = record.get("samples")
        if isinstance(batch, list):
            samples.extend(item for item in batch if isinstance(item, dict))
    samples.sort(key=lambda item: item.get("position", 0))
    return samples


def render_telemetry_svg(telemetry: Sequence[dict]) -> Optional[str]:
    """Coverage/overprediction polylines over trace position, or ``None``."""
    samples = _telemetry_samples(telemetry)
    if len(samples) < 2:
        return None
    positions = [float(item.get("position", 0)) for item in samples]
    lo_x, hi_x = min(positions), max(positions)
    span_x = (hi_x - lo_x) or 1.0
    inner_w = SVG_WIDTH - 2 * SVG_PAD
    inner_h = TELEMETRY_SVG_HEIGHT - 2 * SVG_PAD
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{TELEMETRY_SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {TELEMETRY_SVG_HEIGHT}">',
        f'  <rect width="{SVG_WIDTH}" height="{TELEMETRY_SVG_HEIGHT}" fill="#ffffff"/>',
        f'  <text x="{SVG_PAD}" y="{SVG_PAD - 2}" font-size="10" '
        f'font-family="monospace" fill="#333333">telemetry over trace position '
        f"(n={len(samples)}): "
        + ", ".join(name for name, _ in TELEMETRY_SERIES)
        + "</text>",
    ]
    for series_name, color in TELEMETRY_SERIES:
        points = []
        for position, sample in zip(positions, samples):
            value = sample.get(series_name)
            if not isinstance(value, (int, float)):
                continue
            x = SVG_PAD + inner_w * (position - lo_x) / span_x
            y = SVG_PAD + inner_h * (1.0 - min(max(float(value), 0.0), 1.0))
            points.append(f"{x:.1f},{y:.1f}")
        if len(points) >= 2:
            parts.append(
                f'  <polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{" ".join(points)}"/>'
            )
    parts.append("</svg>\n")
    return "\n".join(parts)


def render_markdown(
    trace_file: Union[str, Path],
    roots: Sequence[SpanNode],
    telemetry: Sequence[dict],
    svg_names: Optional[Dict[str, str]] = None,
) -> str:
    lines = [
        "# Trace report",
        "",
        f"Source: `{Path(trace_file).name}`.",
        "",
    ]
    if not roots:
        lines += ["No spans in this trace file.", ""]
        return "\n".join(lines)
    trace_ids = sorted(
        {str(node.record.get("trace")) for root in roots for node, _ in root.walk()}
    )
    pids = sorted({node.pid for root in roots for node, _ in root.walk()})
    span_count = sum(1 for root in roots for _ in root.walk())
    lines += [
        f"{span_count} span(s) across {len(pids)} process(es) "
        f"(trace {', '.join(f'`{tid}`' for tid in trace_ids)}).",
        "Timing within one process is exact; cross-process bars are",
        "re-anchored inside their parent span (no shared clock is recorded).",
        "",
        "## Waterfall",
        "",
        "```",
        render_text_waterfall(roots),
        "```",
        "",
    ]
    if svg_names:
        for file_name in svg_names.values():
            lines.append(f"![{file_name}]({file_name})")
        lines.append("")
    lines += ["## Critical path", ""]
    for root in roots:
        path = critical_path(root)
        chain = " -> ".join(node.name for node in path)
        lines.append(f"- `{chain}` ({_format_ms(path[0].duration)} at the root)")
    lines += [
        "",
        "## Slowest spans",
        "",
        "| span | duration | pid | status |",
        "| --- | --- | --- | --- |",
    ]
    for node in slowest_spans(roots):
        lines.append(
            f"| `{node.name}` | {_format_ms(node.duration)} "
            f"| {node.pid} | {node.status} |"
        )
    lines.append("")
    samples = _telemetry_samples(telemetry)
    lines += ["## Simulation telemetry", ""]
    if not samples:
        lines += [
            "_No telemetry records (enable with `REPRO_TRACE_TELEMETRY=<N>`)._",
            "",
        ]
    else:
        lines += [
            "| position | accesses | l1 coverage | l2 coverage | overpred | PHT |",
            "| --- | --- | --- | --- | --- | --- |",
        ]
        for sample in samples:
            lines.append(
                f"| {sample.get('position', '-')} | {sample.get('accesses', '-')} "
                f"| {sample.get('l1_coverage', '-')} | {sample.get('l2_coverage', '-')} "
                f"| {sample.get('l1_overprediction_rate', '-')} "
                f"| {sample.get('pht_occupancy', '-')} |"
            )
        lines.append("")
    return "\n".join(lines)


def render_json_report(
    trace_file: Union[str, Path],
    roots: Sequence[SpanNode],
    telemetry: Sequence[dict],
) -> str:
    """Machine-readable summary (the `--json` face of trace-report)."""

    def node_dict(node: SpanNode) -> dict:
        return {
            "name": node.name,
            "span": node.record.get("span"),
            "pid": node.pid,
            "duration": node.duration,
            "status": node.status,
            "children": [node_dict(child) for child in node.children],
        }

    payload = {
        "source": str(trace_file),
        "spans": sum(1 for root in roots for _ in root.walk()),
        "roots": [node_dict(root) for root in roots],
        "critical_paths": [
            [node.name for node in critical_path(root)] for root in roots
        ],
        "telemetry_samples": _telemetry_samples(telemetry),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def write_report(
    trace_file: Optional[Union[str, Path]] = None,
    out_dir: Optional[Union[str, Path]] = None,
) -> List[Path]:
    """Render the report; returns the paths written (markdown first).

    With no ``trace_file``, the newest ``trace-*.ndjson`` in the cache's
    trace directory is used; :class:`FileNotFoundError` when there is none.
    """
    if trace_file is None:
        candidates = obs_trace.list_trace_files()
        if not candidates:
            raise FileNotFoundError(
                f"no trace files under {obs_trace.trace_dir()} "
                "(record one with REPRO_TRACE=on)"
            )
        trace_file = candidates[-1]
    spans, telemetry = load_trace(trace_file)
    roots = build_tree(spans)
    target = Path(out_dir) if out_dir is not None else DEFAULT_OUT_DIR
    target.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    svg_names: Dict[str, str] = {}
    if roots:
        waterfall_path = target / "waterfall.svg"
        waterfall_path.write_text(render_waterfall_svg(roots))
        svg_names["waterfall"] = waterfall_path.name
        written.append(waterfall_path)
    telemetry_svg = render_telemetry_svg(telemetry)
    if telemetry_svg is not None:
        telemetry_path = target / "telemetry.svg"
        telemetry_path.write_text(telemetry_svg)
        svg_names["telemetry"] = telemetry_path.name
        written.append(telemetry_path)
    report_path = target / "trace_report.md"
    report_path.write_text(render_markdown(trace_file, roots, telemetry, svg_names))
    written.insert(0, report_path)
    return written
