"""Plain-text result tables.

The benchmark harness prints the same rows/series the paper's figures show;
these helpers keep that output consistent and readable in pytest's captured
output and in the examples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

Cell = Union[str, int, float]


def format_percentage(value: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string (0.583 -> ``"58.3%"``)."""
    return f"{100.0 * value:.{digits}f}%"


def _format_cell(value: Cell) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Cell]], title: str = "") -> str:
    """Render a simple aligned text table."""
    formatted_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in formatted_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


class ResultTable:
    """An accumulating table of experiment rows, printable and exportable.

    A plain class: every figure builds one, all-hits runs included, and must
    not import ``dataclasses`` to do so.  Tables compare by identity; nothing
    compares two of them (their ``to_text()`` is what the tests diff).
    """

    def __init__(
        self, title: str, headers: List[str], rows: Optional[List[List[Cell]]] = None
    ) -> None:
        self.title = title
        self.headers = headers
        self.rows: List[List[Cell]] = [] if rows is None else rows

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells but the table has {len(self.headers)} columns"
            )
        self.rows.append(list(cells))

    def column(self, header: str) -> List[Cell]:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def to_text(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)

    def to_dicts(self) -> List[Dict[str, Cell]]:
        return [dict(zip(self.headers, row)) for row in self.rows]

    def __str__(self) -> str:
        return self.to_text()
