"""Tests for repro.analysis.reporting."""

import pytest

from repro.analysis.reporting import ResultTable, format_percentage, format_table


class TestFormatters:
    def test_percentage(self):
        assert format_percentage(0.583) == "58.3%"
        assert format_percentage(1.234, digits=0) == "123%"

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["longer", 2.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "longer" in lines[-1]
        assert "2.500" in lines[-1]


class TestResultTable:
    def test_add_row_and_columns(self):
        table = ResultTable(title="t", headers=["app", "coverage"])
        table.add_row("oltp", 0.5)
        table.add_row("dss", 0.9)
        assert table.column("coverage") == [0.5, 0.9]
        assert table.column("app") == ["oltp", "dss"]

    def test_add_row_wrong_arity(self):
        table = ResultTable(title="t", headers=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_to_dicts(self):
        table = ResultTable(title="t", headers=["app", "coverage"])
        table.add_row("oltp", 0.5)
        assert table.to_dicts() == [{"app": "oltp", "coverage": 0.5}]

    def test_str_contains_title_and_rows(self):
        table = ResultTable(title="My results", headers=["app"])
        table.add_row("web")
        text = str(table)
        assert "My results" in text
        assert "web" in text
