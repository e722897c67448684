"""Smoke tests for the per-figure experiment runners.

The full-size runs live in ``benchmarks/``; these tests only verify that each
runner produces well-formed tables on tiny traces (so a refactoring mistake in
an experiment module is caught by ``pytest tests/`` in seconds, not minutes).
"""

import pytest

from repro.experiments import (
    fig04_block_size,
    fig05_density,
    fig07_pht_storage,
    fig08_training,
    fig09_training_storage,
    fig12_speedup,
    fig13_breakdown,
)

TINY = dict(scale=0.08, num_cpus=2)


class TestFig04:
    def test_rows_and_normalisation(self):
        table = fig04_block_size.run(categories=["Web"], sizes=[64, 512], **TINY)
        rows = table.to_dicts()
        assert len(rows) == 2
        baseline = next(row for row in rows if row["size"] == 64)
        assert baseline["l1_miss_rate"] == 1.0
        assert baseline["l2_miss_rate"] == 1.0


    def test_false_sharing_column_is_pinned(self):
        # The only figure that simulates blocks larger than the 64-byte
        # coherence unit, hence the only one whose false-sharing classifier
        # can fire: one seeded sweep's rows, exactly.
        table = fig04_block_size.run(
            categories=["OLTP"], sizes=[64, 512, 8192], scale=0.15, num_cpus=4
        )
        assert table.rows == [
            ["OLTP", 64, 1.0, 1.0, 1.0, 1.0, 0.0],
            ["OLTP", 512, 0.439161554192229, 0.43430470347648265,
             0.31557377049180324, 0.3770491803278688, 0.0012295081967213114],
            ["OLTP", 8192, 0.3558282208588957, 0.23849693251533743,
             0.08196721311475409, 0.1209016393442623, 0.004508196721311475],
        ]


class TestFig05:
    def test_density_fractions_form_distribution(self):
        table = fig05_density.run(applications=["ocean"], **TINY)
        rows = table.to_dicts()
        assert {row["level"] for row in rows} == {"L1", "L2"}
        for row in rows:
            bins_total = sum(
                value for key, value in row.items()
                if key.endswith("blocks") or key == "1 block"
            )
            assert bins_total == pytest.approx(1.0, abs=1e-6) or bins_total == 0.0


class TestFig07:
    def test_sizes_labelled(self):
        table = fig07_pht_storage.run(
            categories=["Web"], sizes=[256, None], schemes=["pc+offset"], **TINY
        )
        labels = {row["pht_entries"] for row in table.to_dicts()}
        assert labels == {"256", "infinite"}


class TestFig08:
    def test_trainer_short_names(self):
        table = fig08_training.run(categories=["Web"], trainers=["agt"], **TINY)
        assert table.to_dicts()[0]["trainer"] == "AGT"


class TestFig09:
    def test_rows_per_trainer_and_size(self):
        table = fig09_training_storage.run(
            categories=["Web"], sizes=[256], trainers=["agt", "logical-sectored"], **TINY
        )
        assert len(table.rows) == 2


class TestFig12:
    def test_speedup_table_includes_geometric_mean(self):
        table = fig12_speedup.run(applications=["ocean"], samples=1, **TINY)
        names = [row["application"] for row in table.to_dicts()]
        assert names == ["ocean", "geometric-mean"]
        assert table.to_dicts()[0]["speedup"] > 0

    def test_geometric_mean_helper(self):
        assert fig12_speedup.geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            fig12_speedup.geometric_mean([])


class TestFig13:
    def test_base_bar_normalised_to_one(self):
        table = fig13_breakdown.run(applications=["ocean"], **TINY)
        rows = {row["system"]: row for row in table.to_dicts()}
        assert rows["base"]["total"] == pytest.approx(1.0)
        assert rows["SMS"]["total"] <= 1.05
