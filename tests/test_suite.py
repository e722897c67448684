"""Tests for repro.workloads.suite (the workload registry)."""

import pytest

from repro.workloads.suite import (
    APPLICATION_NAMES,
    CATEGORIES,
    all_workloads,
    category_members,
    category_of,
    make_workload,
    representative_workloads,
    workloads_by_category,
)


class TestRegistry:
    def test_data_only_names_match_the_factories(self):
        # argparse ``choices`` and request validation read repro.workloads.names
        # without importing a generator; the suite's factories are the truth.
        from repro.workloads import names, suite

        assert names.APPLICATION_NAMES == list(suite._FACTORIES)
        assert suite.APPLICATION_NAMES is names.APPLICATION_NAMES
        assert suite.CATEGORIES is names.CATEGORIES
        for name in names.APPLICATION_NAMES:
            workload = make_workload(name, num_cpus=1, accesses_per_cpu=10)
            assert workload.metadata.category == names.category_of(name)
        assert set(names.CATEGORY_REPRESENTATIVE) == set(names.CATEGORIES)

    def test_eleven_applications(self):
        assert len(APPLICATION_NAMES) == 11

    def test_four_categories(self):
        assert CATEGORIES == ["OLTP", "DSS", "Web", "Scientific"]

    def test_make_workload_unknown(self):
        with pytest.raises(ValueError):
            make_workload("spec2006")

    def test_all_workloads(self):
        workloads = all_workloads(num_cpus=1, accesses_per_cpu=10)
        assert len(workloads) == 11
        assert [w.metadata.name for w in workloads] == APPLICATION_NAMES

    def test_workloads_by_category(self):
        dss = workloads_by_category("DSS", num_cpus=1, accesses_per_cpu=10)
        assert len(dss) == 4
        assert all(w.metadata.category == "DSS" for w in dss)

    def test_workloads_by_unknown_category(self):
        with pytest.raises(ValueError):
            workloads_by_category("HPC")

    def test_category_members_cover_all_applications(self):
        names = []
        for category in CATEGORIES:
            names.extend(category_members(category))
        assert sorted(names) == sorted(APPLICATION_NAMES)

    def test_category_of(self):
        assert category_of("oltp-db2") == "OLTP"
        assert category_of("sparse") == "Scientific"
        assert category_of("unknown") is None

    def test_representatives_one_per_category(self):
        representatives = representative_workloads(num_cpus=1, accesses_per_cpu=10)
        assert set(representatives) == set(CATEGORIES)
        for category, workload in representatives.items():
            assert workload.metadata.category == category

    def test_factory_passes_overrides(self):
        workload = make_workload("ocean", num_cpus=3, accesses_per_cpu=77, seed=5)
        assert workload.num_cpus == 3
        assert workload.accesses_per_cpu == 77
        assert workload.seed == 5
