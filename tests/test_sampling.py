"""Tests for repro.simulation.sampling."""

import math

import pytest

from repro.simulation.sampling import (
    ConfidenceInterval,
    SampledMeasurement,
    paired_speedup,
    t_quantile_975,
)


class TestTQuantile:
    def test_small_sample_values(self):
        assert t_quantile_975(1) == pytest.approx(12.706)
        assert t_quantile_975(10) == pytest.approx(2.228)

    def test_large_sample_approaches_normal(self):
        assert t_quantile_975(100) == pytest.approx(1.96)

    def test_invalid(self):
        with pytest.raises(ValueError):
            t_quantile_975(0)


class TestConfidenceInterval:
    def test_bounds(self):
        interval = ConfidenceInterval(mean=1.5, half_width=0.2)
        assert interval.lower == pytest.approx(1.3)
        assert interval.upper == pytest.approx(1.7)
        assert interval.contains(1.5)
        assert not interval.contains(2.0)

    def test_str(self):
        assert "±" in str(ConfidenceInterval(1.0, 0.1))


class TestSampledMeasurement:
    def test_mean_and_variance(self):
        samples = SampledMeasurement([1.0, 2.0, 3.0])
        assert samples.mean == pytest.approx(2.0)
        assert samples.variance == pytest.approx(1.0)
        assert samples.std_dev == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SampledMeasurement().mean
        with pytest.raises(ValueError):
            SampledMeasurement().confidence_interval()

    def test_single_sample_interval(self):
        interval = SampledMeasurement([2.5]).confidence_interval()
        assert interval.mean == 2.5
        assert interval.half_width == 0.0

    def test_interval_width_shrinks_with_samples(self):
        few = SampledMeasurement([1.0, 2.0, 3.0]).confidence_interval()
        many = SampledMeasurement([1.0, 2.0, 3.0] * 10).confidence_interval()
        assert many.half_width < few.half_width

    def test_add(self):
        samples = SampledMeasurement()
        samples.add(1.0)
        samples.add(2.0)
        assert samples.count == 2


class TestPairedSpeedup:
    def test_constant_ratio(self):
        interval = paired_speedup([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert interval.mean == pytest.approx(2.0)
        assert interval.half_width == pytest.approx(0.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            paired_speedup([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            paired_speedup([], [])

    def test_non_positive_improved_time(self):
        with pytest.raises(ValueError):
            paired_speedup([1.0], [0.0])

    def test_variable_ratios_produce_nonzero_interval(self):
        interval = paired_speedup([2.0, 3.0, 2.5], [1.0, 1.0, 1.0])
        assert interval.half_width > 0
        assert interval.lower < interval.mean < interval.upper
