"""Analysis utilities: coverage metrics, density histograms, opportunity studies,
and plain-text reporting for the benchmark harness."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "coverage": ("CoverageReport", "compare_coverage"),
        "density": ("DensityHistogram", "DENSITY_BINS", "measure_density"),
        "opportunity": ("OpportunityResult", "measure_opportunity"),
        "reporting": ("format_percentage", "ResultTable"),
    },
)
