"""Figure 7 — PHT storage sensitivity of PC+address versus PC+offset.

Sweeps the Pattern History Table capacity for the two strongest index schemes
of Figure 6.  Paper claims checked by the benchmark: PC+offset reaches (close
to) its peak coverage with a practical 16k-entry PHT, whereas PC+address —
whose key space scales with the data set — needs far more storage to approach
its unbounded coverage.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.coverage import coverage_from_result
from repro.analysis.reporting import ResultTable
from repro.experiments import common

#: PHT sizes swept (entries); ``None`` is the unbounded PHT.
PHT_SIZES: List[Optional[int]] = [256, 1024, 4096, 16384, None]

#: Index schemes compared by Figure 7.
SCHEMES: List[str] = ["pc+address", "pc+offset"]


def _size_label(size: Optional[int]) -> str:
    return "infinite" if size is None else str(size)


def run_category(
    category: str,
    sizes: Optional[List[Optional[int]]] = None,
    schemes: Optional[List[str]] = None,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
) -> Dict[Tuple[str, Optional[int]], float]:
    """Return coverage keyed by (scheme, pht_size) for one category."""
    from repro.core.config import SMSConfig

    sizes = sizes if sizes is not None else PHT_SIZES
    schemes = schemes or SCHEMES
    trace, metadata = common.representative_trace(category, num_cpus=num_cpus, scale=scale)
    config = common.default_config(num_cpus=num_cpus)
    coverage: Dict[Tuple[str, Optional[int]], float] = {}
    for scheme in schemes:
        for size in sizes:
            sms_config = SMSConfig(
                index_scheme=scheme,
                pht_entries=size,
                filter_entries=None,
                accumulation_entries=None,
            )
            result = common.simulate(
                trace,
                common.sms_factory(sms_config),
                config=config,
                name=f"{category}-{scheme}-{_size_label(size)}",
                metadata=metadata,
            )
            report = coverage_from_result(result, level="L1")
            coverage[(scheme, size)] = report.coverage
    return coverage


def run(
    categories: Optional[List[str]] = None,
    sizes: Optional[List[Optional[int]]] = None,
    schemes: Optional[List[str]] = None,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
    workers: Optional[int] = None,
) -> ResultTable:
    """Regenerate Figure 7's curves."""
    categories = categories or list(common.CATEGORY_REPRESENTATIVE)
    sizes = sizes if sizes is not None else PHT_SIZES
    schemes = schemes or SCHEMES
    table = ResultTable(
        title="Figure 7: PHT storage sensitivity (PC+address vs PC+offset)",
        headers=["category", "index", "pht_entries", "coverage"],
    )
    sweep = common.run_sweep(
        run_category,
        categories,
        workers=workers,
        sizes=sizes,
        schemes=schemes,
        scale=scale,
        num_cpus=num_cpus,
    )
    for category, coverage in zip(categories, sweep):
        for scheme in schemes:
            for size in sizes:
                table.add_row(category, scheme, _size_label(size), coverage[(scheme, size)])
    return table
