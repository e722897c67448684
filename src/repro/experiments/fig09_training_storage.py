"""Figure 9 — PHT storage sensitivity of LS versus AGT training.

The logical sectored tag array fragments generations when interleaved
accesses conflict in its tag array, creating more (and sparser) history
patterns; the AGT does not.  The figure therefore compares the PHT storage
the two training structures need to reach a given coverage.

Paper claims checked by the benchmark: for any coverage LS can achieve, AGT
reaches it with roughly half the PHT entries (the gap being largest for
OLTP), and AGT produces fewer distinct trained patterns overall.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.coverage import coverage_from_result
from repro.analysis.reporting import ResultTable
from repro.experiments import common

#: PHT sizes swept (entries); ``None`` is the unbounded PHT.
PHT_SIZES: List[Optional[int]] = [256, 512, 1024, 2048, 4096, 16384, None]

#: Training structures compared by Figure 9.
TRAINERS: List[str] = ["logical-sectored", "agt"]

_SHORT_NAMES = {"logical-sectored": "LS", "agt": "AGT"}


def _size_label(size: Optional[int]) -> str:
    return "infinite" if size is None else str(size)


def run_category(
    category: str,
    sizes: Optional[List[Optional[int]]] = None,
    trainers: Optional[List[str]] = None,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
) -> Dict[Tuple[str, Optional[int]], float]:
    """Return coverage keyed by (trainer, pht_size) for one category."""
    from repro.core.config import SMSConfig

    sizes = sizes if sizes is not None else PHT_SIZES
    trainers = trainers or TRAINERS
    trace, metadata = common.representative_trace(category, num_cpus=num_cpus, scale=scale)
    config = common.default_config(num_cpus=num_cpus)
    coverage: Dict[Tuple[str, Optional[int]], float] = {}
    for trainer in trainers:
        for size in sizes:
            sms_config = SMSConfig(
                trainer=trainer,
                pht_entries=size,
                trained_cache_capacity=config.l1_capacity,
                trained_cache_associativity=config.l1_associativity,
            )
            result = common.simulate(
                trace,
                common.sms_factory(sms_config),
                config=config,
                name=f"{category}-{trainer}-{_size_label(size)}",
                metadata=metadata,
            )
            coverage[(trainer, size)] = coverage_from_result(result, level="L1").coverage
    return coverage


def run(
    categories: Optional[List[str]] = None,
    sizes: Optional[List[Optional[int]]] = None,
    trainers: Optional[List[str]] = None,
    scale: float = 1.0,
    num_cpus: int = common.DEFAULT_NUM_CPUS,
    workers: Optional[int] = None,
) -> ResultTable:
    """Regenerate Figure 9's curves."""
    categories = categories or list(common.CATEGORY_REPRESENTATIVE)
    sizes = sizes if sizes is not None else PHT_SIZES
    trainers = trainers or TRAINERS
    table = ResultTable(
        title="Figure 9: PHT storage sensitivity (LS vs AGT training)",
        headers=["category", "trainer", "pht_entries", "coverage"],
    )
    sweep = common.run_sweep(
        run_category,
        categories,
        workers=workers,
        sizes=sizes,
        trainers=trainers,
        scale=scale,
        num_cpus=num_cpus,
    )
    for category, coverage in zip(categories, sweep):
        for trainer in trainers:
            for size in sizes:
                table.add_row(
                    category,
                    _SHORT_NAMES.get(trainer, trainer),
                    _size_label(size),
                    coverage[(trainer, size)],
                )
    return table
