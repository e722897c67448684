"""Tests for repro.trace.stats."""

from repro.trace.record import AccessType, ExecutionMode, MemoryAccess
from repro.trace.stats import TraceStatistics, summarize_trace


def _trace():
    return [
        MemoryAccess(pc=0x400, address=0x1000, cpu=0, instruction_count=2),
        MemoryAccess(pc=0x404, address=0x1040, cpu=0, instruction_count=4),
        MemoryAccess(pc=0x400, address=0x1800, access_type=AccessType.WRITE, cpu=1,
                     mode=ExecutionMode.SYSTEM, instruction_count=6),
        MemoryAccess(pc=0x408, address=0x9000, cpu=1, instruction_count=9),
    ]


class TestSummarizeTrace:
    def test_counts(self):
        stats = summarize_trace(_trace())
        assert stats.total_accesses == 4
        assert stats.reads == 3
        assert stats.writes == 1
        assert stats.system_accesses == 1

    def test_unique_counts(self):
        stats = summarize_trace(_trace(), region_size=2048)
        assert stats.unique_pcs == 3
        # 0x1000 and 0x1040 share a 2 kB region; 0x1800 and 0x9000 are distinct.
        assert stats.unique_regions == 3

    def test_per_cpu(self):
        stats = summarize_trace(_trace())
        assert stats.accesses_per_cpu == {0: 2, 1: 2}
        assert stats.num_cpus == 2

    def test_fractions(self):
        stats = summarize_trace(_trace())
        assert stats.write_fraction == 0.25
        assert stats.system_fraction == 0.25

    def test_max_instruction_count(self):
        stats = summarize_trace(_trace())
        assert stats.max_instruction_count == 9

    def test_empty_trace(self):
        stats = summarize_trace([])
        assert stats.total_accesses == 0
        assert stats.num_cpus == 0


class TestTraceStatisticsDefaults:
    def test_zeroed(self):
        stats = TraceStatistics()
        assert stats.total_accesses == 0
        assert stats.system_fraction == 0.0
