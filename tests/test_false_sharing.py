"""Tests for repro.coherence.false_sharing."""

import pytest

from repro.coherence.false_sharing import FalseSharingClassifier, MissClassification


class TestFalseSharingClassifier:
    def test_granularity_cannot_exceed_block(self):
        with pytest.raises(ValueError):
            FalseSharingClassifier(block_size=64, sharing_granularity=128)

    def test_cold_miss(self):
        classifier = FalseSharingClassifier(block_size=512)
        assert classifier.classify_miss(0, 0x1000) is MissClassification.COLD_OR_REPLACEMENT

    def test_true_sharing(self):
        classifier = FalseSharingClassifier(block_size=512)
        # CPU 0 loses the block because CPU 1 wrote chunk 0x1000; CPU 0 then
        # misses on that same chunk -> true sharing.
        classifier.record_invalidation(cpu=0, address=0x1000, writer_address=0x1010)
        assert classifier.classify_miss(0, 0x1008) is MissClassification.TRUE_SHARING

    def test_false_sharing(self):
        classifier = FalseSharingClassifier(block_size=512)
        # CPU 1 wrote a different 64B chunk of the 512B block than CPU 0 uses.
        classifier.record_invalidation(cpu=0, address=0x1000, writer_address=0x1100)
        assert classifier.classify_miss(0, 0x1008) is MissClassification.FALSE_SHARING

    def test_accumulated_remote_writes(self):
        classifier = FalseSharingClassifier(block_size=512)
        classifier.record_invalidation(cpu=0, address=0x1000, writer_address=0x1100)
        classifier.record_remote_write(cpu=0, address=0x1000, writer_address=0x1000)
        # The chunk CPU 0 uses was eventually written remotely -> true sharing.
        assert classifier.classify_miss(0, 0x1008) is MissClassification.TRUE_SHARING

    def test_record_cleared_after_miss(self):
        classifier = FalseSharingClassifier(block_size=512)
        classifier.record_invalidation(cpu=0, address=0x1000, writer_address=0x1100)
        classifier.classify_miss(0, 0x1008)
        assert classifier.classify_miss(0, 0x1008) is MissClassification.COLD_OR_REPLACEMENT

    def test_per_cpu_isolation(self):
        classifier = FalseSharingClassifier(block_size=512)
        classifier.record_invalidation(cpu=0, address=0x1000, writer_address=0x1100)
        assert classifier.classify_miss(1, 0x1008) is MissClassification.COLD_OR_REPLACEMENT
