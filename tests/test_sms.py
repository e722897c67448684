"""Tests for repro.core.sms (the end-to-end SMS predictor).

These tests drive SMS directly (without the simulation engine) through
hand-written access sequences and check that it learns patterns, predicts at
trigger accesses, and streams the right blocks.
"""

import pytest

from repro.coherence.multiprocessor import AccessOutcomeRecord
from repro.core import SMSConfig, SpatialMemoryStreaming
from repro.memory.cache import AccessOutcome, AccessResult
from repro.memory.hierarchy import MemoryLevel
from repro.trace.record import MemoryAccess


def outcome_for(record, miss=True):
    """Build a minimal AccessOutcomeRecord for the prefetcher interface."""
    result = AccessResult(
        outcome=AccessOutcome.MISS if miss else AccessOutcome.HIT,
        block_addr=record.address & ~63,
    )
    return AccessOutcomeRecord(record=record, level=MemoryLevel.MEMORY, l1_result=result)


def drive(sms, pc, address):
    record = MemoryAccess(pc=pc, address=address)
    return sms.on_access(record, outcome_for(record))


REGION_A = 0x100000
REGION_B = 0x200000


@pytest.fixture
def sms():
    return SpatialMemoryStreaming(SMSConfig(region_size=2048, block_size=64))


class TestLearningAndPrediction:
    def test_no_prediction_before_training(self, sms):
        response = drive(sms, 0x400, REGION_A)
        assert not response.prefetches

    def test_pattern_learned_and_predicted_for_new_region(self, sms):
        # Generation in region A: blocks 0, 2, 5 accessed, trigger pc 0x400.
        drive(sms, 0x400, REGION_A + 0 * 64)
        drive(sms, 0x404, REGION_A + 2 * 64)
        drive(sms, 0x408, REGION_A + 5 * 64)
        # Generation ends: one of its blocks is evicted.
        sms.on_eviction(REGION_A + 2 * 64, invalidated=False)
        # A new region triggered by the same PC at the same offset predicts
        # the learned pattern (minus the trigger block).
        response = drive(sms, 0x400, REGION_B + 0 * 64)
        addresses = sorted(request.address for request in response.prefetches)
        assert addresses == [REGION_B + 2 * 64, REGION_B + 5 * 64]

    def test_prediction_targets_l1_by_default(self, sms):
        drive(sms, 0x400, REGION_A)
        drive(sms, 0x404, REGION_A + 64)
        sms.on_eviction(REGION_A, invalidated=False)
        response = drive(sms, 0x400, REGION_B)
        assert all(request.target_l1 for request in response.prefetches)

    def test_different_trigger_offset_uses_different_pattern(self, sms):
        # Learn a pattern triggered at offset 0.
        drive(sms, 0x400, REGION_A + 0 * 64)
        drive(sms, 0x404, REGION_A + 1 * 64)
        sms.on_eviction(REGION_A, invalidated=False)
        # A trigger at a different offset by the same PC has no PHT entry.
        response = drive(sms, 0x400, REGION_B + 9 * 64)
        assert not response.prefetches

    def test_single_block_generations_never_train(self, sms):
        drive(sms, 0x400, REGION_A)
        sms.on_eviction(REGION_A, invalidated=False)
        response = drive(sms, 0x400, REGION_B)
        assert not response.prefetches
        assert sms.stats.trained_patterns == 0

    def test_pht_statistics(self, sms):
        drive(sms, 0x400, REGION_A)
        drive(sms, 0x404, REGION_A + 64)
        sms.on_eviction(REGION_A, invalidated=False)
        drive(sms, 0x400, REGION_B)
        assert sms.stats.trained_patterns == 1
        assert sms.stats.pht_hits >= 1
        assert sms.stats.issued == 1


class TestInvalidation:
    def test_invalidation_ends_generation_and_trains(self, sms):
        drive(sms, 0x400, REGION_A)
        drive(sms, 0x404, REGION_A + 64)
        sms.on_eviction(REGION_A + 64, invalidated=True)
        assert sms.stats.trained_patterns == 1

    def test_invalidation_cancels_streaming_for_region(self, sms):
        # Learn a large pattern, then restrict issue bandwidth so streaming is
        # still in progress when the invalidation arrives.
        config = SMSConfig(max_requests_per_access=1)
        sms = SpatialMemoryStreaming(config)
        drive(sms, 0x400, REGION_A)
        for offset in (1, 2, 3, 4):
            drive(sms, 0x404, REGION_A + offset * 64)
        sms.on_eviction(REGION_A, invalidated=False)
        first = drive(sms, 0x400, REGION_B)
        assert len(first.prefetches) == 1
        sms.on_eviction(REGION_B, invalidated=True)
        assert sms.registers.active_registers == 0


class TestConfigurationVariants:
    def test_l2_only_streaming(self):
        sms = SpatialMemoryStreaming(SMSConfig(stream_into_l1=False))
        drive(sms, 0x400, REGION_A)
        drive(sms, 0x404, REGION_A + 64)
        sms.on_eviction(REGION_A, invalidated=False)
        response = drive(sms, 0x400, REGION_B)
        assert response.prefetches
        assert all(not request.target_l1 for request in response.prefetches)

    def test_unbounded_configuration(self):
        sms = SpatialMemoryStreaming(SMSConfig.unbounded())
        assert sms.pht.is_unbounded

    def test_replace_keeps_every_other_field(self):
        config = SMSConfig(
            region_size=1024, block_size=32, index_scheme="pc", trainer="logical-sectored",
            filter_entries=8, accumulation_entries=None, pht_entries=256, pht_associativity=4,
            prediction_registers=2, stream_into_l1=False, max_requests_per_access=3,
            trained_cache_capacity=32 * 1024, trained_cache_associativity=4,
        )
        defaults = SMSConfig()
        copy = config.replace(pht_entries=512)
        assert copy.pht_entries == 512
        # The class's own field tuple: every attribute an instance can hold.
        assert not hasattr(config, "__dict__")
        for name in SMSConfig.__slots__:
            # A field added later must be given a non-default value above,
            # or a copy that resets it to the default would go unnoticed.
            assert getattr(config, name) != getattr(defaults, name), name
            if name != "pht_entries":
                assert getattr(copy, name) == getattr(config, name), name

    def test_config_compares_by_value_and_is_unhashable(self):
        import pytest

        assert SMSConfig() == SMSConfig.paper_practical()
        assert SMSConfig(pht_entries=256) == SMSConfig().replace(pht_entries=256)
        assert SMSConfig() != SMSConfig(index_scheme="pc")
        # Mutable, so not hashable; and not a tuple of its fields.
        with pytest.raises(TypeError, match="unhashable"):
            hash(SMSConfig())
        assert SMSConfig() != (
            2048, 64, "pc+offset", "agt", 32, 64, 16384, 16, 16, True, None, 65536, 2
        )

    def test_config_repr_names_every_field(self):
        assert repr(SMSConfig()) == (
            "SMSConfig(region_size=2048, block_size=64, index_scheme='pc+offset', "
            "trainer='agt', filter_entries=32, accumulation_entries=64, pht_entries=16384, "
            "pht_associativity=16, prediction_registers=16, stream_into_l1=True, "
            "max_requests_per_access=None, trained_cache_capacity=65536, "
            "trained_cache_associativity=2)"
        )

    def test_config_value_errors(self):
        import pytest

        with pytest.raises(ValueError, match="pht_entries must be positive or None, got 0"):
            SMSConfig(pht_entries=0)
        with pytest.raises(ValueError, match="pht_associativity must be positive, got 0"):
            SMSConfig(pht_associativity=0)
        with pytest.raises(ValueError, match="prediction_registers must be positive, got -1"):
            SMSConfig(prediction_registers=-1)
        with pytest.raises(ValueError, match="pht_entries must be positive"):
            SMSConfig().replace(pht_entries=-4)
        with pytest.raises(ValueError, match="unbounded PHT"):
            SMSConfig.unbounded().storage_bits()

    def test_invalid_pht_backend_rejected(self):
        # There is one PHT store; the retired storage options are not fields.
        import pytest

        with pytest.raises(TypeError):
            SMSConfig(pht_backend="array")
        with pytest.raises(TypeError):
            SMSConfig(pht_shards=2)

    def test_ds_trainer_propagates_forced_evictions(self):
        config = SMSConfig(
            trainer="decoupled-sectored",
            trained_cache_capacity=4 * 2048,
            trained_cache_associativity=2,
        )
        sms = SpatialMemoryStreaming(config)
        stride = 2 * 2048
        drive(sms, 0x400, REGION_A)
        drive(sms, 0x404, REGION_A + 3 * 64)
        drive(sms, 0x400, REGION_A + stride)
        response = drive(sms, 0x400, REGION_A + 2 * stride)
        assert REGION_A in response.forced_evictions

    def test_finalize_trains_open_generations(self, sms):
        drive(sms, 0x400, REGION_A)
        drive(sms, 0x404, REGION_A + 64)
        sms.finalize()
        assert sms.stats.trained_patterns == 1

    def test_repr_mentions_configuration(self, sms):
        text = repr(sms)
        assert "pc+offset" in text
        assert "agt" in text
