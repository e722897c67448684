"""Property-based tests for the SMS predictor's invariants.

Random (pc, offset) access streams within a handful of regions are driven
through SMS directly, checking structural invariants that must hold for any
input: stream requests never target the trigger block of the generation that
produced them, always lie inside the predicted region, never exceed the
region's block count, and the PHT only ever holds patterns of the configured
width.
"""

from hypothesis import given, settings, strategies as st

from repro.coherence.multiprocessor import AccessOutcomeRecord
from repro.core import SMSConfig, SpatialMemoryStreaming
from repro.memory.cache import AccessOutcome, AccessResult
from repro.memory.hierarchy import MemoryLevel
from repro.trace.record import MemoryAccess

_REGION_SIZE = 1024
_BLOCKS = _REGION_SIZE // 64
_BASES = [0x10000, 0x20000, 0x30000, 0x40000]

# A step is (region index, block offset, pc index).
_STEP = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=_BLOCKS - 1),
    st.integers(min_value=0, max_value=3),
)


def _drive(sms, pc, address):
    record = MemoryAccess(pc=pc, address=address)
    result = AccessResult(outcome=AccessOutcome.MISS, block_addr=address & ~63)
    outcome = AccessOutcomeRecord(record=record, level=MemoryLevel.MEMORY, l1_result=result)
    return sms.on_access(record, outcome)


def _config():
    return SMSConfig(region_size=_REGION_SIZE, block_size=64, pht_entries=256, pht_associativity=4)


class TestStreamRequestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(_STEP, min_size=1, max_size=150), evict_every=st.integers(2, 9))
    def test_requests_stay_inside_their_region(self, steps, evict_every):
        sms = SpatialMemoryStreaming(_config())
        for index, (region_index, offset, pc_index) in enumerate(steps):
            address = _BASES[region_index] + offset * 64
            response = _drive(sms, 0x400 + 4 * pc_index, address)
            for request in response.prefetches:
                base = request.address & ~(_REGION_SIZE - 1)
                assert base in _BASES
                assert 0 <= (request.address - base) // 64 < _BLOCKS
            if index % evict_every == 0:
                sms.on_eviction(address, invalidated=False)

    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(_STEP, min_size=1, max_size=150))
    def test_per_access_request_count_bounded(self, steps):
        sms = SpatialMemoryStreaming(_config())
        for region_index, offset, pc_index in steps:
            address = _BASES[region_index] + offset * 64
            response = _drive(sms, 0x400 + 4 * pc_index, address)
            # At most one region (minus its trigger) can start streaming per access,
            # and leftovers from previous allocations are bounded by the register file.
            assert len(response.prefetches) <= sms.config.prediction_registers * _BLOCKS

    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(_STEP, min_size=1, max_size=120))
    def test_pht_patterns_have_configured_width(self, steps):
        sms = SpatialMemoryStreaming(_config())
        for index, (region_index, offset, pc_index) in enumerate(steps):
            address = _BASES[region_index] + offset * 64
            _drive(sms, 0x400 + 4 * pc_index, address)
            if index % 5 == 0:
                sms.on_eviction(address, invalidated=True)
        for table in sms.pht._sets:
            assert all(bits >> _BLOCKS == 0 for bits in table.values())

    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(_STEP, min_size=2, max_size=150))
    def test_statistics_consistency(self, steps):
        sms = SpatialMemoryStreaming(_config())
        for region_index, offset, pc_index in steps:
            address = _BASES[region_index] + offset * 64
            _drive(sms, 0x400 + 4 * pc_index, address)
        assert sms.pht.hits <= sms.pht.lookups
        assert len(sms.registers._registers) <= sms.registers.num_registers
