"""Tests for repro.coherence.directory."""

import pytest

from repro.coherence.directory import Directory
from repro.coherence.protocol import CoherenceState


class TestDirectoryReads:
    def test_first_read_creates_shared_entry(self):
        directory = Directory()
        assert directory.read(0, 0x1000) is None  # a read requests no action
        entry = directory.lookup(0x1000)
        assert entry.state is CoherenceState.SHARED
        assert entry.sharers == {0}

    def test_multiple_readers_share(self):
        directory = Directory()
        directory.read(0, 0x1000)
        directory.read(1, 0x1000)
        assert directory.sharers(0x1000) == {0, 1}
        assert directory.lookup(0x1000).state is CoherenceState.SHARED

    def test_read_of_remote_modified_downgrades(self):
        directory = Directory()
        directory.write(0, 0x1000)
        directory.read(1, 0x1000)
        entry = directory.lookup(0x1000)
        assert entry.state is CoherenceState.SHARED
        assert entry.sharers == {0, 1}

    def test_owner_rereads_own_modified_block(self):
        directory = Directory()
        directory.write(0, 0x1000)
        directory.read(0, 0x1000)
        entry = directory.lookup(0x1000)
        assert entry.state is CoherenceState.MODIFIED
        assert entry.owner == 0


class TestDirectoryWrites:
    def test_write_invalidates_other_sharers(self):
        directory = Directory()
        directory.read(0, 0x1000)
        directory.read(1, 0x1000)
        actions = directory.write(2, 0x1000)
        assert actions.invalidate_cpus == {0, 1}
        entry = directory.lookup(0x1000)
        assert entry.state is CoherenceState.MODIFIED
        assert entry.owner == 2
        assert entry.sharers == {2}

    def test_write_by_sole_sharer_sends_no_invalidations(self):
        directory = Directory()
        directory.read(0, 0x1000)
        actions = directory.write(0, 0x1000)
        assert not actions.invalidate_cpus

    def test_write_to_remote_modified(self):
        directory = Directory()
        directory.write(0, 0x1000)
        actions = directory.write(1, 0x1000)
        assert actions.invalidate_cpus == {0}
        assert directory.lookup(0x1000).owner == 1

    def test_invalidations_counted(self):
        directory = Directory()
        directory.read(0, 0x1000)
        directory.read(1, 0x1000)
        assert directory.write(2, 0x1000).invalidate_cpus == {0, 1}
        assert directory.sharers(0x1000) == {2}


class TestDirectoryEvictions:
    def test_evict_removes_sharer(self):
        directory = Directory()
        directory.read(0, 0x1000)
        directory.read(1, 0x1000)
        directory.evict(0, 0x1000)
        assert directory.sharers(0x1000) == {1}

    def test_evict_last_sharer_invalidates_entry(self):
        directory = Directory()
        directory.read(0, 0x1000)
        directory.evict(0, 0x1000)
        assert directory.lookup(0x1000).state is CoherenceState.INVALID

    def test_evict_owner_of_modified(self):
        directory = Directory()
        directory.write(0, 0x1000)
        directory.evict(0, 0x1000)
        assert directory.lookup(0x1000).state is CoherenceState.INVALID

    def test_evict_untracked_block_is_noop(self):
        directory = Directory()
        directory.evict(0, 0x9999)


class TestGranularity:
    def test_coherence_unit_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            Directory(coherence_unit=100)

    def test_same_unit_shares_entry(self):
        directory = Directory(coherence_unit=128)
        directory.read(0, 0x1000)
        directory.read(1, 0x1040)  # same 128B unit
        assert len(directory._entries) == 1
        assert directory.sharers(0x1000) == {0, 1}
