"""Tests for repro.coherence.protocol."""

import pytest

from repro.coherence.protocol import CoherenceActions, CoherenceState, DirectoryEntry


class TestDirectoryEntryInvariants:
    def test_invalid_entry_valid(self):
        DirectoryEntry(block_addr=0x1000).validate()

    def test_invalid_with_sharers_rejected(self):
        entry = DirectoryEntry(block_addr=0, sharers={1})
        with pytest.raises(AssertionError):
            entry.validate()

    def test_shared_requires_sharers(self):
        entry = DirectoryEntry(block_addr=0, state=CoherenceState.SHARED)
        with pytest.raises(AssertionError):
            entry.validate()

    def test_shared_with_owner_rejected(self):
        entry = DirectoryEntry(block_addr=0, state=CoherenceState.SHARED, sharers={0}, owner=0)
        with pytest.raises(AssertionError):
            entry.validate()

    def test_modified_requires_single_owner_sharer(self):
        entry = DirectoryEntry(block_addr=0, state=CoherenceState.MODIFIED, sharers={1}, owner=1)
        entry.validate()

    def test_modified_with_extra_sharers_rejected(self):
        entry = DirectoryEntry(
            block_addr=0, state=CoherenceState.MODIFIED, sharers={1, 2}, owner=1
        )
        with pytest.raises(AssertionError):
            entry.validate()


class TestCoherenceActions:
    def test_empty(self):
        actions = CoherenceActions()
        assert not actions.invalidate_cpus
