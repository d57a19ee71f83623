"""Tests for the LRU / MRU / LFU baselines."""

import pytest

from repro.errors import PolicyError
from repro.policies.lfu import LFUPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.mru import MRUPolicy
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord
from repro.workloads.files import FileSpec

DEVICES = ["fast", "mid", "slow"]
FILES = [FileSpec(fid=i, path=f"f{i}", size_bytes=1000) for i in range(6)]


def access(fid, device, rb, t):
    return AccessRecord(
        fid=fid, fsid=0, device=device, path=f"f{fid}", rb=rb, wb=0,
        ots=t, otms=0, cts=t + 1, ctms=0,
    )


@pytest.fixture
def db():
    """Telemetry where device speeds are fast > mid > slow, and files have
    distinct recency (higher fid = more recent) and frequency (fid 0 most
    accessed)."""
    db = ReplayDB()
    db.insert_accesses([access(0, "fast", 9000, 1)])
    db.insert_accesses([access(0, "mid", 500, 2)])
    db.insert_accesses([access(0, "slow", 10, 3)])
    db.insert_accesses([access(0, "fast", 9000, 4)])
    for t, fid in enumerate([1, 2, 3, 4, 5], start=10):
        db.insert_accesses([access(fid, "mid", 500, t)])
    return db


class TestLRU:
    def test_most_recent_on_fastest(self, db):
        layout = LRUPolicy().update_layout(db, FILES, DEVICES)
        # fid 5 is the most recently accessed -> fastest device.
        assert layout[5] == "fast"
        # fid 1 is the least recently accessed of files 1-5 -> slow group.
        assert layout[1] == "slow"

    def test_all_files_placed(self, db):
        layout = LRUPolicy().update_layout(db, FILES, DEVICES)
        assert set(layout) == {f.fid for f in FILES}

    def test_initial_layout_spreads(self):
        layout = LRUPolicy().initial_layout(FILES, DEVICES)
        assert set(layout.values()) == set(DEVICES)

    def test_dynamic_flag(self):
        assert LRUPolicy().dynamic

    def test_empty_inputs_rejected(self, db):
        with pytest.raises(PolicyError):
            LRUPolicy().update_layout(db, [], DEVICES)
        with pytest.raises(PolicyError):
            LRUPolicy().initial_layout(FILES, [])


class TestMRU:
    def test_most_recent_on_slowest(self, db):
        layout = MRUPolicy().update_layout(db, FILES, DEVICES)
        assert layout[5] == "slow"

    def test_opposite_of_lru(self, db):
        lru = LRUPolicy().update_layout(db, FILES, DEVICES)
        mru = MRUPolicy().update_layout(db, FILES, DEVICES)
        # The recency ordering is exactly reversed across the rank list.
        assert lru[5] == "fast" and mru[5] == "slow"
        assert lru[1] == "slow" and mru[1] == "fast"


class TestLFU:
    def test_most_frequent_on_fastest(self, db):
        layout = LFUPolicy().update_layout(db, FILES, DEVICES)
        # fid 0 has 4 accesses, every other file has 1.
        assert layout[0] == "fast"

    def test_unaccessed_files_toward_slowest(self, db):
        # fid 6-7 never accessed: with 8 files over 3 devices (groups of
        # 2), never-used files sort last and land on the slow end.
        files = FILES + [FileSpec(6, "f6", 10), FileSpec(7, "f7", 10)]
        layout = LFUPolicy().update_layout(db, files, DEVICES)
        assert layout[6] == "slow" and layout[7] == "slow"
