"""Tests for ReplayDB lifecycle and snapshots."""

import numpy as np
import pytest

from repro.errors import ReplayDBError
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord, MovementRecord


def _access(fid=0, t=1):
    return AccessRecord(
        fid=fid, path=f"/f{fid}", ots=t, otms=0, cts=t + 1, ctms=0,
        rb=100, wb=0, device="ssd", fsid=1,
    )


class TestConstruction:
    def test_defaults_to_private_memory(self):
        first, second = ReplayDB(), ReplayDB()
        first.insert_accesses([_access()])
        assert (first.access_count(), second.access_count()) == (1, 0)


class TestClose:
    def test_operations_after_close_raise(self):
        db = ReplayDB()
        db.close()
        with pytest.raises(ReplayDBError, match="closed"):
            db.insert_accesses([_access()])

    def test_close_is_idempotent(self):
        db = ReplayDB()
        db.close()
        db.close()
        assert db.closed

    def test_context_manager_closes(self):
        with ReplayDB() as db:
            db.insert_accesses([_access()])
        assert db.closed


class TestSnapshots:
    def test_snapshot_round_trip_from_memory(self, tmp_path):
        db = ReplayDB()
        db.insert_accesses([_access(0, 1)])
        db.insert_accesses([_access(1, 2)])
        dest = db.snapshot_to(tmp_path / "snap.db")
        restored = ReplayDB.from_snapshot(dest)
        assert restored.access_count() == 2

    def test_snapshot_leaves_no_staging_file(self, tmp_path):
        db = ReplayDB()
        db.insert_accesses([_access()])
        db.snapshot_to(tmp_path / "snap.db")
        assert [p.name for p in tmp_path.iterdir()] == ["snap.db"]

    def test_load_snapshot_replaces_contents(self, tmp_path):
        source = ReplayDB()
        source.insert_accesses([_access(0, 1)])
        snap = source.snapshot_to(tmp_path / "snap.db")
        target = ReplayDB()
        target.insert_accesses([_access(5, 9)])
        target.load_snapshot(snap)
        assert target.access_count() == 1

    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(ReplayDBError, match="no snapshot"):
            ReplayDB().load_snapshot(tmp_path / "nope.db")

    def test_snapshot_round_trips_every_table(self, tmp_path):
        db = ReplayDB()
        db.insert_accesses([_access(0, 1), _access(1, 2)])
        db.insert_accesses([_access(0, 3)._replace(extra={"rt": 0.5})])
        db.insert_movements([
            MovementRecord(4.0, 0, "ssd", "hdd", 100, 0.5),
            MovementRecord(5.0, 1, "ssd", "hdd", 7, 0.25, succeeded=False),
        ])
        restored = ReplayDB.from_snapshot(db.snapshot_to(tmp_path / "s"))
        assert restored.recent_accesses(3) == db.recent_accesses(3)
        assert restored.movements() == db.movements()
        assert restored.access_count_per_file() == {0: 2, 1: 1}
        assert [p.name for p in tmp_path.iterdir()] == ["s"]

    @pytest.mark.parametrize("damage", ["truncated", "foreign", "npy"])
    def test_damaged_snapshot_raises(self, tmp_path, damage):
        db = ReplayDB()
        db.insert_accesses([_access()])
        snap = db.snapshot_to(tmp_path / "snap.npz")
        if damage == "truncated":
            snap.write_bytes(snap.read_bytes()[:200])
        elif damage == "foreign":
            snap.write_text("SQLite format 3\0 not a snapshot")
        else:
            with open(snap, "wb") as handle:
                np.save(handle, np.arange(3))
        with pytest.raises(ReplayDBError, match="restoring snapshot"):
            ReplayDB.from_snapshot(snap)
        # A failed load leaves the database as it was.
        db.insert_accesses([_access(1, 5)])
        with pytest.raises(ReplayDBError):
            db.load_snapshot(snap)
        assert db.access_count() == 2 and db.files() == [0, 1]

    def test_snapshot_of_closed_db_raises(self, tmp_path):
        db = ReplayDB()
        db.close()
        with pytest.raises(ReplayDBError, match="closed"):
            db.snapshot_to(tmp_path / "snap.db")
