"""Tests for the ReplayDB."""

import pytest

from repro.errors import ReplayDBError
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord, MovementRecord


def make_access(fid=1, fsid=0, device="file0", t=100, rb=1000, **overrides):
    base = dict(
        fid=fid, fsid=fsid, device=device, path=f"data/f{fid}.root",
        rb=rb, wb=0, ots=t, otms=0, cts=t + 1, ctms=0,
    )
    base.update(overrides)
    return AccessRecord(**base)


@pytest.fixture
def db():
    with ReplayDB() as db:
        yield db


class TestInsertAndQuery:
    def test_insert_returns_increasing_ids(self, db):
        first = db.insert_access(make_access(t=1))
        second = db.insert_access(make_access(t=2))
        assert second > first

    def test_round_trip_preserves_fields(self, db):
        record = make_access(fid=7, fsid=3, device="pic", t=50,
                             extra={"rt": 1.5})
        db.insert_access(record)
        got = db.recent_accesses(1)[0]
        assert got == record

    def test_bulk_insert(self, db):
        n = db.insert_accesses(make_access(t=i + 1) for i in range(10))
        assert n == 10
        assert db.access_count() == 10

    def test_recent_returns_chronological_order(self, db):
        for t in (1, 2, 3, 4):
            db.insert_access(make_access(t=t))
        got = db.recent_accesses(3)
        assert [r.ots for r in got] == [2, 3, 4]

    def test_recent_filters_by_device(self, db):
        db.insert_access(make_access(device="var", t=1))
        db.insert_access(make_access(device="file0", t=2))
        got = db.recent_accesses(10, device="var")
        assert len(got) == 1 and got[0].device == "var"

    def test_recent_filters_by_fid(self, db):
        db.insert_access(make_access(fid=1, t=1))
        db.insert_access(make_access(fid=2, t=2))
        got = db.recent_accesses(10, fid=2)
        assert len(got) == 1 and got[0].fid == 2

    def test_recent_limit_zero_rejected(self, db):
        with pytest.raises(ReplayDBError):
            db.recent_accesses(0)

    def test_devices_and_files(self, db):
        db.insert_access(make_access(fid=1, device="var", t=1))
        db.insert_access(make_access(fid=2, device="file0", t=2))
        assert db.devices() == ["file0", "var"]
        assert db.files() == [1, 2]


class TestPerFileWindowQueries:
    """The decision path's per-file telemetry read."""

    def _populate(self, db, *, files=5, rows=40):
        for i in range(rows):
            db.insert_access(
                make_access(
                    fid=i % files, fsid=i % 3, device=f"dev{i % 3}",
                    t=i + 1, rb=1000 + i,
                )
            )

    def test_matches_per_file_loop(self, db):
        self._populate(db)
        spans, columns = db.recent_access_columns_per_file(4, db.files())
        assert [fid for fid, _, _ in spans] == db.files()
        for fid, start, stop in spans:
            assert columns["rb"][start:stop].tolist() == [
                float(r.rb) for r in db.recent_accesses(4, fid=fid)
            ]

    def test_limit_and_chronological_order(self, db):
        self._populate(db, files=2, rows=10)
        spans, columns = db.recent_access_columns_per_file(3, [0, 1])
        for _, start, stop in spans:
            ots = columns["ots"][start:stop].tolist()
            assert len(ots) == 3 and ots == sorted(ots)

    def test_fids_filter(self, db):
        self._populate(db)
        spans, _ = db.recent_access_columns_per_file(4, fids=[1, 3])
        assert [fid for fid, _, _ in spans] == [1, 3]
        assert db.recent_access_columns_per_file(4, fids=[]) == ([], {})
        assert db.recent_access_columns_per_file(4, fids=[999]) == ([], {})

    def test_limit_zero_rejected(self, db):
        with pytest.raises(ReplayDBError):
            db.recent_access_columns_per_file(0, [1])

    def test_empty_db(self, db):
        assert db.recent_access_columns_per_file(4, [0, 1]) == ([], {})

    def test_columns_match_record_query(self, db):
        from repro.replaydb.db import PROBE_FIELDS

        self._populate(db)
        spans, columns = db.recent_access_columns_per_file(4, db.files())
        assert set(columns) == set(PROBE_FIELDS)
        for fid, start, stop in spans:
            records = db.recent_accesses(4, fid=fid)
            assert stop - start == len(records)
            for name in PROBE_FIELDS:
                expected = [float(getattr(r, name)) for r in records]
                assert list(columns[name][start:stop]) == expected


class TestAggregates:
    def test_access_count_per_file(self, db):
        for fid in (1, 1, 2):
            db.insert_access(make_access(fid=fid, t=fid))
        assert db.access_count_per_file() == {1: 2, 2: 1}

    def test_last_access_time_per_file(self, db):
        db.insert_access(make_access(fid=1, t=10))
        db.insert_access(make_access(fid=1, t=20))
        times = db.last_access_time_per_file()
        assert times[1] == pytest.approx(21.0)  # cts = t + 1

    def test_average_throughput(self, db):
        db.insert_access(make_access(rb=1000, t=1))  # 1000 B/s
        db.insert_access(make_access(rb=3000, t=2))  # 3000 B/s
        assert db.average_throughput() == pytest.approx(2000.0)

    def test_average_throughput_per_device(self, db):
        db.insert_access(make_access(device="fast", rb=5000, t=1))
        db.insert_access(make_access(device="slow", rb=100, t=2))
        assert db.average_throughput(device="fast") == pytest.approx(5000.0)

    def test_average_throughput_empty_raises(self, db):
        with pytest.raises(ReplayDBError, match="no accesses"):
            db.average_throughput()
        with pytest.raises(ReplayDBError):
            db.average_throughput(device="ghost")

    def test_device_ranking_fastest_first(self, db):
        db.insert_access(make_access(device="slow", rb=100, t=1))
        db.insert_access(make_access(device="fast", rb=9000, t=2))
        db.insert_access(make_access(device="mid", rb=1000, t=3))
        ranking = [name for name, _ in db.device_throughput_ranking()]
        assert ranking == ["fast", "mid", "slow"]


class TestMovements:
    def test_round_trip(self, db):
        move = MovementRecord(5.0, 1, "var", "file0", 1024, 0.25)
        db.insert_movements([move])
        assert db.movements() == [move]

    def test_empty_movements(self, db):
        assert db.movements() == []

    def test_failed_move_round_trips(self, db):
        failed = MovementRecord(5.0, 1, "var", "file0", 512, 0.25,
                                succeeded=False)
        db.insert_movements([failed])
        (got,) = db.movements()
        assert got == failed and not got.succeeded
