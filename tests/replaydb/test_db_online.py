"""ReplayDB reads for the online engine: the rows above a cursor, point
fetches by id, and the per-fid probes."""

import numpy as np
import pytest

from repro.errors import ReplayDBError
from repro.replaydb.db import _TAIL_DEPTH, ReplayDB
from repro.replaydb.records import AccessRecord
from tests.replaydb.test_db_subset import window_scan_columns


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


class TestMaxRowid:
    def test_empty_db_is_zero(self, db):
        assert db.max_rowid() == 0

    def test_tracks_newest_row_including_pending(self, db):
        db.insert_accesses(make_access(t=i + 1) for i in range(5))
        assert db.max_rowid() == 5


class TestAccessesSince:
    def test_rejects_bad_cursor_and_limit(self, db):
        with pytest.raises(ReplayDBError):
            db.access_columns(since=-1)
        with pytest.raises(ReplayDBError):
            db.access_columns(since=0, limit=0)

    def test_returns_only_rows_after_cursor(self, db):
        db.insert_accesses(make_access(t=i + 1) for i in range(10))
        cursor = db.max_rowid()
        db.insert_accesses(make_access(t=100 + i) for i in range(3))
        window = db.access_columns(since=cursor)
        assert window["ots"].tolist() == [100, 101, 102]
        assert window["id"].tolist() == [cursor + 1, cursor + 2, cursor + 3]
        assert window["id"][-1] == db.max_rowid()

    def test_limit_keeps_newest_in_chronological_order(self, db):
        db.insert_accesses(make_access(t=i + 1) for i in range(10))
        window = db.access_columns(since=0, limit=4)
        assert window["id"].tolist() == [7, 8, 9, 10]
        assert window["ots"].tolist() == [7, 8, 9, 10]

    def test_cursor_at_head_returns_nothing(self, db):
        db.insert_accesses(make_access(t=i + 1) for i in range(5))
        window = db.access_columns(since=db.max_rowid())
        assert all(len(column) == 0 for column in window.values())


class TestAccessesById:
    def test_fetches_in_ascending_order_with_dedup(self, db):
        db.insert_accesses(make_access(fid=i, t=i + 1) for i in range(8))
        assert db.access_columns(ids=[5, 2, 5, 7])["ots"].tolist() == [2, 5, 7]

    def test_unknown_ids_silently_absent(self, db):
        db.insert_accesses(make_access(t=i + 1) for i in range(3))
        assert len(db.access_columns(ids=[99])["id"]) == 0
        assert len(db.access_columns(ids=[])["id"]) == 0

    def test_aligns_with_accesses_since_ids(self, db):
        db.insert_accesses(make_access(fid=i % 3, t=i + 1) for i in range(12))
        since = db.access_columns(since=0)
        by_id = db.access_columns(ids=since["id"])
        assert since.keys() == by_id.keys()
        for name in since:
            assert np.array_equal(since[name], by_id[name])


class TestPerFidColumnarFastPath:
    def test_matches_window_scan_exactly(self, db):
        rng = np.random.default_rng(0)
        db.insert_accesses(
            make_access(
                fid=int(rng.integers(0, 6)),
                fsid=int(rng.integers(1, 4)),
                t=i + 1,
                rb=int(rng.integers(1, 10_000)),
            )
            for i in range(300)
        )
        fids = db.files()
        spans_fast, cols_fast = db.recent_access_columns_per_file(
            _TAIL_DEPTH, fids=fids
        )
        spans_ref, cols_ref = window_scan_columns(db, _TAIL_DEPTH)
        assert spans_fast == spans_ref
        assert cols_fast.keys() == cols_ref.keys()
        for name in cols_ref:
            assert np.array_equal(cols_fast[name], cols_ref[name])

    def test_fid_subset_returns_only_those_files(self, db):
        db.insert_accesses(make_access(fid=i % 4, t=i + 1) for i in range(40))
        spans, _ = db.recent_access_columns_per_file(5, fids=[1, 3])
        assert [fid for fid, _, _ in spans] == [1, 3]

    def test_empty_fid_list_returns_empty(self, db):
        db.insert_accesses([make_access(t=1)])
        spans, columns = db.recent_access_columns_per_file(5, fids=[])
        assert spans == [] and columns == {}
