"""The per-file reads must match a whole-table window query.

The decision path reads telemetry through explicit file-id subsets,
answered from per-file state the database folds where rows land.  These
tests hold ``recent_access_columns_per_file`` against a ``ROW_NUMBER()``
window scan of the same rows in SQLite (the reference): same rows, same
ordering, for any subset -- including subsets dominated by files that
have no telemetry at all, which is the common case early in a run over a
large population.
"""

import numpy as np
import pytest

from repro.errors import ReplayDBError
from repro.replaydb.db import _TAIL_DEPTH, PROBE_FIELDS, ReplayDB
from repro.replaydb.records import AccessRecord
from tests.oracles.sqlite_replaydb import as_sqlite


def make_access(fid=1, fsid=0, device="file0", t=100, rb=1000, **overrides):
    base = dict(
        fid=fid, fsid=fsid, device=device, path=f"data/f{fid}.root",
        rb=rb, wb=0, ots=t, otms=0, cts=t + 1, ctms=0,
    )
    base.update(overrides)
    return AccessRecord(**base)


def window_scan_columns(db, limit):
    """``(spans, columns)`` of every file, from one whole-table scan."""
    fields = ", ".join(PROBE_FIELDS)
    rows = as_sqlite(db)._conn.execute(
        f"SELECT {fields} FROM ("
        f"  SELECT id, {fields}, ROW_NUMBER() OVER "
        "    (PARTITION BY fid ORDER BY id DESC) AS rn"
        "  FROM accesses"
        ") WHERE rn <= ? ORDER BY fid ASC, id ASC",
        (limit,),
    ).fetchall()
    data = np.array(rows, dtype=np.float64)
    columns = {name: data[:, i] for i, name in enumerate(PROBE_FIELDS)}
    spans, start = [], 0
    for stop in range(1, len(rows) + 1):
        if stop == len(rows) or rows[stop][0] != rows[start][0]:
            spans.append((int(rows[start][0]), start, stop))
            start = stop
    return spans, columns


def filtered(spans, columns, wanted):
    """The window scan's result narrowed to the ``wanted`` fids."""
    keep = [span for span in spans if span[0] in wanted]
    rows = [i for _, start, stop in keep for i in range(start, stop)]
    out_spans, pos = [], 0
    for fid, start, stop in keep:
        out_spans.append((fid, pos, pos + stop - start))
        pos += stop - start
    if not rows:
        return [], {}
    return out_spans, {name: col[rows] for name, col in columns.items()}


def assert_same(got, expected):
    assert got[0] == expected[0]
    assert got[1].keys() == expected[1].keys()
    for name in expected[1]:
        np.testing.assert_array_equal(got[1][name], expected[1][name])


@pytest.fixture
def db():
    with ReplayDB() as db:
        # 6 files spread over 3 devices, interleaved in time, uneven row
        # counts so per-file LIMIT truncation actually bites.
        t = 0
        for rounds, fid in ((7, 0), (1, 1), (4, 2), (9, 5), (2, 8)):
            for k in range(rounds):
                t += 1
                db.insert_accesses([make_access(
                    fid=fid, device=f"dev{(fid + k) % 3}", t=t,
                    rb=100 * fid + k,
                )])
        yield db


class TestRecentAccessesPerFileSubset:
    @pytest.mark.parametrize("limit", [1, 3, _TAIL_DEPTH])
    def test_subset_equals_filtered_full_result(self, db, limit):
        full = window_scan_columns(db, limit)
        for wanted in ([0], [1, 2], [0, 2, 5, 8], [3, 4], list(range(10))):
            assert_same(
                db.recent_access_columns_per_file(limit, fids=wanted),
                filtered(*full, wanted),
            )

    def test_empty_and_absent_subsets(self, db):
        assert db.recent_access_columns_per_file(5, fids=[]) == ([], {})
        assert db.recent_access_columns_per_file(5, fids=[3, 4, 99]) == (
            [], {}
        )

    def test_duplicate_fids_collapse(self, db):
        assert_same(
            db.recent_access_columns_per_file(2, fids=[5, 5, 5]),
            db.recent_access_columns_per_file(2, fids=[5]),
        )

    def test_limit_must_be_positive(self, db):
        with pytest.raises(ReplayDBError):
            db.recent_access_columns_per_file(0, fids=[1])

    def test_deeper_than_the_tails_raises(self, db):
        with pytest.raises(ReplayDBError, match="newest 8 rows, asked for 9"):
            db.recent_access_columns_per_file(_TAIL_DEPTH + 1, fids=[1])


class TestColumnsSubset:
    @pytest.mark.parametrize("limit", [1, 3, _TAIL_DEPTH])
    def test_all_fids_subset_matches_window_query(self, db, limit):
        assert_same(
            db.recent_access_columns_per_file(limit, fids=range(10)),
            window_scan_columns(db, limit),
        )

    def test_narrow_subset_matches_filtered_rows(self, db):
        spans_sub, _ = got = db.recent_access_columns_per_file(3, fids=[0, 5])
        assert [fid for fid, _, _ in spans_sub] == [0, 5]
        assert_same(got, filtered(*window_scan_columns(db, 3), [0, 5]))

    def test_empty_subset(self, db):
        assert db.recent_access_columns_per_file(3, fids=[]) == ([], {})
        assert db.recent_access_columns_per_file(3, fids=[99]) == ([], {})


class TestPrefilter:
    def test_large_sparse_request_matches_small_path(self, db):
        # A request is narrowed to the files that have telemetry before
        # any row is gathered, however large the population asked about.
        assert_same(
            db.recent_access_columns_per_file(4, fids=range(200)),
            db.recent_access_columns_per_file(4, fids=[0, 1, 2, 5, 8]),
        )
