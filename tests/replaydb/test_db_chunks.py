"""Reads across chunk boundaries, and the per-file fold.

A window that spans two or more chunks must read exactly what the same
window reads when it sits in one chunk: the columnar reads
(``access_columns(limit=)`` / ``(since=)``) and the device totals folded
over the rows since the last aggregate read.  The per-file state folded
with numpy, a run of one file's rows at a time, must equal a row-by-row
fold over any fid runs and any batching and chunking of the rows.
"""

from collections import deque
from contextlib import contextmanager

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.replaydb import db as db_module
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord

DEVICES = ("var", "pic", "file0")


@contextmanager
def chunk_rows(rows: int):
    shipped = db_module._CHUNK_ROWS
    db_module._CHUNK_ROWS = rows
    try:
        yield
    finally:
        db_module._CHUNK_ROWS = shipped


def access(i: int) -> AccessRecord:
    return AccessRecord(
        fid=i % 7, fsid=i % 3, device=DEVICES[i % 3], path=f"/d/{i % 7}",
        rb=1000 + 37 * i, wb=11 * i, ots=i, otms=(7 * i) % 1000,
        cts=i + 1 + i % 3, ctms=(13 * i) % 1000,
    )


#: (insert this many rows, then read) steps; with 8-row chunks the reads
#: fold totals over 5 rows in one chunk, then over 2, 3 and 5 chunks
STEPS = (5, 6, 19, 34)
#: windows over the 64 rows: ``limit=`` / ``since=``, spanning 1..8 chunks
WINDOWS = (
    dict(limit=3), dict(limit=10), dict(limit=20), dict(limit=64),
    dict(since=13), dict(since=30), dict(since=58), dict(since=13, limit=40),
)


def reads() -> list:
    """Every read above, in one database grown by ``STEPS``."""
    db, done, got = ReplayDB(), 0, []
    for n in STEPS:
        db.insert_accesses(access(done + i) for i in range(n))
        done += n
        got.append([
            (db.access_count(device=d), db.average_throughput(device=d))
            for d in DEVICES
        ])
    for window in WINDOWS:
        got.append({
            name: column.tolist()
            for name, column in db.access_columns(**window).items()
        })
    return got


def test_windows_across_chunks_read_as_in_one_chunk():
    assert sum(STEPS) <= db_module._CHUNK_ROWS
    whole = reads()
    with chunk_rows(8):
        assert reads() == whole


def row_by_row(records: list[AccessRecord], depth: int) -> tuple:
    counts, last, tails = {}, {}, {}
    for position, record in enumerate(records):
        close = record.cts + record.ctms / 1000.0
        counts[record.fid] = counts.get(record.fid, 0) + 1
        last[record.fid] = max(last.get(record.fid, close), close)
        tails.setdefault(record.fid, deque(maxlen=depth)).append(position)
    return counts, last, {fid: list(tail) for fid, tail in tails.items()}


#: one access to be: (fid, cts, ctms); few fids, so runs form
ROW = st.tuples(
    st.integers(0, 3), st.integers(1, 2**40), st.integers(0, 999)
)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(ROW, min_size=1, max_size=80),
    cuts=st.lists(st.integers(0, 80), max_size=6),
    chunk=st.sampled_from((1, 3, 8, 4096)),
)
def test_the_numpy_fold_equals_a_row_by_row_fold(rows, cuts, chunk):
    records = [
        AccessRecord(
            fid=fid, fsid=0, device="var", path=f"/d/{fid}", rb=1, wb=0,
            ots=0, otms=0, cts=cts, ctms=ctms,
        )
        for fid, cts, ctms in rows
    ]
    edges = sorted({0, len(records), *(c for c in cuts if c < len(records))})
    with chunk_rows(chunk):
        db = ReplayDB()
        for lo, hi in zip(edges, edges[1:]):
            assert db.insert_accesses(records[lo:hi]) == hi - lo
    counts, last, tails = row_by_row(records, db_module._TAIL_DEPTH)
    assert db._file_counts == counts
    assert db._file_last_close == last
    assert {fid: list(tail) for fid, tail in db._file_tails.items()} == tails
    assert all(type(value) is float for value in db._file_last_close.values())
