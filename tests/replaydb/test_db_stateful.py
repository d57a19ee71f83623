"""Stateful property tests for the ReplayDB.

The column store and the SQL it replaced (``tests/oracles/
sqlite_replaydb.py``) take the same steps -- single and bulk inserts,
movements, snapshot and restore, per-file asks deeper than ever -- and
after every step every read must return the same thing: columns equal in
dtype and every bit, counts and means ``==``, records and movements
``==``, the same error for the same bad read.
"""

import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.replaydb import db as db_module
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord, MovementRecord
from tests.oracles.sqlite_replaydb import SqliteReplayDB

FIDS = range(6)
DEVICES = ("dev0", "dev1", "dev2", "nowhere")

#: one access to be: (fid, fsid, rb, duration in ms, carries extra)
ACCESS = st.tuples(
    st.integers(0, 5), st.integers(0, 2), st.integers(1, 10**9),
    st.integers(1, 5000), st.booleans(),
)


def outcome(read):
    """What a read returns, or the error it raises."""
    try:
        return "ok", read()
    except Exception as exc:  # noqa: BLE001 -- compared, not swallowed
        return "error", type(exc), str(exc)


def assert_same(got, want):
    """Equal results: dicts of columns compared by key order, dtype and
    bits; ``(spans, columns)`` pairs part by part; the rest by ``==``."""
    assert type(got) is type(want)
    if isinstance(want, dict) and want and isinstance(
        next(iter(want.values())), np.ndarray
    ):
        assert list(got) == list(want)
        for name, column in want.items():
            assert got[name].dtype == column.dtype, name
            assert np.array_equal(got[name], column), name
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for ours, theirs in zip(got, want):
            assert_same(ours, theirs)
    else:
        assert got == want


class ReplayDBMachine(RuleBasedStateMachine):
    """The column store must equal the SQL reference after every step."""

    def __init__(self):
        super().__init__()
        self.t = 1
        #: the deepest per-file ask so far.  Starts far below the shipped
        #: ``_TAIL_DEPTH``, so that files outgrow their tails within a
        #: few steps and a deeper ask has dropped rows to bring back.
        self.depth = 2
        self.db = ReplayDB()
        assert self.db._tail_depth == db_module._TAIL_DEPTH
        self.db._tail_depth = self.depth
        self.oracle = SqliteReplayDB()
        self._tmp = tempfile.TemporaryDirectory()

    def teardown(self):
        self.db.close()
        self.oracle.close()
        self._tmp.cleanup()

    def _record(self, fid, fsid, rb, dur_ms, extra):
        # Opens advance a second at a time while accesses last up to five:
        # a file's latest close is often not its newest row's.  Integer
        # millisecond arithmetic, so close is never at or before open.
        self.t += 1
        cts, ctms = divmod(self.t * 1000 + dur_ms, 1000)
        return AccessRecord(
            fid=fid, fsid=fsid, device=f"dev{fsid}", path=f"f{fid}",
            rb=rb, wb=0, ots=self.t, otms=0, cts=cts, ctms=ctms,
            extra={"rt": rb / 7.0} if extra else {},
        )

    @rule(access=ACCESS)
    def insert(self, access):
        record = self._record(*access)
        assert self.db.insert_access(record) == (
            self.oracle.insert_access(record)
        )

    @rule(
        batches=st.lists(
            st.lists(ACCESS, min_size=0, max_size=200), min_size=1, max_size=3
        ),
        only=st.sets(st.integers(0, 5), min_size=1),
    )
    def insert_batches(self, batches, only):
        """Back-to-back bulk inserts, no read between them; each batch
        spans several files and leaves out those not in ``only``."""
        for batch in batches:
            records = [
                self._record(*access) for access in batch if access[0] in only
            ]
            assert self.db.insert_accesses(iter(records)) == len(records)
            self.oracle.insert_accesses(records)

    @rule(
        moves=st.lists(
            st.tuples(st.integers(0, 5), st.booleans(), st.integers(0, 10**6)),
            max_size=4,
        )
    )
    def insert_movements(self, moves):
        records = []
        for fid, succeeded, size in moves:
            self.t += 1
            records.append(MovementRecord(
                float(self.t), fid, "dev0", "dev1", size, 0.25,
                succeeded=succeeded, trace_id=None if succeeded else "cmd:1",
            ))
        assert self.db.insert_movements(records) == (
            self.oracle.insert_movements(records)
        )

    @rule(fresh=st.booleans())
    def snapshot_and_restore(self, fresh):
        ours = Path(self._tmp.name) / "snapshot.npz"
        theirs = Path(self._tmp.name) / "snapshot.sqlite"
        self.db.snapshot_to(ours)
        self.oracle.snapshot_to(theirs)
        if fresh:
            self.db.close()
            self.db = ReplayDB.from_snapshot(ours)
            self.depth = db_module._TAIL_DEPTH
        else:
            self.db.load_snapshot(ours)
        self.oracle.load_snapshot(theirs)

    @rule(deeper=st.integers(1, 40), fid=st.integers(0, 5))
    def ask_deeper_than_ever(self, deeper, fid):
        self.depth += deeper
        assert self.db.recent_accesses(self.depth, fid=fid) == (
            self.oracle.recent_accesses(self.depth, fid=fid)
        )

    def _same(self, reader, *args, **kwargs):
        assert_same(
            outcome(lambda: getattr(self.db, reader)(*args, **kwargs)),
            outcome(lambda: getattr(self.oracle, reader)(*args, **kwargs)),
        )

    @invariant()
    def aggregates_equal(self):
        # Same calls in the same order: both sides fold the same increments.
        self._same("max_rowid")
        self._same("access_count")
        self._same("average_throughput")
        for device in DEVICES:
            self._same("access_count", device=device)
            self._same("average_throughput", device=device)
        self._same("device_throughput_ranking")
        self._same("devices")

    @invariant()
    def windows_equal(self):
        total = self.db.max_rowid()
        for extra in ((), ("rt",)):
            self._same("access_columns", limit=5, extra=extra)
            self._same("access_columns", since=max(0, total - 7), extra=extra)
            self._same("access_columns", since=1, limit=3, extra=extra)
            self._same(
                "access_columns", ids=[total, 2, total, total + 1, 0, 2],
                extra=extra,
            )
            self._same("access_columns", ids=[], extra=extra)
        self._same("recent_accesses", 3)
        for device in DEVICES:
            self._same("recent_accesses", max(total, 1), device=device)
        self._same("recent_accesses", 4, device="dev1", fid=2)

    @invariant()
    def per_file_reads_equal(self):
        db = self.db
        assert db._tail_depth == self.depth
        assert all(len(tail) <= self.depth for tail in db._file_tails.values())
        for reader in ("files", "access_count_per_file",
                       "last_access_time_per_file"):
            self._same(reader)
            assert list(getattr(db, reader)()) == list(
                getattr(self.oracle, reader)()
            )  # the same (fid-ascending) order
        for limit in sorted({1, self.depth // 2, self.depth}):  # none deeper
            for fid in FIDS:
                self._same("recent_accesses", limit, fid=fid)
            for fids in (FIDS, (4, 1, 99)):
                for extra in ((), ("rt",)):
                    self._same(
                        "recent_access_columns_per_file", limit, fids,
                        extra=extra,
                    )

    @invariant()
    def movements_equal(self):
        self._same("movements")


ReplayDBMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
TestReplayDBStateful = ReplayDBMachine.TestCase
