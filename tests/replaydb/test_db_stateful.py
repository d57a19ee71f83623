"""Stateful property tests for the ReplayDB.

Two references: a Python list of every record inserted (counts, the
chronological tail, the device filter), and -- for every per-file reader,
which the database answers from state it folds where rows land -- the SQL
statements of ``tests/oracles/per_file_sql.py`` over the table itself.
"""

import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.replaydb import db as db_module
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord
from tests.oracles import per_file_sql

FIDS = range(6)

#: one access to be: (fid, fsid, rb, duration in ms)
ACCESS = st.tuples(
    st.integers(0, 5), st.integers(0, 2), st.integers(1, 10**9),
    st.integers(1, 5000),
)


class ReplayDBMachine(RuleBasedStateMachine):
    """The DB must agree with both references after every step."""

    def __init__(self):
        super().__init__()
        self.model: list[AccessRecord] = []
        self.t = 1
        #: the deepest per-file ask so far.  Starts far below the shipped
        #: ``_TAIL_DEPTH``, so that files outgrow their tails within a
        #: few steps and a deeper ask has dropped rows to bring back.
        self.depth = 2
        # Smaller than the largest batch: some bulk inserts land at once,
        # most wait in the write-behind buffer for the next read.
        self._adopt(ReplayDB(max_pending_accesses=150))
        self._tmp = tempfile.TemporaryDirectory()

    def _adopt(self, db):
        assert db._tail_depth == db_module._TAIL_DEPTH
        db._tail_depth = self.depth
        self.db = db

    def teardown(self):
        self.db.close()
        self._tmp.cleanup()

    def _record(self, fid, fsid, rb, dur_ms):
        # Opens advance a second at a time while accesses last up to five:
        # a file's latest close is often not its newest row's.  Integer
        # millisecond arithmetic, so close is never at or before open.
        self.t += 1
        cts, ctms = divmod(self.t * 1000 + dur_ms, 1000)
        return AccessRecord(
            fid=fid, fsid=fsid, device=f"dev{fsid}", path=f"f{fid}",
            rb=rb, wb=0, ots=self.t, otms=0, cts=cts, ctms=ctms,
            extra={"rt": rb / 7.0},
        )

    @rule(access=ACCESS)
    def insert(self, access):
        record = self._record(*access)
        self.db.insert_access(record)
        self.model.append(record)

    @rule(
        batches=st.lists(
            st.lists(ACCESS, min_size=1, max_size=200), min_size=1, max_size=3
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
            assert self.db.insert_accesses(records) == len(records)
            self.model.extend(records)

    @rule()
    def read_forces_the_flush(self):
        assert self.db.max_rowid() == len(self.model)
        assert not self.db._pending_accesses

    @rule()
    def snapshot_and_restore(self):
        path = Path(self._tmp.name) / "snapshot.sqlite"
        self.db.snapshot_to(path)
        self.db.close()
        self._adopt(ReplayDB.from_snapshot(path))

    @rule(deeper=st.integers(1, 40), fid=st.integers(0, 5))
    def ask_deeper_than_ever(self, deeper, fid):
        self.depth += deeper
        assert self.db.recent_accesses(self.depth, fid=fid) == (
            per_file_sql.recent_accesses(self.db, self.depth, fid)
        )

    @invariant()
    def count_matches(self):
        assert self.db.access_count() == len(self.model)

    @invariant()
    def recent_matches_tail(self):
        if not self.model:
            return
        got = self.db.recent_accesses(3)
        assert got == self.model[-3:]

    @invariant()
    def per_file_counts_match(self):
        counts = {}
        for record in self.model:
            counts[record.fid] = counts.get(record.fid, 0) + 1
        assert self.db.access_count_per_file() == counts

    @invariant()
    def device_filter_matches(self):
        if not self.model:
            return
        device = self.model[-1].device
        expected = [r for r in self.model if r.device == device]
        got = self.db.recent_accesses(len(self.model), device=device)
        assert got == expected

    @invariant()
    def per_file_readers_equal_the_sql_reference(self):
        db = self.db
        assert db._tail_depth == self.depth
        assert all(
            len(tail) <= self.depth for tail in db._file_tails.values()
        )
        for reader in ("files", "access_count_per_file",
                       "last_access_time_per_file"):
            got, want = getattr(db, reader)(), getattr(per_file_sql, reader)(db)
            assert got == want
            assert list(got) == list(want)  # the same (fid-ascending) order
        for limit in sorted({1, self.depth // 2, self.depth}):  # none deeper
            for fid in FIDS:
                assert db.recent_accesses(limit, fid=fid) == (
                    per_file_sql.recent_accesses(db, limit, fid)
                )
            for fids in (FIDS, (4, 1, 99)):
                for extra in ((), ("rt",)):
                    per_file_sql.assert_same_columns(
                        db.recent_access_columns_per_file(
                            limit, fids, extra=extra
                        ),
                        per_file_sql.recent_access_columns_per_file(
                            db, limit, fids, extra=extra
                        ),
                    )


ReplayDBMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
TestReplayDBStateful = ReplayDBMachine.TestCase
