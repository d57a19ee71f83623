"""The per-device aggregates against SQLite's, bit for bit.

``ReplayDB`` answers ``access_count``, ``average_throughput`` and
``device_throughput_ranking`` from running totals advanced over a row
cursor; the reference is the SQL it replaced (``tests/oracles/
sqlite_replaydb.py``: ``SUM`` over the rows above a rowid cursor), fed
the same writes, reads and snapshot restores.
"""

import itertools
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import ReplayDBError
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord
from tests.oracles.sqlite_replaydb import SqliteReplayDB

DEVICES = ("dev0", "dev1", "dev2", "dev3")

sizes = st.integers(1, 10**12)
devices = st.sampled_from(DEVICES)


def make_record(device: str, rb: int, t: int) -> AccessRecord:
    """A one-second access, so its throughput is ``rb`` bytes/s."""
    return AccessRecord(
        fid=rb % 7, fsid=DEVICES.index(device), device=device, path="f",
        rb=rb, wb=0, ots=t, otms=0, cts=t + 1, ctms=0,
    )


class AggregateMachine(RuleBasedStateMachine):
    """Any interleaving of writes, reads, snapshots and restores."""

    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.db, self.oracle = ReplayDB(), SqliteReplayDB()
        self.times = itertools.count(1, 2)
        self.snapshots = None

    def _record(self, device: str, rb: int) -> AccessRecord:
        return make_record(device, rb, next(self.times))

    def teardown(self):
        self.db.close()
        self.oracle.close()
        self.dir.cleanup()

    # -- writes ----------------------------------------------------------
    @rule(device=devices, rb=sizes)
    def insert_one(self, device, rb):
        record = self._record(device, rb)
        self.db.insert_accesses([record])
        self.oracle.insert_access(record)

    @rule(batch=st.lists(st.tuples(devices, sizes), min_size=1, max_size=12))
    def insert_bulk(self, batch):
        records = [self._record(device, rb) for device, rb in batch]
        self.db.insert_accesses(records)
        self.oracle.insert_accesses(records)

    # -- reads that move the cursor ---------------------------------------
    @rule(device=devices)
    def read_count(self, device):
        assert self.db.access_count(device=device) == (
            self.oracle.access_count(device=device)
        )

    @rule()
    def read_ranking(self):
        assert self.db.device_throughput_ranking() == (
            self.oracle.device_throughput_ranking()
        )

    # -- snapshots carry the totals and the cursor ----------------------
    @rule()
    def take_snapshot(self):
        self.snapshots = (
            self.db.snapshot_to(f"{self.dir.name}/snap.npz"),
            self.oracle.snapshot_to(f"{self.dir.name}/snap.sqlite"),
        )

    @precondition(lambda self: self.snapshots is not None)
    @rule(fresh=st.booleans())
    def restore_snapshot(self, fresh):
        # Rows written (and counted) since the snapshot are gone after it.
        ours, theirs = self.snapshots
        if fresh:
            self.db.close()
            self.db = ReplayDB.from_snapshot(ours)
        else:
            self.db.load_snapshot(ours)
        self.oracle.load_snapshot(theirs)

    # -- the aggregates equal SQLite's ------------------------------------
    @invariant()
    def aggregates_equal_sqlite(self):
        db, oracle = self.db, self.oracle
        for device in DEVICES:
            count = oracle.access_count(device=device)
            assert db.access_count(device=device) == count
            if count:
                assert db.average_throughput(device=device) == (
                    oracle.average_throughput(device=device)
                )
            else:
                with pytest.raises(ReplayDBError, match="no accesses"):
                    db.average_throughput(device=device)
        assert db.access_count() == oracle.access_count()
        if oracle.access_count():
            assert db.average_throughput() == oracle.average_throughput()
        assert db.device_throughput_ranking() == (
            oracle.device_throughput_ranking()
        )


AggregateMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestAggregatesStateful = AggregateMachine.TestCase


class TestIncrementQueryPlan:
    def test_reads_fold_in_only_the_new_rows(self):
        """The cursor follows the table; re-reads ask for nothing old."""
        with ReplayDB() as db:
            db.insert_accesses(make_record("dev0", 1000, t) for t in (1, 3, 5))
            assert db.access_count(device="dev0") == 3
            assert db._totals_cursor == db.max_rowid() == 3
            db.insert_accesses([make_record("dev1", 500, 7)])
            assert db.access_count() == 4
            assert db._totals_cursor == 4
