"""The incremental per-device aggregates against SQLite's full scans.

``ReplayDB`` answers ``access_count``, ``average_throughput`` and
``device_throughput_ranking`` from running totals advanced over a rowid
cursor; the reference here is the full-table query each of them used to
run, issued on the database's own connection.
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
from repro.replaydb import db as db_module
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord

DEVICES = ("dev0", "dev1", "dev2", "dev3")
#: means are sums regrouped at every read boundary, so they match AVG to
#: rounding, not bit for bit
REL = 1e-12

sizes = st.integers(1, 10**12)
devices = st.sampled_from(DEVICES)


def make_record(device: str, rb: int, t: int) -> AccessRecord:
    """A one-second access, so its throughput is ``rb`` bytes/s."""
    return AccessRecord(
        fid=rb % 7, fsid=DEVICES.index(device), device=device, path="f",
        rb=rb, wb=0, ots=t, otms=0, cts=t + 1, ctms=0,
    )


class AggregateMachine(RuleBasedStateMachine):
    """Any interleaving of writes, reads, snapshots and re-opens."""

    #: small, so bulk inserts land on both sides of the buffer bound
    MAX_PENDING = 5

    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.path = f"{self.dir.name}/replay.sqlite"
        self.db = ReplayDB(self.path, max_pending_accesses=self.MAX_PENDING)
        self.times = itertools.count(1, 2)
        self.snapshot = None

    def _record(self, device: str, rb: int) -> AccessRecord:
        return make_record(device, rb, next(self.times))

    def teardown(self):
        self.db.close()
        self.dir.cleanup()

    # -- writes ----------------------------------------------------------
    @rule(device=devices, rb=sizes)
    def insert_one(self, device, rb):
        self.db.insert_access(self._record(device, rb))

    @rule(batch=st.lists(st.tuples(devices, sizes), min_size=1, max_size=12))
    def insert_bulk(self, batch):
        self.db.insert_accesses(
            [self._record(device, rb) for device, rb in batch]
        )

    # -- reads that move the cursor ---------------------------------------
    @rule(device=devices)
    def read_count(self, device):
        self.db.access_count(device=device)

    @rule()
    def read_ranking(self):
        self.db.device_throughput_ranking()

    # -- the places the cursor starts over ---------------------------------
    @rule()
    def reopen(self):
        self.db.close()
        self.db = ReplayDB(self.path, max_pending_accesses=self.MAX_PENDING)

    @rule()
    def take_snapshot(self):
        self.snapshot = self.db.snapshot_to(f"{self.dir.name}/snap.sqlite")

    @precondition(lambda self: self.snapshot is not None)
    @rule(fresh=st.booleans())
    def restore_snapshot(self, fresh):
        # Rows written (and counted) since the snapshot are gone after it.
        if fresh:
            self.db.close()
            self.path = f"{self.dir.name}/restored{next(self.times)}.sqlite"
            self.db = ReplayDB.from_snapshot(self.snapshot, self.path)
            self.db.max_pending_accesses = self.MAX_PENDING
        else:
            self.db.load_snapshot(self.snapshot)

    # -- the aggregates equal the full scans --------------------------------
    @invariant()
    def aggregates_equal_full_scans(self):
        db = self.db
        db._flush_accesses()
        scan = db._conn.execute
        full_means = {}
        for device in DEVICES:
            count, mean = scan(
                "SELECT COUNT(*), AVG(throughput) FROM accesses "
                "WHERE device = ?", (device,),
            ).fetchone()
            assert db.access_count(device=device) == count
            if count:
                full_means[device] = mean
                assert db.average_throughput(device=device) == pytest.approx(
                    mean, rel=REL, abs=0.0
                )
            else:
                with pytest.raises(ReplayDBError, match="no accesses"):
                    db.average_throughput(device=device)
        total, mean = scan(
            "SELECT COUNT(*), AVG(throughput) FROM accesses"
        ).fetchone()
        assert db.access_count() == total
        if total:
            assert db.average_throughput() == pytest.approx(
                mean, rel=REL, abs=0.0
            )
        ranking = db.device_throughput_ranking()
        assert sorted(name for name, _ in ranking) == sorted(full_means)
        for name, got in ranking:
            assert got == pytest.approx(full_means[name], rel=REL, abs=0.0)
        # Fastest first as the full scan orders them: only devices whose
        # full-scan means are within rounding of each other may swap.
        ordered = [full_means[name] for name, _ in ranking]
        for faster, slower in zip(ordered, ordered[1:]):
            assert faster >= slower * (1 - REL)


AggregateMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestAggregatesStateful = AggregateMachine.TestCase


class TestIncrementQueryPlan:
    def test_increment_searches_the_primary_key(self):
        """The increment is a plain rowid range scan, with nothing pinned:
        ``accesses`` has no secondary index a ``GROUP BY`` could drag in
        (``tests/test_surface_budget.py`` holds that)."""
        assert "INDEXED" not in db_module._DEVICE_TOTALS_SINCE_SQL
        with ReplayDB() as db:
            plan = " | ".join(
                row[3] for row in db._conn.execute(
                    "EXPLAIN QUERY PLAN "
                    + db_module._DEVICE_TOTALS_SINCE_SQL, (0,),
                )
            )
        assert "USING INTEGER PRIMARY KEY (rowid>?)" in plan
        assert "INDEX" not in plan

    def test_reads_fold_in_only_the_new_rows(self):
        """The cursor follows the table; re-reads ask for nothing old."""
        with ReplayDB() as db:
            db.insert_accesses(make_record("dev0", 1000, t) for t in (1, 3, 5))
            assert db.access_count(device="dev0") == 3
            assert db._totals_cursor == db.max_rowid() == 3
            db.insert_access(make_record("dev1", 500, 7))
            assert db.access_count() == 4
            assert db._totals_cursor == 4
