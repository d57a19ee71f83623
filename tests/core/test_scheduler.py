"""Tests for movement scheduling."""

import pytest

from repro.core import scheduler as scheduler_module
from repro.core.scheduler import AccessGapScheduler, CooldownScheduler
from repro.errors import ConfigurationError
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord


class TestCooldownScheduler:
    def test_every_five_runs(self):
        scheduler = CooldownScheduler(5)
        moves = [i for i in range(26) if scheduler.should_move(i)]
        assert moves == [5, 10, 15, 20, 25]

    def test_run_zero_never_moves(self):
        assert not CooldownScheduler(1).should_move(0)

    def test_cooldown_one_moves_every_run(self):
        scheduler = CooldownScheduler(1)
        assert all(scheduler.should_move(i) for i in range(1, 10))

    def test_invalid_cooldown(self):
        with pytest.raises(ConfigurationError):
            CooldownScheduler(0)

    def test_negative_run_index_rejected(self):
        with pytest.raises(ConfigurationError):
            CooldownScheduler(5).should_move(-1)


def access(fid, open_s, close_s):
    return AccessRecord(
        fid=fid, fsid=0, device="d", path="p", rb=1000, wb=0,
        ots=open_s, otms=0, cts=close_s, ctms=500,
    )


class TestAccessGapScheduler:
    @pytest.fixture
    def db(self):
        db = ReplayDB()
        # File 1: accesses with ~10 s gaps.  File 2: back-to-back accesses.
        for i in range(5):
            db.insert_accesses([access(1, 100 + i * 10, 100 + i * 10 + 1)])
        for i in range(5):
            db.insert_accesses([access(2, 200 + i, 200 + i)])
        return db

    def test_mean_gap_measured(self, db):
        gap = AccessGapScheduler().mean_gap(db, 1)
        assert gap == pytest.approx(8.5, abs=0.1)  # 10 s minus ~1.5 s in-access

    def test_unknown_file_has_no_gap(self, db):
        assert AccessGapScheduler().mean_gap(db, 99) is None

    def test_can_move_when_gap_accommodates(self, db):
        scheduler = AccessGapScheduler()
        assert scheduler.can_move(db, 1, estimated_transfer_s=3.0)

    def test_cannot_move_when_transfer_too_slow(self, db):
        scheduler = AccessGapScheduler()
        assert not scheduler.can_move(db, 1, estimated_transfer_s=6.0)

    def test_constantly_accessed_file_never_moves(self, db):
        # File 2's accesses are back-to-back: gap ~ 0.
        scheduler = AccessGapScheduler()
        assert not scheduler.can_move(db, 2, estimated_transfer_s=1.0)

    def test_never_observed_file_is_movable(self, db):
        assert AccessGapScheduler().can_move(db, 99, estimated_transfer_s=100.0)

    def test_invalid_args(self):
        assert scheduler_module.RECENT_ACCESSES >= 2
        assert scheduler_module.SAFETY_FACTOR > 0

    def test_negative_transfer_rejected(self, db):
        with pytest.raises(ConfigurationError):
            AccessGapScheduler().can_move(db, 1, estimated_transfer_s=-1.0)
