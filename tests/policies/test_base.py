"""Tests for policy helpers: device ranking and group spreading."""

import pytest

from repro.errors import PolicyError
from repro.policies.base import rank_devices, spread_in_groups
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord


def record(device, rb, t):
    return AccessRecord(
        fid=0, fsid=0, device=device, path="p", rb=rb, wb=0,
        ots=t, otms=0, cts=t + 1, ctms=0,
    )


class TestRankDevices:
    def test_fastest_first(self):
        db = ReplayDB()
        db.insert_accesses([record("slow", 100, 1)])
        db.insert_accesses([record("fast", 9000, 2)])
        assert rank_devices(db, ["slow", "fast"]) == ["fast", "slow"]

    def test_unseen_devices_rank_last(self):
        db = ReplayDB()
        db.insert_accesses([record("seen", 100, 1)])
        assert rank_devices(db, ["ghost", "seen"]) == ["seen", "ghost"]

    def test_devices_outside_list_ignored(self):
        db = ReplayDB()
        db.insert_accesses([record("other", 100, 1)])
        db.insert_accesses([record("mine", 50, 2)])
        assert rank_devices(db, ["mine"]) == ["mine"]

    def test_empty_devices_rejected(self):
        with pytest.raises(PolicyError):
            rank_devices(ReplayDB(), [])


class TestSpreadInGroups:
    def test_even_division(self):
        layout = spread_in_groups(list(range(6)), ["a", "b", "c"])
        assert layout == {0: "a", 1: "a", 2: "b", 3: "b", 4: "c", 5: "c"}

    def test_paper_24_over_6(self):
        layout = spread_in_groups(list(range(24)), [f"d{i}" for i in range(6)])
        counts = {}
        for device in layout.values():
            counts[device] = counts.get(device, 0) + 1
        assert all(count == 4 for count in counts.values())

    def test_remainder_to_slowest(self):
        layout = spread_in_groups(list(range(7)), ["fast", "slow"])
        # groups of 3; remainder file 6 lands on the slowest (last) device.
        assert layout[6] == "slow"
        assert sum(1 for d in layout.values() if d == "slow") == 4

    def test_fewer_files_than_devices(self):
        layout = spread_in_groups([10, 11], ["fast", "mid", "slow"])
        assert layout == {10: "fast", 11: "mid"}

    def test_single_device(self):
        layout = spread_in_groups([1, 2, 3], ["only"])
        assert set(layout.values()) == {"only"}

    def test_empty_inputs_rejected(self):
        with pytest.raises(PolicyError):
            spread_in_groups([], ["a"])
        with pytest.raises(PolicyError):
            spread_in_groups([1], [])
