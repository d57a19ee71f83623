"""Tests for the storage cluster."""

import numpy as np
import pytest

from repro.errors import (
    CapacityError,
    SimulationError,
    UnknownDeviceError,
    UnknownFileError,
)
from repro.features.throughput import access_throughput
from repro.replaydb.records import AccessRecord
from repro.simulation.cluster import FileInfo, StorageCluster
from repro.simulation.device import DeviceSpec, StorageDevice
from repro.simulation.interference import ConstantLoad
from repro.simulation.network import TransferLink

GB = 10**9


def make_device(name, fsid, read=2.0, write=1.0, capacity=100 * GB, **kw):
    spec = DeviceSpec(
        name=name, fsid=fsid, read_gbps=read, write_gbps=write,
        capacity_bytes=capacity, latency_s=0.002, noise_sigma=0.0,
        crowding_factor=kw.pop("crowding_factor", 0.0), **kw,
    )
    return StorageDevice(spec, ConstantLoad(0.0))


@pytest.fixture
def cluster():
    return StorageCluster(
        [
            make_device("fast", 0, read=4.0, write=2.0),
            make_device("slow", 1, read=1.0, write=0.5, capacity=5 * GB),
        ],
        link=TransferLink(bandwidth_gbps=1.0, latency_s=0.0),
    )


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            StorageCluster([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(SimulationError, match="duplicate device names"):
            StorageCluster([make_device("a", 0), make_device("a", 1)])

    def test_duplicate_fsids_rejected(self):
        with pytest.raises(SimulationError, match="duplicate fsids"):
            StorageCluster([make_device("a", 0), make_device("b", 0)])

    def test_lookup_by_name_and_fsid(self, cluster):
        assert cluster.device("fast").fsid == 0
        assert cluster.device_by_fsid(1).name == "slow"

    def test_unknown_lookups_raise(self, cluster):
        with pytest.raises(UnknownDeviceError):
            cluster.device("ghost")
        with pytest.raises(UnknownDeviceError):
            cluster.device_by_fsid(9)


class TestNamespace:
    def test_add_and_query(self, cluster):
        info = cluster.add_file(1, "data/a.root", GB, "fast")
        assert info == FileInfo(1, "data/a.root", GB, "fast")
        assert cluster.file(1).device == "fast"

    def test_duplicate_fid_rejected(self, cluster):
        cluster.add_file(1, "a", GB, "fast")
        with pytest.raises(SimulationError, match="already exists"):
            cluster.add_file(1, "b", GB, "slow")

    def test_unknown_device_rejected(self, cluster):
        with pytest.raises(UnknownDeviceError):
            cluster.add_file(1, "a", GB, "ghost")

    def test_unknown_file_raises(self, cluster):
        with pytest.raises(UnknownFileError):
            cluster.file(42)

    def test_nonpositive_size_rejected(self, cluster):
        with pytest.raises(SimulationError):
            cluster.add_file(1, "a", 0, "fast")

    def test_capacity_enforced_on_add(self, cluster):
        cluster.add_file(1, "a", 4 * GB, "slow")
        with pytest.raises(CapacityError):
            cluster.add_file(2, "b", 2 * GB, "slow")

    def test_layout_and_files_on(self, cluster):
        cluster.add_file(1, "a", GB, "fast")
        cluster.add_file(2, "b", GB, "slow")
        assert cluster.layout() == {1: "fast", 2: "slow"}
        assert [f.fid for f in cluster.files_on("fast")] == [1]
        assert cluster.stored_bytes("slow") == GB


class TestAccess:
    def test_full_file_read_by_default(self, cluster):
        cluster.add_file(1, "a", 2 * GB, "fast")
        record = cluster.access(1, t=10.0)
        assert record.rb == 2 * GB and record.wb == 0
        assert record.device == "fast" and record.fsid == 0

    def test_timestamps_consistent(self, cluster):
        cluster.add_file(1, "a", 2 * GB, "fast")
        record = cluster.access(1, t=10.5)
        assert record.open_time == pytest.approx(10.5, abs=0.001)
        assert record.close_time > record.open_time

    def test_throughput_reflects_device_speed(self, cluster):
        cluster.add_file(1, "a", 2 * GB, "fast")
        cluster.add_file(2, "b", 2 * GB, "slow")
        fast_tp = cluster.access(1, t=0.0).throughput
        slow_tp = cluster.access(2, t=0.0).throughput
        assert fast_tp > 2 * slow_tp

    def test_records_leave_both_paths_with_throughput_filled(self, cluster):
        """Neither path leaves the derived throughput for the reader to pay."""
        cluster.add_file(1, "a", 2 * GB, "fast")
        scalar = cluster.access(1, t=0.0)
        batched = cluster.access_batch([1], 10.0, [0], [0]).records[0]
        for record in (scalar, batched):
            assert type(record) is AccessRecord
            assert record.throughput == access_throughput(
                record.rb, record.wb, record.ots, record.otms,
                record.cts, record.ctms,
            )
            assert record.throughput_gbps == record.throughput / 1e9
            # Stored fields, not something computed on first read.
            assert record[-2:] == (record.throughput, record.throughput_gbps)

    def test_explicit_write_access(self, cluster):
        cluster.add_file(1, "a", 2 * GB, "fast")
        record = cluster.access(1, t=0.0, wb=GB)
        assert record.wb == GB and record.rb == 0

    def test_unknown_file_access_raises(self, cluster):
        with pytest.raises(UnknownFileError):
            cluster.access(7, t=0.0)


class TestMigration:
    def test_migrate_updates_layout(self, cluster):
        cluster.add_file(1, "a", GB, "fast")
        move = cluster.migrate(1, "slow", t=0.0)
        assert move.src_device == "fast" and move.dst_device == "slow"
        assert cluster.file(1).device == "slow"

    def test_noop_migration_returns_none(self, cluster):
        cluster.add_file(1, "a", GB, "fast")
        assert cluster.migrate(1, "fast", t=0.0) is None

    def test_migration_bottlenecked_by_slowest_leg(self, cluster):
        cluster.add_file(1, "a", GB, "fast")
        move = cluster.migrate(1, "slow", t=0.0)
        # slow write bandwidth (0.5 GB/s) is the bottleneck: 2 s for 1 GB.
        assert move.duration == pytest.approx(2.0, rel=0.01)

    def test_migration_respects_capacity(self, cluster):
        cluster.add_file(1, "a", 4 * GB, "slow")
        cluster.add_file(2, "b", 4 * GB, "fast")
        with pytest.raises(CapacityError):
            cluster.migrate(2, "slow", t=0.0)

    def test_migration_crowds_both_devices(self):
        devices = [
            make_device("src", 0, crowding_factor=5.0),
            make_device("dst", 1, crowding_factor=5.0),
        ]
        cluster = StorageCluster(devices)
        cluster.add_file(1, "a", 50 * GB, "src")
        before_src = cluster.device("src").effective_bandwidth(0.0, is_read=True)
        before_dst = cluster.device("dst").effective_bandwidth(0.0, is_read=True)
        cluster.migrate(1, "dst", t=0.0)
        assert cluster.device("src").effective_bandwidth(1.0, is_read=True) < before_src
        assert cluster.device("dst").effective_bandwidth(1.0, is_read=True) < before_dst

    def test_apply_layout_moves_only_differences(self, cluster):
        cluster.add_file(1, "a", GB, "fast")
        cluster.add_file(2, "b", GB, "slow")
        moves = cluster.apply_layout({1: "slow", 2: "slow"}, t=0.0)
        assert len(moves) == 1 and moves[0].fid == 1

    def test_apply_layout_serializes_transfers(self, cluster):
        cluster.add_file(1, "a", GB, "fast")
        cluster.add_file(2, "b", GB, "fast")
        moves = cluster.apply_layout({1: "slow", 2: "slow"}, t=0.0)
        assert len(moves) == 2
        assert moves[1].timestamp >= moves[0].timestamp + moves[0].duration


class TestAccounting:
    def test_usage_percent(self, cluster):
        cluster.add_file(1, "a", GB, "fast")
        cluster.add_file(2, "b", GB, "slow")
        for _ in range(3):
            cluster.access(1, t=0.0)
        cluster.access(2, t=0.0)
        usage = cluster.usage_percent()
        assert usage["fast"] == pytest.approx(75.0)
        assert usage["slow"] == pytest.approx(25.0)

    def test_usage_percent_empty(self, cluster):
        assert cluster.usage_percent() == {"fast": 0.0, "slow": 0.0}

    def test_reset_stats(self, cluster):
        cluster.add_file(1, "a", GB, "fast")
        cluster.access(1, t=0.0)
        cluster.reset_stats()
        assert cluster.usage_percent() == {"fast": 0.0, "slow": 0.0}


class TestAvailability:
    def test_devices_start_available(self, cluster):
        assert cluster.available_device_names == ["fast", "slow"]

    def test_set_unavailable_excludes_from_candidates(self, cluster):
        cluster.set_device_available("slow", False)
        assert cluster.available_device_names == ["fast"]

    def test_add_file_to_unavailable_rejected(self, cluster):
        from repro.errors import DeviceUnavailableError
        cluster.set_device_available("slow", False)
        with pytest.raises(DeviceUnavailableError):
            cluster.add_file(1, "a", GB, "slow")

    def test_migrate_to_unavailable_rejected(self, cluster):
        from repro.errors import DeviceUnavailableError
        cluster.add_file(1, "a", GB, "fast")
        cluster.set_device_available("slow", False)
        with pytest.raises(DeviceUnavailableError):
            cluster.migrate(1, "slow", t=0.0)

    def test_existing_files_still_served(self, cluster):
        cluster.add_file(1, "a", GB, "slow")
        cluster.set_device_available("slow", False)
        record = cluster.access(1, t=0.0)
        assert record.device == "slow"

    def test_reavailability(self, cluster):
        cluster.set_device_available("slow", False)
        cluster.set_device_available("slow", True)
        cluster.add_file(1, "a", GB, "slow")
        assert cluster.file(1).device == "slow"


class TestApplyLayoutFailureModes:
    def test_strict_apply_raises_on_capacity(self, cluster):
        cluster.add_file(1, "a", 4 * GB, "slow")
        cluster.add_file(2, "b", 4 * GB, "fast")
        with pytest.raises(CapacityError):
            cluster.apply_layout({2: "slow"}, t=0.0)


class TestInvalidOpOnOfflineDevice:
    """Both access paths check an op's file, then its byte counts, before
    any draw: an invalid op on an offline device raises what it is and
    takes no draw, not a stranded access that burns its draws.  In a
    batch the first bad op in op order decides."""

    @staticmethod
    def offline_cluster():
        spec = DeviceSpec(
            name="noisy", fsid=0, read_gbps=2.0, write_gbps=1.0,
            capacity_bytes=100 * GB, noise_sigma=0.3, cache_hit_rate=0.5,
        )
        cluster = StorageCluster([StorageDevice(spec, ConstantLoad(0.1))])
        cluster.add_file(1, "a", GB, "noisy")
        cluster.set_device_online("noisy", False)
        return cluster

    @staticmethod
    def rng_states(cluster):
        device = cluster.device("noisy")
        return (
            device._rng.bit_generator.state,
            device._rng_cache.bit_generator.state,
        )

    @pytest.mark.parametrize(
        "serve, error",
        [
            (lambda c: c.access(1, 3.0, rb=-5),
             r"byte counts must be non-negative \(rb=-5, wb=0\)"),
            (lambda c: c.access_batch([1], 3.0, [-5], [0]),
             r"byte counts must be non-negative \(rb=-5, wb=0\)"),
            # One op both unknown and negative: the file lookup comes first.
            (lambda c: c.access(99, 3.0, rb=-5), "no file with fid 99"),
            (lambda c: c.access_batch([99], 3.0, [-5], None),
             "no file with fid 99"),
            # The first bad op in op order decides: an unknown fid before a
            # negative byte count, and the reverse, with rb/wb as lists,
            # arrays and None.
            (lambda c: c.access_batch([1, 99, 1], 3.0, [0, 0, -5], [0, 0, 0]),
             "no file with fid 99"),
            (lambda c: c.access_batch(
                np.array([1, 1, 99]), 3.0, np.array([0, -5, 0]),
                np.array([0, 0, 0])),
             r"byte counts must be non-negative \(rb=-5, wb=0\)"),
            (lambda c: c.access_batch([1, 99], 3.0, None, np.array([0, -2])),
             "no file with fid 99"),
            (lambda c: c.access_batch(np.array([1, 99]), 3.0, None, [-2, 0]),
             r"byte counts must be non-negative \(rb=0, wb=-2\)"),
            (lambda c: c.access_batch([1, 1, 99], 3.0, [4, 0, 0], [0, -1, -3]),
             r"byte counts must be non-negative \(rb=0, wb=-1\)"),
        ],
        ids=[
            "access", "access_batch", "access-both", "batch-both",
            "unknown-first-lists", "negative-first-arrays",
            "unknown-first-none", "negative-first-none", "two-negatives",
        ],
    )
    def test_rejected_before_any_draw(self, serve, error):
        cluster = self.offline_cluster()
        before = self.rng_states(cluster)
        with pytest.raises(SimulationError, match=f"^{error}$") as caught:
            serve(cluster)
        expected = UnknownFileError if "fid" in error else SimulationError
        assert type(caught.value) is expected
        assert self.rng_states(cluster) == before
