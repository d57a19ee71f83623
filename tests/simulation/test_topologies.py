"""Tests for the tiered/homogeneous cluster factories and testbed text."""

import pytest

from repro.errors import ConfigurationError
from repro.simulation import topologies
from repro.simulation.bluesky import describe_bluesky
from repro.simulation.topologies import (
    make_homogeneous_cluster,
    make_scaled_cluster,
    make_tiered_cluster,
)
from tests.oracles.scalar_device import perform_access

GB = 10**9


class TestTieredCluster:
    def test_three_tiers(self):
        cluster = make_tiered_cluster()
        assert cluster.device_names == ["burst", "disk", "archive"]

    def test_performance_strictly_decreasing(self):
        cluster = make_tiered_cluster()
        speeds = [
            cluster.device(name).spec.read_gbps
            for name in ("burst", "disk", "archive")
        ]
        assert speeds == sorted(speeds, reverse=True)

    def test_capacity_strictly_increasing(self):
        cluster = make_tiered_cluster()
        capacities = [
            cluster.device(name).spec.capacity_bytes
            for name in ("burst", "disk", "archive")
        ]
        assert capacities == sorted(capacities)

    def test_buffer_capacity_configurable(self, monkeypatch):
        monkeypatch.setattr(topologies, "BUFFER_CAPACITY_GB", 5)
        cluster = make_tiered_cluster()
        assert cluster.device("burst").spec.capacity_bytes == 5 * GB

    def test_small_buffer_forces_spill(self, monkeypatch):
        # The burst buffer cannot hold everything: a placement beyond its
        # capacity must fail, which is why the tier shape matters.
        from repro.errors import CapacityError

        monkeypatch.setattr(topologies, "BUFFER_CAPACITY_GB", 1)
        cluster = make_tiered_cluster()
        cluster.add_file(0, "a", 900_000_000, "burst")
        with pytest.raises(CapacityError):
            cluster.add_file(1, "b", 900_000_000, "burst")

    def test_invalid_capacity_rejected(self):
        assert topologies.BUFFER_CAPACITY_GB >= 1


class TestHomogeneousCluster:
    def test_device_count(self):
        cluster = make_homogeneous_cluster(5)
        assert len(cluster.device_names) == 5

    def test_identical_hardware(self):
        cluster = make_homogeneous_cluster(4)
        specs = [cluster.device(n).spec for n in cluster.device_names]
        assert len({s.read_gbps for s in specs}) == 1
        assert len({s.capacity_bytes for s in specs}) == 1

    def test_interference_schedules_differ(self):
        cluster = make_homogeneous_cluster(4, seed=1)
        patterns = []
        for name in cluster.device_names:
            load = cluster.device(name).interference
            patterns.append(tuple(load.load(t * 90.0) for t in range(30)))
        assert len(set(patterns)) > 1

    def test_invalid_args_rejected(self):
        with pytest.raises(ConfigurationError):
            make_homogeneous_cluster(1)


class TestScaledCluster:
    """The factory the ``wide_probe`` benchmark workload builds on."""

    TIERS = ("nvme node", "ssd node", "disk node", "dense disk node")
    #: unjittered read speed per tier
    READ_GBPS = (6.0, 3.0, 1.5, 0.6)

    def test_names_and_fsids_follow_the_index(self):
        cluster = make_scaled_cluster(12)
        assert cluster.device_names == [f"dev{i:05d}" for i in range(12)]
        assert cluster.fsids == list(range(12))

    def test_tiers_cycle_with_the_index(self):
        cluster = make_scaled_cluster(12)
        for i, name in enumerate(cluster.device_names):
            assert cluster.device(name).spec.description == self.TIERS[i % 4]

    def test_jitter_stays_in_its_band(self):
        cluster = make_scaled_cluster(64, seed=5)
        for i, name in enumerate(cluster.device_names):
            jitter = cluster.device(name).spec.read_gbps / self.READ_GBPS[i % 4]
            assert 0.85 <= jitter < 1.15

    def test_seed_changes_the_jitter(self):
        a, b = make_scaled_cluster(8, seed=0), make_scaled_cluster(8, seed=1)
        assert [a.device(n).spec.read_gbps for n in a.device_names] != [
            b.device(n).spec.read_gbps for n in b.device_names
        ]

    def test_device_is_a_pure_function_of_seed_and_index(self):
        """A larger build extends a smaller one, spec and behaviour."""
        small = make_scaled_cluster(12, seed=3)
        large = make_scaled_cluster(32, seed=3)
        ops = [(1.5 * k, 1_000_000 + 7_919 * k, 4_096 * (k % 3))
               for k in range(200)]
        for name in small.device_names:
            assert small.device(name).spec == large.device(name).spec
            assert [
                perform_access(small.device(name), t, rb, wb)
                for t, rb, wb in ops
            ] == [
                perform_access(large.device(name), t, rb, wb)
                for t, rb, wb in ops
            ]

    def test_capacity_configurable(self, monkeypatch):
        monkeypatch.setattr(topologies, "SCALED_CAPACITY_GB", 7)
        cluster = make_scaled_cluster(2)
        assert cluster.device("dev00001").spec.capacity_bytes == 7 * GB

    def test_invalid_args_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scaled_cluster(0)


class TestDescribeBluesky:
    def test_lists_all_mounts(self):
        text = describe_bluesky()
        for mount in ("USBtmp", "pic", "tmp", "file0", "var", "people"):
            assert mount in text

    def test_mentions_fig1(self):
        assert "Fig. 1" in describe_bluesky()
