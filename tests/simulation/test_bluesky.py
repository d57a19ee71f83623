"""Tests for the Bluesky testbed factory and its Table-IV shape."""

import pytest

from repro.simulation.bluesky import (
    BLUESKY_DEVICE_NAMES,
    bluesky_device_specs,
    bluesky_interference,
    make_bluesky_cluster,
)

GB = 10**9


class TestFactory:
    def test_six_mounts(self):
        cluster = make_bluesky_cluster()
        assert sorted(cluster.device_names) == sorted(BLUESKY_DEVICE_NAMES)
        assert set(BLUESKY_DEVICE_NAMES) == {
            "USBtmp", "pic", "tmp", "file0", "var", "people",
        }

    def test_unique_fsids(self):
        cluster = make_bluesky_cluster()
        assert len(set(cluster.fsids)) == 6

    def test_specs_match_paper_characterisation(self):
        specs = bluesky_device_specs()
        # "The RAID 5 storage device has the highest I/O throughput
        # performance while the externally mounted HDD has the lowest."
        assert specs["file0"].read_gbps == max(
            s.read_gbps for s in specs.values()
        )
        assert specs["USBtmp"].read_gbps == min(
            s.read_gbps for s in specs.values()
        )
        # RAID 5 has a "large imbalance between read- and write-speeds".
        ratio = specs["file0"].read_gbps / specs["file0"].write_gbps
        assert ratio > 2.0

    def test_shared_mounts_have_heaviest_interference(self):
        specs = bluesky_device_specs()
        for shared in ("people", "pic"):
            assert specs[shared].interference_sensitivity > 0.8
        assert specs["USBtmp"].interference_sensitivity < 0.1

    def test_interference_processes_cover_all_mounts(self):
        assert set(bluesky_interference()) == set(BLUESKY_DEVICE_NAMES)

    def test_seed_reproducibility(self):
        a = make_bluesky_cluster(seed=5)
        b = make_bluesky_cluster(seed=5)
        a.add_file(1, "x", GB, "file0")
        b.add_file(1, "x", GB, "file0")
        assert a.access(1, 0.0) == b.access(1, 0.0)


class TestTableIVShape:
    """One file per mount, round-robin reads: Table IV's ordering emerges."""

    @pytest.fixture(scope="class")
    def measured(self):
        cluster = make_bluesky_cluster(seed=2)
        for i, name in enumerate(BLUESKY_DEVICE_NAMES):
            cluster.add_file(i, f"data/f{i}.root", 500_000_000, name)
        t = 0.0
        for _ in range(250):
            for i in range(6):
                t += cluster.access(i, t).duration
        return {
            name: cluster.device(name).stats for name in BLUESKY_DEVICE_NAMES
        }

    def test_file0_fastest(self, measured):
        file0 = measured["file0"].mean_throughput_gbps()
        for name, stats in measured.items():
            if name != "file0":
                assert file0 > 2 * stats.mean_throughput_gbps()

    def test_usbtmp_slowest(self, measured):
        usb = measured["USBtmp"].mean_throughput_gbps()
        for name, stats in measured.items():
            if name != "USBtmp":
                assert usb < stats.mean_throughput_gbps()

    def test_heavy_tails_on_contended_mounts(self, measured):
        # Table IV: std exceeds mean on every mount except USBtmp.
        for name in ("pic", "tmp", "file0", "var", "people"):
            stats = measured[name]
            assert stats.std_throughput_gbps() > 0.5 * stats.mean_throughput_gbps()

    def test_means_within_factor_two_of_paper(self, measured):
        paper = {
            "USBtmp": 0.63, "pic": 2.05, "tmp": 1.65,
            "file0": 7.61, "var": 1.26, "people": 1.69,
        }
        for name, target in paper.items():
            ours = measured[name].mean_throughput_gbps()
            assert target / 2 <= ours <= target * 2, (name, ours, target)
