"""Tests for the storage-device service model.

The access-level cases run the readable scalar model in
``tests/oracles/scalar_device.py`` over a real device (its spec, RNG
streams, crowding window and stats); ``test_device_properties.py`` holds
the ``StorageDevice.serve`` kernel bit-equal to it.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.simulation.device import (
    GBPS,
    MIN_ACCESS_DURATION,
    DeviceSpec,
    StorageDevice,
)
from repro.simulation.interference import ConstantLoad
from tests.oracles.scalar_device import perform_access, service_time


def make_spec(**overrides):
    base = dict(
        name="dev", fsid=0, read_gbps=2.0, write_gbps=1.0,
        capacity_bytes=10**12, latency_s=0.002, noise_sigma=0.0,
        crowding_factor=0.0, interference_sensitivity=1.0,
    )
    base.update(overrides)
    return DeviceSpec(**base)


class TestDeviceSpecValidation:
    def test_valid_spec(self):
        assert make_spec().name == "dev"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"read_gbps": 0.0},
            {"write_gbps": -1.0},
            {"capacity_bytes": 0},
            {"latency_s": -0.1},
            {"noise_sigma": -0.5},
            {"crowding_factor": -1.0},
            {"interference_sensitivity": 1.5},
            {"cache_hit_rate": -0.1},
            {"cache_gbps": 0.0},
            {"utilization_window_s": 0.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_spec(**kwargs)


class TestEffectiveBandwidth:
    def test_noise_free_read_bandwidth(self):
        dev = StorageDevice(make_spec(), ConstantLoad(0.0))
        assert dev.effective_bandwidth(0.0, is_read=True) == pytest.approx(2.0 * GBPS)

    def test_write_slower_than_read(self):
        dev = StorageDevice(make_spec(), ConstantLoad(0.0))
        read = dev.effective_bandwidth(0.0, is_read=True)
        write = dev.effective_bandwidth(0.0, is_read=False)
        assert write == pytest.approx(read / 2)

    def test_interference_steals_bandwidth(self):
        quiet = StorageDevice(make_spec(), ConstantLoad(0.0))
        busy = StorageDevice(make_spec(), ConstantLoad(0.5))
        assert busy.effective_bandwidth(0.0, is_read=True) == pytest.approx(
            0.5 * quiet.effective_bandwidth(0.0, is_read=True)
        )

    def test_interference_sensitivity_scales(self):
        dev = StorageDevice(
            make_spec(interference_sensitivity=0.5), ConstantLoad(0.8)
        )
        assert dev.external_load(0.0) == pytest.approx(0.4)

    def test_full_interference_capped(self):
        dev = StorageDevice(make_spec(), ConstantLoad(1.0))
        # The 0.95 cap keeps the device serving, just very slowly.
        assert dev.effective_bandwidth(0.0, is_read=True) > 0.0


class TestCrowding:
    def test_utilization_zero_when_idle(self):
        dev = StorageDevice(make_spec(), ConstantLoad(0.0))
        assert dev.utilization(100.0) == 0.0

    def test_recent_traffic_raises_utilization(self):
        dev = StorageDevice(make_spec(crowding_factor=3.0), ConstantLoad(0.0))
        perform_access(dev, 0.0, rb=10**9, wb=0)
        assert dev.utilization(0.5) > 0.0

    def test_crowding_slows_subsequent_accesses(self):
        dev = StorageDevice(make_spec(crowding_factor=5.0), ConstantLoad(0.0))
        fresh = dev.effective_bandwidth(0.0, is_read=True)
        for i in range(10):
            perform_access(dev, float(i), rb=5 * 10**9, wb=0)
        crowded = dev.effective_bandwidth(10.0, is_read=True)
        assert crowded < fresh

    def test_old_traffic_expires_from_window(self):
        dev = StorageDevice(
            make_spec(crowding_factor=5.0, utilization_window_s=10.0),
            ConstantLoad(0.0),
        )
        perform_access(dev, 0.0, rb=10**9, wb=0)
        assert dev.utilization(100.0) == 0.0

    def test_zero_crowding_factor_ignores_utilization(self):
        dev = StorageDevice(make_spec(crowding_factor=0.0), ConstantLoad(0.0))
        perform_access(dev, 0.0, rb=10**10, wb=0)
        assert dev.effective_bandwidth(0.1, is_read=True) == pytest.approx(
            2.0 * GBPS
        )


class TestServiceTime:
    def test_deterministic_without_noise(self):
        dev = StorageDevice(make_spec(), ConstantLoad(0.0))
        # 2 GB read at 2 GB/s + 2 ms latency.
        assert service_time(dev, 0.0, 2 * 10**9, 0) == pytest.approx(1.002)

    def test_read_write_mix(self):
        dev = StorageDevice(make_spec(), ConstantLoad(0.0))
        # 2 GB read at 2 GB/s + 1 GB write at 1 GB/s + latency.
        t = service_time(dev, 0.0, 2 * 10**9, 10**9)
        assert t == pytest.approx(2.002)

    def test_minimum_duration_enforced(self):
        dev = StorageDevice(make_spec(latency_s=0.0), ConstantLoad(0.0))
        assert service_time(dev, 0.0, 1, 0) >= MIN_ACCESS_DURATION

    def test_zero_byte_access_rejected(self):
        dev = StorageDevice(make_spec(), ConstantLoad(0.0))
        with pytest.raises(SimulationError):
            service_time(dev, 0.0, 0, 0)

    def test_negative_bytes_rejected(self):
        dev = StorageDevice(make_spec(), ConstantLoad(0.0))
        with pytest.raises(SimulationError):
            service_time(dev, 0.0, -1, 0)

    def test_noise_varies_durations(self):
        dev = StorageDevice(make_spec(noise_sigma=0.5), ConstantLoad(0.0), seed=1)
        times = {service_time(dev, 0.0, 10**9, 0) for _ in range(10)}
        assert len(times) > 1

    def test_seed_reproducibility(self):
        a = StorageDevice(make_spec(noise_sigma=0.5), ConstantLoad(0.0), seed=7)
        b = StorageDevice(make_spec(noise_sigma=0.5), ConstantLoad(0.0), seed=7)
        assert [service_time(a, 0.0, 10**9, 0) for _ in range(5)] == [
            service_time(b, 0.0, 10**9, 0) for _ in range(5)
        ]

    def test_cache_hits_produce_fast_accesses(self):
        dev = StorageDevice(
            make_spec(cache_hit_rate=1.0, cache_gbps=20.0), ConstantLoad(0.0)
        )
        # Always cached: 2 GB at 20 GB/s + 2 ms.
        assert service_time(dev, 0.0, 2 * 10**9, 0) == pytest.approx(0.102)

    def test_cache_hits_create_heavy_upper_tail(self):
        dev = StorageDevice(
            make_spec(cache_hit_rate=0.2, cache_gbps=40.0, noise_sigma=0.3),
            ConstantLoad(0.0),
            seed=3,
        )
        samples = np.array([
            10**9 / perform_access(dev, 0.0, rb=10**9, wb=0)
            for _ in range(300)
        ])
        assert samples.max() > 5 * np.median(samples)


class TestAccounting:
    def test_stats_accumulate(self):
        dev = StorageDevice(make_spec(), ConstantLoad(0.0))
        perform_access(dev, 0.0, rb=10**9, wb=0)
        perform_access(dev, 1.0, rb=0, wb=10**9)
        assert dev.stats.accesses == 2
        assert dev.stats.bytes_served == 2 * 10**9
        assert dev.stats.busy_time > 0.0
        assert dev.stats.n == 2

    def test_mean_throughput_gbps(self):
        dev = StorageDevice(make_spec(latency_s=0.0), ConstantLoad(0.0))
        perform_access(dev, 0.0, rb=2 * 10**9, wb=0)
        assert dev.stats.mean_throughput_gbps() == pytest.approx(2.0)

    def test_stats_empty_raises(self):
        dev = StorageDevice(make_spec(), ConstantLoad(0.0))
        with pytest.raises(SimulationError):
            dev.stats.mean_throughput_gbps()

    def test_absorb_transfer_crowds_but_no_sample(self):
        dev = StorageDevice(make_spec(crowding_factor=3.0), ConstantLoad(0.0))
        dev.absorb_transfer(0.0, 10**10, 1.0)
        assert dev.utilization(0.5) > 0.0
        assert dev.stats.n == 0
        assert dev.stats.accesses == 0

    def test_absorb_invalid_rejected(self):
        dev = StorageDevice(make_spec(), ConstantLoad(0.0))
        with pytest.raises(SimulationError):
            dev.absorb_transfer(0.0, -1, 1.0)

    def test_reset_stats(self):
        dev = StorageDevice(make_spec(crowding_factor=3.0), ConstantLoad(0.0))
        perform_access(dev, 0.0, rb=10**9, wb=0)
        dev.reset_stats()
        assert dev.stats.accesses == 0
        assert dev.utilization(0.1) == 0.0
