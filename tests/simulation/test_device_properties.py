"""Additional property-style tests for the device service model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.device import DeviceSpec, StorageDevice
from repro.simulation.interference import ConstantLoad, DiurnalLoad

GB = 10**9


def make_device(**overrides):
    base = dict(
        name="d", fsid=0, read_gbps=2.0, write_gbps=1.0,
        capacity_bytes=10**12, latency_s=0.002, noise_sigma=0.3,
        crowding_factor=2.0, interference_sensitivity=0.5,
    )
    seed = overrides.pop("seed", 0)
    load = overrides.pop("load", ConstantLoad(0.2))
    base.update(overrides)
    return StorageDevice(DeviceSpec(**base), load, seed=seed)


class TestServiceProperties:
    @given(
        rb=st.integers(1, 10 * GB),
        t=st.floats(0, 1e5, allow_nan=False),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_service_time_always_positive_and_finite(self, rb, t, seed):
        device = make_device(seed=seed)
        duration = device.service_time(t, rb, 0)
        assert np.isfinite(duration)
        assert duration >= device.spec.latency_s or duration >= 0.002

    @given(rb=st.integers(10**6, GB), seed=st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_bigger_reads_never_faster_without_noise(self, rb, seed):
        device = make_device(noise_sigma=0.0, cache_hit_rate=0.0, seed=seed)
        small = device.service_time(0.0, rb, 0)
        big = device.service_time(0.0, rb * 2, 0)
        assert big >= small

    def test_interference_slows_deterministic_service(self):
        quiet = make_device(noise_sigma=0.0, load=ConstantLoad(0.0))
        stormy = make_device(noise_sigma=0.0, load=ConstantLoad(0.9))
        assert stormy.service_time(0.0, GB, 0) > quiet.service_time(0.0, GB, 0)

    def test_diurnal_interference_varies_service_over_time(self):
        device = make_device(
            noise_sigma=0.0,
            load=DiurnalLoad(base=0.0, amplitude=0.8, period=100.0),
            interference_sensitivity=1.0,
        )
        times = [device.service_time(t, GB, 0) for t in (0.0, 25.0, 75.0)]
        assert max(times) > min(times) * 1.2

    def test_throughput_samples_match_bytes_over_duration(self):
        device = make_device(noise_sigma=0.0, load=ConstantLoad(0.0))
        duration = device.perform_access(0.0, GB, 0)
        assert device.stats.mean == GB / duration


class TestStatsAggregation:
    def test_mean_and_std_over_known_samples(self):
        device = make_device(noise_sigma=0.0, load=ConstantLoad(0.0))
        device.stats.extend_samples([1e9, 3e9])
        assert device.stats.mean_throughput_gbps() == pytest.approx(2.0)
        assert device.stats.std_throughput_gbps() == pytest.approx(1.0)

    def test_busy_time_accumulates(self):
        device = make_device(noise_sigma=0.0, load=ConstantLoad(0.0))
        d1 = device.perform_access(0.0, GB, 0)
        d2 = device.perform_access(10.0, GB, 0)
        assert device.stats.busy_time == pytest.approx(d1 + d2)
