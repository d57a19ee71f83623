"""Additional property-style tests for the device service model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.device import DeviceSpec, StorageDevice
from repro.simulation.interference import ConstantLoad, DiurnalLoad
from tests.oracles.scalar_device import perform_access, service_time

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
        duration = service_time(device, t, rb, 0)
        assert np.isfinite(duration)
        assert duration >= device.spec.latency_s or duration >= 0.002

    @given(rb=st.integers(10**6, GB), seed=st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_bigger_reads_never_faster_without_noise(self, rb, seed):
        device = make_device(noise_sigma=0.0, cache_hit_rate=0.0, seed=seed)
        small = service_time(device, 0.0, rb, 0)
        big = service_time(device, 0.0, rb * 2, 0)
        assert big >= small

    def test_interference_slows_deterministic_service(self):
        quiet = make_device(noise_sigma=0.0, load=ConstantLoad(0.0))
        stormy = make_device(noise_sigma=0.0, load=ConstantLoad(0.9))
        assert service_time(stormy, 0.0, GB, 0) > service_time(quiet, 0.0, GB, 0)

    def test_diurnal_interference_varies_service_over_time(self):
        device = make_device(
            noise_sigma=0.0,
            load=DiurnalLoad(base=0.0, amplitude=0.8, period=100.0),
            interference_sensitivity=1.0,
        )
        times = [service_time(device, t, GB, 0) for t in (0.0, 25.0, 75.0)]
        assert max(times) > min(times) * 1.2

    def test_throughput_samples_match_bytes_over_duration(self):
        device = make_device(noise_sigma=0.0, load=ConstantLoad(0.0))
        duration = perform_access(device, 0.0, GB, 0)
        assert device.stats.mean == GB / duration


class TestStatsAggregation:
    def test_mean_and_std_over_known_samples(self):
        device = make_device(noise_sigma=0.0, load=ConstantLoad(0.0))
        device.stats.extend_samples([1e9, 3e9])
        assert device.stats.mean_throughput_gbps() == pytest.approx(2.0)
        assert device.stats.std_throughput_gbps() == pytest.approx(1.0)

    def test_busy_time_accumulates(self):
        device = make_device(noise_sigma=0.0, load=ConstantLoad(0.0))
        d1 = perform_access(device, 0.0, GB, 0)
        d2 = perform_access(device, 10.0, GB, 0)
        assert device.stats.busy_time == pytest.approx(d1 + d2)


class TestServeKernel:
    """``StorageDevice.serve`` over either draw source, against the
    scalar model of ``tests/oracles/scalar_device.py``."""

    @given(
        seed=st.integers(0, 30),
        cache_hit_rate=st.sampled_from([0.0, 0.3, 1.0]),
        noise_sigma=st.sampled_from([0.0, 0.3]),
        ops=st.lists(
            st.tuples(
                st.floats(0.0, 40.0, allow_nan=False),
                st.integers(0, 3 * GB),
                st.integers(0, GB),
                st.sampled_from([1.0, 0.4]),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_serve_matches_the_scalar_model(
        self, seed, cache_hit_rate, noise_sigma, ops
    ):
        def build():
            return make_device(
                seed=seed, cache_hit_rate=cache_hit_rate,
                noise_sigma=noise_sigma, utilization_window_s=20.0,
                load=DiurnalLoad(base=0.3, amplitude=0.6, period=90.0),
            )

        kernel, model = build(), build()
        t = 0.0
        for dt, rb, wb, degradation in ops:
            t += dt
            rb = rb or (0 if wb else 1)
            kernel.degradation = model.degradation = degradation
            hit, noise = kernel.draw_access()
            assert kernel.serve(t, rb, wb, hit, noise) == perform_access(
                model, t, rb, wb
            )
            assert kernel._recent_sum == model._recent_sum
            assert kernel._window_entries() == model._window_entries()
            assert kernel._rng.bit_generator.state == (
                model._rng.bit_generator.state
            )
            assert kernel._rng_cache.bit_generator.state == (
                model._rng_cache.bit_generator.state
            )

    @given(
        seed=st.integers(0, 30),
        cache_hit_rate=st.sampled_from([0.0, 0.3, 1.0]),
        noise_sigma=st.sampled_from([0.0, 0.3]),
        n=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_prepare_batch_is_n_single_draws(
        self, seed, cache_hit_rate, noise_sigma, n
    ):
        def build():
            return make_device(
                seed=seed, cache_hit_rate=cache_hit_rate,
                noise_sigma=noise_sigma,
            )

        batched, single = build(), build()
        hit, noise = batched.prepare_batch(n)
        draws = [single.draw_access() for _ in range(n)]
        assert hit.tolist() == [h for h, _ in draws]
        assert noise.tolist() == [z for _, z in draws]
        assert batched._rng.bit_generator.state == (
            single._rng.bit_generator.state
        )
        assert batched._rng_cache.bit_generator.state == (
            single._rng_cache.bit_generator.state
        )
