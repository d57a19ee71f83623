"""Tests for the multi-tenant arrival-process generator."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.tenants import TenantMix, TenantSpec

def spec(name="a", rate=640.0, **kw):
    return TenantSpec(name=name, rate_records_s=rate, **kw)


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TenantSpec(name="", rate_records_s=1.0)
        with pytest.raises(ConfigurationError):
            TenantSpec(name="a", rate_records_s=0.0)
        with pytest.raises(ConfigurationError):
            TenantSpec(name="a", rate_records_s=1.0, pattern="square-wave")
        with pytest.raises(ConfigurationError):
            TenantSpec(name="a", rate_records_s=1.0, duty_cycle=0.0)


class TestTenantMix:
    def test_needs_tenants_and_unique_names(self):
        with pytest.raises(ConfigurationError):
            TenantMix([])
        with pytest.raises(ConfigurationError):
            TenantMix([spec("a"), spec("a")])

    def test_deterministic_in_seed(self):
        a = TenantMix([spec("x"), spec("y", pattern="bursty")], seed=5)
        b = TenantMix([spec("x"), spec("y", pattern="bursty")], seed=5)
        c = TenantMix([spec("x"), spec("y", pattern="bursty")], seed=6)
        batches_a = [batch for s in range(20) for batch in a.batches(s)]
        batches_b = [batch for s in range(20) for batch in b.batches(s)]
        batches_c = [batch for s in range(20) for batch in c.batches(s)]
        assert batches_a == batches_b
        assert batches_a != batches_c

    def test_batches_carry_tenant_and_single_device(self):
        mix = TenantMix([spec("belle2", rate=2000.0)], seed=0)
        offered = [b for s in range(10) for b in mix.batches(s)]
        assert offered
        assert all(b.tenant == "belle2" for b in offered)
        assert all(b.device == "belle2-dev" for b in offered)

    def test_mean_rate_approximates_spec(self):
        mix = TenantMix([spec("a", rate=3200.0)], seed=1, slot_s=0.05)
        slots = 400  # 20 simulated seconds
        for s in range(slots):
            mix.batches(s)
        offered_rate = mix.offered_records / (slots * mix.slot_s)
        assert offered_rate == pytest.approx(3200.0, rel=0.15)

    def test_bursty_concentrates_but_preserves_mean(self):
        smooth = TenantMix([spec("a", rate=3200.0)], seed=2, slot_s=0.05)
        bursty = TenantMix(
            [spec("a", rate=3200.0, pattern="bursty", duty_cycle=0.25)],
            seed=2, slot_s=0.05,
        )
        slots = 400
        smooth_counts = [
            sum(len(b.records) for b in smooth.batches(s))
            for s in range(slots)
        ]
        bursty_counts = [
            sum(len(b.records) for b in bursty.batches(s))
            for s in range(slots)
        ]
        assert sum(bursty_counts) == pytest.approx(
            sum(smooth_counts), rel=0.2
        )
        # Off-window slots are silent; peak slots far exceed the mean.
        assert bursty_counts.count(0) > smooth_counts.count(0)
        assert max(bursty_counts) > 2 * max(1, sum(bursty_counts) // slots)

    def test_timestamps_inside_slot_and_sorted(self):
        mix = TenantMix([spec("a", rate=6400.0), spec("b")], seed=3)
        for s in range(5):
            offered = mix.batches(s)
            times = [b.sent_at for b in offered]
            assert times == sorted(times)
            assert all(
                s * mix.slot_s <= t < (s + 1) * mix.slot_s for t in times
            )

    def test_negative_slot_rejected(self):
        with pytest.raises(ConfigurationError):
            TenantMix([spec()]).batches(-1)
