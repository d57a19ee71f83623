"""Tests for the chaos experiment: resilience end to end, deterministically."""

from dataclasses import replace

import pytest

from repro.errors import ExperimentError
from repro.experiments.facade import run_chaos
from repro.experiments.spec import ExperimentScale

TINY = ExperimentScale(
    name="tiny",
    warmup_accesses=80,
    runs=8,
    update_every=4,
    training_rows=60,
    epochs=2,
    trace_rows=100,
)


@pytest.fixture(scope="module")
def chaos_result():
    return run_chaos(
        scale=TINY,
        seed=7,
        schedule_specs=("kill:file0@30%", "kill:pic@55%"),
        migration_failure_rate=0.05,
    )


class TestChaosRun:
    def test_completes_with_both_outages_applied(self, chaos_result):
        outages = chaos_result.chaos.injector.outage_log
        assert [d for _, d in outages] == ["file0", "pic"]

    def test_no_file_lost_or_duplicated(self, chaos_result):
        assert chaos_result.chaos.invariant_violations == []

    def test_throughput_is_measured_in_both_phases(self, chaos_result):
        assert chaos_result.baseline.mean_gbps > 0
        assert chaos_result.chaos.mean_gbps > 0
        assert chaos_result.throughput_retention_percent > 0

    def test_report_renders(self, chaos_result):
        text = chaos_result.to_text()
        assert "throughput retention" in text
        assert "file0" in text

    def test_deterministic_under_a_fixed_seed(self, chaos_result):
        again = run_chaos(
            scale=TINY,
            seed=7,
            schedule_specs=("kill:file0@30%", "kill:pic@55%"),
            migration_failure_rate=0.05,
        )
        assert again.movement_fingerprint() \
            == chaos_result.movement_fingerprint()
        assert again.chaos.mean_gbps == chaos_result.chaos.mean_gbps
        assert again.chaos.injector.outage_log \
            == chaos_result.chaos.injector.outage_log
        assert again.to_text() == chaos_result.to_text()


class TestChaosResult:
    def test_retention_requires_positive_baseline(self, chaos_result):
        stalled = replace(
            chaos_result, baseline=replace(chaos_result.baseline, mean_gbps=0.0)
        )
        with pytest.raises(ExperimentError):
            stalled.throughput_retention_percent

    def test_recovery_time_is_none_without_recoveries(self):
        result = run_chaos(
            scale=TINY, seed=7, schedule_specs=(), migration_failure_rate=0.0,
        )
        assert result.chaos.injector.outage_log == []
        assert result.recovery_time_s is None
        assert "n/a" in result.to_text()
