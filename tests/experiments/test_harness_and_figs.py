"""Tests for the policy harness and the Fig. 5 / Table IV / Fig. 6 runs.

These exercise mechanics at TEST_SCALE -- performance *shape* claims
(who wins and by how much) are asserted in the benchmark harness, which
runs at a scale where the model has actually learned something.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments.fig5_comparison import (
    Fig5Result,
    collect_random_dynamic_telemetry,
    run_fig5a,
    run_fig5b,
)
from repro.experiments.fig6_adaptation import run_fig6
from repro.experiments.harness import (
    PolicyRunResult,
    make_experiment_config,
    run_policy_experiment,
)
from repro.experiments.spec import TEST_SCALE, ExperimentScale
from repro.experiments import table4_overhead
from repro.experiments.table4_overhead import run_table4
from repro.policies.lfu import LFUPolicy
from repro.policies.static import EvenSpreadPolicy, SingleMountPolicy

TINY = ExperimentScale(
    name="tiny", warmup_accesses=150, runs=6, update_every=3,
    training_rows=150, epochs=3, trace_rows=1000,
)


class TestHarness:
    def test_static_policy_measured(self):
        result = run_policy_experiment(
            EvenSpreadPolicy(), scale=TINY, seed=0
        )
        assert result.policy_name == "even spread"
        assert result.access_count > 100
        assert result.mean_throughput > 0
        assert result.movements == []

    def test_dynamic_policy_moves_files(self):
        result = run_policy_experiment(LFUPolicy(), scale=TINY, seed=0)
        assert result.total_files_moved > 0

    def test_usage_percent_sums_to_100(self):
        result = run_policy_experiment(
            SingleMountPolicy("file0"), scale=TINY, seed=0
        )
        assert sum(result.usage_percent.values()) == pytest.approx(100.0)
        assert result.usage_percent["file0"] == pytest.approx(100.0)

    def test_device_throughput_reported(self):
        result = run_policy_experiment(
            SingleMountPolicy("var"), scale=TINY, seed=0
        )
        mean, std = result.device_throughput["var"]
        assert mean > 0 and std >= 0

    def test_same_seed_same_environment(self):
        a = run_policy_experiment(EvenSpreadPolicy(), scale=TINY, seed=5)
        b = run_policy_experiment(EvenSpreadPolicy(), scale=TINY, seed=5)
        assert a.throughput_gbps == b.throughput_gbps

    def test_empty_result_raises(self):
        result = PolicyRunResult(policy_name="x")
        with pytest.raises(ExperimentError):
            _ = result.mean_throughput

    def test_make_experiment_config(self):
        config = make_experiment_config(TEST_SCALE, seed=3)
        assert config.training_rows == TEST_SCALE.training_rows
        assert config.epochs == TEST_SCALE.epochs
        assert config.cooldown_runs == TEST_SCALE.update_every
        assert config.seed == 3

    def test_config_overrides(self):
        config = make_experiment_config(TEST_SCALE, epochs=99)
        assert config.epochs == 99


class TestFig5:
    @pytest.fixture(scope="class")
    def fig5a(self):
        (panel,) = run_fig5a(scale=TINY, seeds=(0,), workers=1).panels
        return panel

    def test_all_dynamic_policies_present(self, fig5a):
        assert set(fig5a.results) == {
            "LRU", "MRU", "LFU", "random dynamic", "Geomancy dynamic",
        }

    def test_gain_computation(self, fig5a):
        gain = fig5a.gain_percent("LRU")
        expected = (
            fig5a.mean("Geomancy dynamic") - fig5a.mean("LRU")
        ) / fig5a.mean("LRU") * 100
        assert gain == pytest.approx(expected)

    def test_best_baseline_excludes_geomancy(self, fig5a):
        assert fig5a.best_baseline() != "Geomancy dynamic"

    def test_unknown_policy_raises(self, fig5a):
        with pytest.raises(ExperimentError):
            fig5a.mean("nope")

    def test_text_rendering(self, fig5a):
        text = fig5a.to_text()
        assert "Geomancy dynamic" in text

    def test_fig5b_static_policies(self):
        result = run_fig5b(scale=TINY, seed=0)
        assert set(result.results) == {
            "random static", "even spread", "Geomancy static",
            "Geomancy dynamic",
        }

    def test_random_dynamic_telemetry_collector(self):
        db = collect_random_dynamic_telemetry(scale=TINY, seed=0)
        assert db.access_count() >= TINY.warmup_accesses

    def test_empty_result_container(self):
        empty = Fig5Result(results={})
        with pytest.raises(ExperimentError):
            empty.best_baseline()


class TestTable4:
    @pytest.fixture(scope="class")
    def table4(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                table4_overhead, "BLUESKY_DEVICE_NAMES", ("USBtmp", "file0")
            )
            return run_table4(scale=TINY, seed=0)

    def test_requested_mounts_measured(self, table4):
        assert set(table4.mounts) == {"USBtmp", "file0"}

    def test_file0_faster_than_usbtmp(self, table4):
        assert table4.mount_mean("file0") > table4.mount_mean("USBtmp")
        assert table4.fastest_mount() == "file0"

    def test_geomancy_usage_spans_devices(self, table4):
        usage = table4.geomancy_usage()
        assert sum(usage.values()) == pytest.approx(100.0)

    def test_unknown_mount_raises(self, table4):
        with pytest.raises(ExperimentError):
            table4.mount_mean("ghost")

    def test_text_rendering(self, table4):
        text = table4.to_text()
        assert "Table IV" in text and "Geomancy" in text


class TestFig6:
    @pytest.fixture(scope="class")
    def fig6(self):
        return run_fig6(scale=TINY, seed=0, online=False)

    def test_series_collected_on_both_sides(self, fig6):
        assert fig6.disturbance_access > 0
        assert len(fig6.tuned_gbps) > fig6.disturbance_access
        assert len(fig6.competing_gbps) > 0

    def test_ratios_computable(self, fig6):
        assert fig6.dip_ratio() > 0
        assert fig6.recovery_ratio() > 0

    def test_text_rendering(self, fig6):
        text = fig6.to_text()
        assert "Fig. 6" in text and "dip ratio" in text
