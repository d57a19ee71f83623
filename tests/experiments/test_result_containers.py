"""Error-path and accessor tests for the experiment result containers."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.fig6_adaptation import Fig6Result
from repro.experiments.harness import PolicyRunResult
from repro.experiments.table4_overhead import Table4Result


class TestPolicyRunResult:
    def test_accessors(self):
        result = PolicyRunResult(
            "x",
            throughput_gbps=[1.0, 3.0],
            movements=[(10, 4), (20, 2)],
        )
        assert result.mean_throughput == pytest.approx(2.0)
        assert result.std_throughput == pytest.approx(1.0)
        assert result.total_files_moved == 6
        assert result.access_count == 2

    def test_empty_raises(self):
        empty = PolicyRunResult("x")
        with pytest.raises(ExperimentError):
            _ = empty.mean_throughput
        with pytest.raises(ExperimentError):
            _ = empty.std_throughput


class TestTable4Result:
    def make(self):
        return Table4Result(
            mounts={
                "fast": PolicyRunResult("a", throughput_gbps=[4.0]),
                "slow": PolicyRunResult("b", throughput_gbps=[1.0]),
            },
            geomancy=PolicyRunResult(
                "geo",
                throughput_gbps=[3.0],
                usage_percent={"fast": 80.0, "slow": 20.0},
            ),
        )

    def test_fastest_mount(self):
        assert self.make().fastest_mount() == "fast"

    def test_mount_mean_and_errors(self):
        result = self.make()
        assert result.mount_mean("slow") == pytest.approx(1.0)
        with pytest.raises(ExperimentError):
            result.mount_mean("ghost")

    def test_usage_copy_is_independent(self):
        result = self.make()
        usage = result.geomancy_usage()
        usage["fast"] = 0.0
        assert result.geomancy.usage_percent["fast"] == 80.0

    def test_to_text_has_geomancy_row(self):
        text = self.make().to_text()
        assert "Geomancy" in text and "100" in text


class TestFig6Result:
    def test_ratios_need_both_sides(self):
        empty_before = Fig6Result(
            tuned_gbps=[1.0] * 5, competing_gbps=[], disturbance_access=0
        )
        with pytest.raises(ExperimentError):
            empty_before.dip_ratio()
        empty_after = Fig6Result(
            tuned_gbps=[1.0] * 5, competing_gbps=[], disturbance_access=5
        )
        with pytest.raises(ExperimentError):
            empty_after.recovery_ratio()

    def test_dip_and_recovery_math(self):
        # before: 2.0; right after: 1.0; tail: 1.8.
        result = Fig6Result(
            tuned_gbps=[2.0] * 10 + [1.0] * 7 + [1.8] * 3,
            competing_gbps=[0.5] * 10,
            disturbance_access=10,
        )
        assert result.dip_ratio() == pytest.approx(0.5)
        assert result.recovery_ratio() == pytest.approx(0.9)

    def test_before_after_split(self):
        result = Fig6Result(
            tuned_gbps=[1.0, 2.0, 3.0, 4.0], disturbance_access=2
        )
        assert list(result.tuned_before()) == [1.0, 2.0]
        assert list(result.tuned_after()) == [3.0, 4.0]
