"""Tests for Pearson correlation and feature selection (Fig. 4 machinery)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import FeatureError
from repro.features import correlation
from repro.features.correlation import (
    feature_correlations,
    pearson,
    select_features,
)

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 3 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson(x, -2 * x) == pytest.approx(-1.0)

    def test_constant_input_is_zero(self):
        assert pearson(np.ones(10), np.arange(10.0)) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        x, y = rng.random(50), rng.random(50)
        assert pearson(x, y) == pytest.approx(pearson(y, x))

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(1)
        x, y = rng.random(100), rng.random(100)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    def test_length_mismatch_raises(self):
        with pytest.raises(FeatureError):
            pearson(np.ones(3), np.ones(4))

    def test_too_few_samples_raises(self):
        with pytest.raises(FeatureError):
            pearson(np.array([1.0]), np.array([2.0]))

    @given(arrays(np.float64, (20,), elements=FINITE))
    def test_bounded_in_unit_interval(self, x):
        rng = np.random.default_rng(0)
        y = rng.random(20)
        assert -1.0 <= pearson(x, y) <= 1.0


class TestFeatureCorrelations:
    @pytest.fixture
    def table_and_target(self):
        rng = np.random.default_rng(2)
        target = rng.random(500) * 10
        table = {
            "pos": target * 2 + rng.normal(0, 0.5, 500),
            "neg": -target + rng.normal(0, 0.5, 500),
            "noise": rng.random(500),
        }
        return table, target

    def test_signs_recovered(self, table_and_target):
        table, target = table_and_target
        report = feature_correlations(table, target)
        assert report.sign_of("pos") == 1
        assert report.sign_of("neg") == -1
        assert report.sign_of("noise") == 0

    def test_sorted_items_descending(self, table_and_target):
        table, target = table_and_target
        report = feature_correlations(table, target)
        values = [v for _, v in report.sorted_items()]
        assert values == sorted(values, reverse=True)

    def test_unknown_field_sign_raises(self, table_and_target):
        table, target = table_and_target
        report = feature_correlations(table, target)
        with pytest.raises(FeatureError):
            report.sign_of("missing")

    def test_empty_table_raises(self):
        with pytest.raises(FeatureError):
            feature_correlations({}, np.arange(10.0))


class TestSelectFeatures:
    @pytest.fixture
    def report(self):
        rng = np.random.default_rng(3)
        target = rng.random(400)
        table = {
            "rb": target + rng.normal(0, 0.1, 400),
            "wb": target + rng.normal(0, 0.2, 400),
            "rt": -target + rng.normal(0, 0.05, 400),
            "fid": rng.random(400),
        }
        return feature_correlations(table, target)

    def test_required_always_included(self, report):
        chosen = select_features(report, required=("fid",), max_features=2)
        assert chosen[0] == "fid"

    def test_negative_features_excluded_by_default(self, report):
        chosen = select_features(report)
        assert "rt" not in chosen

    def test_negative_features_kept_when_asked(self, report, monkeypatch):
        monkeypatch.setattr(correlation, "EXCLUDE_NEGATIVE", False)
        chosen = select_features(report)
        assert "rt" in chosen

    def test_max_features_respected(self, report):
        chosen = select_features(report, max_features=2)
        assert len(chosen) == 2

    def test_missing_required_raises(self, report):
        with pytest.raises(FeatureError):
            select_features(report, required=("nope",))

    def test_chosen_recorded_on_report(self, report):
        chosen = select_features(report, max_features=3)
        assert report.chosen == chosen
