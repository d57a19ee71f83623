"""Tests for min-max normalization and categorical encoding."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import FeatureError
from repro.features.normalize import MinMaxNormalizer
from tests.oracles.minmax import masked_inverse_transform, masked_transform

FINITE = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)


class TestMinMaxNormalizer:
    def test_maps_to_unit_interval(self):
        x = np.array([[1.0, 10.0], [3.0, 20.0], [5.0, 30.0]])
        out = MinMaxNormalizer().fit(x).transform(x)
        np.testing.assert_allclose(out.min(axis=0), 0.0)
        np.testing.assert_allclose(out.max(axis=0), 1.0)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.random((40, 3)) * 100 - 50
        norm = MinMaxNormalizer().fit(x)
        np.testing.assert_allclose(norm.inverse_transform(norm.transform(x)), x)

    @given(arrays(np.float64, (10, 2), elements=FINITE))
    def test_round_trip_property(self, x):
        norm = MinMaxNormalizer().fit(x)
        back = norm.inverse_transform(norm.transform(x))
        np.testing.assert_allclose(back, x, rtol=1e-9, atol=1e-6)

    def test_constant_column_maps_to_half(self):
        x = np.array([[5.0, 1.0], [5.0, 2.0]])
        out = MinMaxNormalizer().fit(x).transform(x)
        np.testing.assert_allclose(out[:, 0], 0.5)

    def test_constant_column_inverse_restores_value(self):
        x = np.array([[5.0], [5.0]])
        norm = MinMaxNormalizer().fit(x)
        np.testing.assert_allclose(
            norm.inverse_transform(norm.transform(x)), x
        )

    def test_out_of_range_extrapolates(self):
        norm = MinMaxNormalizer().fit(np.array([[0.0], [10.0]]))
        out = norm.transform(np.array([[20.0]]))
        assert out[0, 0] == pytest.approx(2.0)

    def test_1d_input_treated_as_column(self):
        norm = MinMaxNormalizer().fit(np.array([0.0, 2.0, 4.0]))
        out = norm.transform(np.array([1.0]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(0.25)

    def test_use_before_fit_raises(self):
        with pytest.raises(FeatureError, match="before fit"):
            MinMaxNormalizer().transform(np.ones((2, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(FeatureError):
            MinMaxNormalizer().fit(np.empty((0, 3)))

    def test_column_count_mismatch_raises(self):
        norm = MinMaxNormalizer().fit(np.ones((3, 2)))
        with pytest.raises(FeatureError):
            norm.transform(np.ones((3, 4)))

    def test_rank_3_rejected(self):
        with pytest.raises(FeatureError):
            MinMaxNormalizer().fit(np.ones((2, 2, 2)))


class TestMaskComputedOnce:
    """Whole-array arithmetic when no column is constant: same bits."""

    @staticmethod
    def bounds(norm):
        lo, hi = (np.array(norm.state_dict()[key]) for key in ("min", "max"))
        return lo, hi - lo

    @pytest.mark.parametrize("constant_column", [False, True])
    def test_matches_the_masked_transform(self, constant_column):
        rng = np.random.default_rng(4)
        fit_on = rng.random((50, 5)) * [1.0, 1e6, 1e-3, 7.0, 1.0]
        if constant_column:
            fit_on[:, 3] = 42.0
        norm = MinMaxNormalizer().fit(fit_on)
        lo, span = self.bounds(norm)
        # rows far beyond the fitted bounds extrapolate, on both sides
        probe = np.concatenate((fit_on, fit_on * 3.0 - 1.0))
        got = norm.transform(probe)
        assert np.array_equal(got, masked_transform(probe, lo, span))
        assert got.min() < 0.0 and got.max() > 1.0
        assert np.array_equal(
            norm.inverse_transform(got),
            masked_inverse_transform(got, lo, span),
        )
        if constant_column:
            assert set(got[:, 3]) == {0.5}

    def test_one_dimensional_target(self):
        y = np.random.default_rng(5).random(40) * 1e9
        norm = MinMaxNormalizer().fit(y)
        lo, span = self.bounds(norm)
        got = norm.transform(y * 1.5)
        assert got.shape == (40, 1)
        assert np.array_equal(got, masked_transform((y * 1.5)[:, None], lo, span))
        assert np.array_equal(
            norm.inverse_transform(got.ravel()),
            masked_inverse_transform(got, lo, span),
        )

    def test_all_constant_target(self):
        norm = MinMaxNormalizer().fit(np.full(6, 3.0))
        assert set(norm.transform(np.arange(4.0)).ravel()) == {0.5}
        assert set(norm.inverse_transform(np.arange(4.0)).ravel()) == {3.0}

    def test_restored_state_rebuilds_the_mask(self):
        data = np.random.default_rng(6).random((20, 3))
        data[:, 1] = -2.0
        fitted = MinMaxNormalizer().fit(data)
        restored = MinMaxNormalizer()
        restored.load_state_dict(fitted.state_dict())
        assert np.array_equal(
            restored.transform(data * 2.0), fitted.transform(data * 2.0)
        )
        assert set(restored.transform(data)[:, 1]) == {0.5}
        blank = MinMaxNormalizer()
        blank.load_state_dict(MinMaxNormalizer().state_dict())
        assert not blank.fitted
