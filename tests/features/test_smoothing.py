"""Tests for the trailing moving average."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import FeatureError
from repro.features.smoothing import moving_average

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestMovingAverage:
    def test_window_one_is_identity(self):
        x = np.array([1.0, 5.0, 2.0])
        np.testing.assert_array_equal(moving_average(x, 1), x)

    def test_known_values(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(
            moving_average(x, 2), [1.0, 1.5, 2.5, 3.5]
        )

    def test_prefix_uses_growing_window(self):
        x = np.array([2.0, 4.0, 6.0, 8.0, 10.0])
        out = moving_average(x, 3)
        assert out[0] == pytest.approx(2.0)
        assert out[1] == pytest.approx(3.0)
        assert out[2] == pytest.approx(4.0)

    def test_length_preserved(self):
        x = np.arange(17.0)
        assert moving_average(x, 5).shape == x.shape

    def test_window_larger_than_data(self):
        x = np.array([1.0, 3.0])
        np.testing.assert_allclose(moving_average(x, 10), [1.0, 2.0])

    def test_constant_signal_unchanged(self):
        x = np.full(20, 7.0)
        np.testing.assert_allclose(moving_average(x, 6), x)

    def test_empty_input(self):
        assert moving_average(np.array([]), 3).size == 0

    def test_invalid_window(self):
        with pytest.raises(FeatureError):
            moving_average(np.ones(5), 0)

    @given(arrays(np.float64, (30,), elements=FINITE), st.integers(1, 10))
    def test_output_within_input_range(self, x, window):
        out = moving_average(x, window)
        tol = 1e-9 * max(1.0, float(np.abs(x).max()))
        assert out.min() >= x.min() - tol
        assert out.max() <= x.max() + tol

    @given(st.integers(0, 100), st.integers(2, 8))
    def test_reduces_variance_of_noise(self, seed, window):
        # For i.i.d. noise the trailing moving average shrinks variance
        # (that is its job per section V-E).  This does not hold for every
        # adversarial signal -- the growing prefix windows can widen spread
        # on near-constant inputs -- so the property is stated over noise.
        x = np.random.default_rng(seed).standard_normal(200)
        out = moving_average(x, window)
        assert np.var(out) < np.var(x)
