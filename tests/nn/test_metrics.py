"""Unit tests for the paper's evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ShapeError
from repro.nn.metrics import (
    absolute_relative_error,
    is_diverged,
    mean_absolute_relative_error,
    signed_relative_error,
)

POSITIVE = st.floats(0.1, 100, allow_nan=False, allow_infinity=False)


class TestAbsoluteRelativeError:
    def test_perfect_prediction_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(absolute_relative_error(y, y), 0.0)

    def test_known_values(self):
        pred = np.array([1.1, 1.8])
        true = np.array([1.0, 2.0])
        np.testing.assert_allclose(
            absolute_relative_error(pred, true), [0.1, 0.1], rtol=1e-10
        )

    def test_zero_target_guarded(self):
        err = absolute_relative_error(np.array([1.0]), np.array([0.0]))
        assert np.isfinite(err).all()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            absolute_relative_error(np.ones(3), np.ones(4))


class TestMARE:
    def test_returns_percent(self):
        pred = np.array([1.1, 1.1])
        true = np.array([1.0, 1.0])
        mean, std = mean_absolute_relative_error(pred, true)
        assert mean == pytest.approx(10.0)
        assert std == pytest.approx(0.0, abs=1e-9)

    @given(
        arrays(np.float64, (8,), elements=POSITIVE),
        arrays(np.float64, (8,), elements=POSITIVE),
    )
    def test_mean_and_std_nonnegative(self, pred, true):
        mean, std = mean_absolute_relative_error(pred, true)
        assert mean >= 0.0 and std >= 0.0


class TestSignedRelativeError:
    def test_positive_when_underpredicting(self):
        # Paper V-G: positive sign => model under-predicts on average.
        assert signed_relative_error(np.array([0.5]), np.array([1.0])) > 0

    def test_negative_when_overpredicting(self):
        assert signed_relative_error(np.array([2.0]), np.array([1.0])) < 0


class TestIsDiverged:
    def test_constant_predictions_diverged(self):
        pred = np.full(100, 3.0)
        true = np.linspace(0, 10, 100)
        assert is_diverged(pred, true)

    def test_tracking_predictions_not_diverged(self):
        true = np.linspace(0, 10, 100)
        assert not is_diverged(true + 0.1, true)

    def test_nan_predictions_diverged(self):
        true = np.linspace(0, 10, 10)
        pred = true.copy()
        pred[3] = np.nan
        assert is_diverged(pred, true)

    def test_inf_predictions_diverged(self):
        true = np.linspace(0, 10, 10)
        pred = true.copy()
        pred[0] = np.inf
        assert is_diverged(pred, true)

    def test_constant_target_not_diverged(self):
        # If the target itself is constant, constant predictions are fine.
        assert not is_diverged(np.full(10, 5.0), np.full(10, 5.0))
