"""Unit tests for the training loss."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ShapeError
from repro.nn.losses import MeanSquaredError

FINITE = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


def value(pred, true):
    return MeanSquaredError().value_and_gradient(pred, true)[0]


class TestMSE:
    def test_zero_for_perfect_prediction(self):
        y = np.array([[1.0], [2.0]])
        assert value(y, y) == 0.0

    def test_known_value(self):
        pred = np.array([[2.0], [4.0]])
        true = np.array([[1.0], [2.0]])
        assert value(pred, true) == pytest.approx(2.5)

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        pred = rng.standard_normal((4, 2))
        true = rng.standard_normal((4, 2))
        _, grad = MeanSquaredError().value_and_gradient(pred, true)
        eps = 1e-6
        for idx in np.ndindex(pred.shape):
            p = pred.copy()
            p[idx] += eps
            hi = value(p, true)
            p[idx] -= 2 * eps
            lo = value(p, true)
            assert grad[idx] == pytest.approx((hi - lo) / (2 * eps), rel=1e-4)

    @given(
        arrays(np.float64, (5, 1), elements=FINITE),
        arrays(np.float64, (5, 1), elements=FINITE),
    )
    def test_nonnegative(self, pred, true):
        assert value(pred, true) >= 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            value(np.ones((2, 1)), np.ones((3, 1)))
