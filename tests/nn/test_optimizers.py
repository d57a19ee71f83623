"""Unit tests for SGD and Adam optimizers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelError
from repro.nn import optimizers
from repro.nn.optimizers import SGD, Adam, get_optimizer


def quadratic_descent(opt, start, steps=200):
    """Minimize f(x) = x^2 elementwise; gradient is 2x."""
    x = np.array(start, dtype=np.float64)
    for _ in range(steps):
        opt.apply("x", x, 2.0 * x)
    return x


class TestSGD:
    def test_plain_step(self):
        x = np.array([1.0])
        SGD(learning_rate=0.1).apply("x", x, np.array([2.0]))
        assert x[0] == pytest.approx(0.8)

    def test_converges_on_quadratic(self):
        x = quadratic_descent(SGD(learning_rate=0.1), [3.0, -2.0])
        np.testing.assert_allclose(x, 0.0, atol=1e-8)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ConfigurationError):
            SGD(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            SGD(learning_rate=-1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ModelError):
            SGD().apply("x", np.ones(3), np.ones(4))


class TestAdam:
    def test_converges_on_quadratic(self):
        x = quadratic_descent(Adam(learning_rate=0.1), [3.0, -2.0], steps=500)
        np.testing.assert_allclose(x, 0.0, atol=1e-4)

    def test_first_step_magnitude_close_to_lr(self):
        # Adam's bias-corrected first step has magnitude ~learning_rate.
        opt = Adam(learning_rate=0.01)
        x = np.array([1.0])
        opt.apply("x", x, np.array([123.0]))
        assert x[0] == pytest.approx(1.0 - 0.01, rel=1e-4)

    def test_state_is_per_key(self):
        opt = Adam()
        a, b = np.array([1.0]), np.array([5.0])
        opt.apply("a", a, np.array([1.0]))
        opt.apply("b", b, np.array([1.0]))
        assert opt._t == {"a": 1, "b": 1}

    def test_invalid_betas(self):
        assert 0.0 <= optimizers.ADAM_BETA1 < 1.0
        assert 0.0 <= optimizers.ADAM_BETA2 < 1.0


class TestRegistry:
    def test_lookup_with_kwargs(self):
        opt = get_optimizer("sgd", learning_rate=0.5)
        assert isinstance(opt, SGD)
        assert opt.learning_rate == 0.5

    def test_instance_passthrough(self):
        opt = Adam()
        assert get_optimizer(opt) is opt

    def test_unknown_raises(self):
        with pytest.raises(ModelError, match="unknown optimizer"):
            get_optimizer("rmsprop")
