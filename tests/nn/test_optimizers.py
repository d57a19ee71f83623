"""The one optimizer: plain SGD, as ``Sequential.fit`` steps it.

The paper kept "standard gradient descent" after finding Adam's error
higher, so ``fit`` has no optimizer to choose: each step is
``theta -= learning_rate * grad`` over the model's flat parameter vector.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.layers import Dense
from repro.nn.network import BATCH_SIZE, Sequential


def linear_model(seed=0):
    return Sequential([Dense(1, "linear")], seed=seed)


def linear_data(rows, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((rows, 3))
    return x, x @ np.array([0.5, -1.0, 2.0]) + 0.25


class TestSGD:
    def test_plain_step(self):
        # one batch, one epoch: exactly one step
        x, y = linear_data(BATCH_SIZE)
        model = linear_model()
        model.build(3)
        before = model._theta.copy()
        model.fit(x, y, epochs=1, learning_rate=0.1)
        assert np.array_equal(model._theta, before - 0.1 * model._grad)

    def test_converges_on_quadratic(self):
        # A linear model's squared error is a quadratic in its weights.
        x, y = linear_data(4 * BATCH_SIZE)
        model = linear_model()
        history = model.fit(x, y, epochs=400, learning_rate=0.2)
        assert history.train_loss[-1] < 1e-6
        np.testing.assert_allclose(
            model.layers[0].params["W"].ravel(), [0.5, -1.0, 2.0], atol=1e-3
        )

    def test_invalid_hyperparameters(self):
        x, y = linear_data(8)
        for learning_rate in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="learning_rate"):
                linear_model().fit(x, y, epochs=1, learning_rate=learning_rate)
