"""Unit tests for the Dense layer, including numerical gradient checks."""

import numpy as np
import pytest

from repro.errors import ModelError, ShapeError
from repro.nn.layers import Dense
from tests.nn.gradcheck import assert_grads_close


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def make_dense(units, activation, input_dim, rng):
    layer = Dense(units, activation=activation)
    layer.build(input_dim, rng)
    return layer


class TestDenseForward:
    def test_output_shape(self, rng):
        layer = make_dense(5, "relu", 3, rng)
        out = layer.forward(np.ones((4, 3)))
        assert out.shape == (4, 5)

    def test_linear_layer_computes_affine_map(self, rng):
        layer = make_dense(2, "linear", 3, rng)
        layer.params["W"] = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        layer.params["b"] = np.array([0.5, -0.5])
        out = layer.forward(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[4.5, 4.5]])

    def test_relu_output_nonnegative(self, rng):
        layer = make_dense(8, "relu", 4, rng)
        out = layer.forward(rng.standard_normal((32, 4)))
        assert np.all(out >= 0.0)

    def test_rejects_wrong_feature_count(self, rng):
        layer = make_dense(2, "linear", 3, rng)
        with pytest.raises(ShapeError):
            layer.forward(np.ones((4, 5)))

    def test_rejects_rank_3_input(self, rng):
        layer = make_dense(2, "linear", 3, rng)
        with pytest.raises(ShapeError):
            layer.forward(np.ones((4, 2, 3)))

    def test_forward_before_build_raises(self):
        with pytest.raises(ModelError, match="before build"):
            Dense(2).forward(np.ones((1, 3)))


class TestDenseBackward:
    @pytest.mark.parametrize("activation", ["linear", "relu", "sigmoid", "tanh"])
    def test_gradients_match_numerical(self, activation, rng):
        layer = make_dense(4, activation, 3, rng)
        x = rng.standard_normal((6, 3))
        target = rng.standard_normal((6, 4))
        assert_grads_close(layer, x, target)



class TestDenseMisc:
    def test_parameter_count(self, rng):
        layer = make_dense(5, "relu", 3, rng)
        assert layer.parameter_count() == 3 * 5 + 5

    def test_invalid_units_rejected(self):
        with pytest.raises(ShapeError):
            Dense(0)

    def test_invalid_input_dim_rejected(self, rng):
        with pytest.raises(ShapeError):
            Dense(3).build(0, rng)

    def test_zero_grads_matches_param_shapes(self, rng):
        layer = make_dense(5, "relu", 3, rng)
        layer.zero_grads()
        for name, p in layer.params.items():
            assert layer.grads[name].shape == p.shape
            assert not layer.grads[name].any()
