"""Unit and integration tests for the Sequential container."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelError, ShapeError
from repro.nn import network
from repro.nn.layers import Dense
from repro.nn.network import Sequential, train_val_test_split
from repro.nn.recurrent import SimpleRNN


@pytest.fixture
def linear_data():
    rng = np.random.default_rng(3)
    x = rng.random((300, 4))
    w = np.array([1.0, -2.0, 0.5, 3.0])
    y = x @ w + 0.7
    return x, y[:, None]


class TestConstruction:
    def test_empty_layer_list_rejected(self):
        with pytest.raises(ModelError):
            Sequential([])

    def test_build_chains_dimensions(self):
        net = Sequential([Dense(8, "relu"), Dense(1, "linear")], seed=0)
        net.build(4)
        assert net.layers[0].params["W"].shape == (4, 8)
        assert net.layers[1].params["W"].shape == (8, 1)

    def test_build_is_idempotent(self):
        net = Sequential([Dense(2)], seed=0)
        net.build(3)
        w = net.layers[0].params["W"]
        net.build(3)
        assert net.layers[0].params["W"] is w

    def test_parameter_count(self):
        net = Sequential([Dense(8, "relu"), Dense(1, "linear")], seed=0)
        net.build(4)
        assert net.parameter_count() == (4 * 8 + 8) + (8 * 1 + 1)

    def test_same_seed_same_weights(self):
        a = Sequential([Dense(4), Dense(1)], seed=9)
        b = Sequential([Dense(4), Dense(1)], seed=9)
        a.build(3)
        b.build(3)
        np.testing.assert_array_equal(
            a.layers[0].params["W"], b.layers[0].params["W"]
        )


class TestFit:
    def test_learns_linear_function(self, linear_data):
        x, y = linear_data
        net = Sequential([Dense(16, "relu"), Dense(1, "linear")], seed=1)
        history = net.fit(x, y, epochs=150)
        assert history.train_loss[-1] < 0.05
        assert history.epochs_run == 150
        assert not history.diverged

    def test_loss_decreases(self, linear_data):
        x, y = linear_data
        net = Sequential([Dense(8, "relu"), Dense(1, "linear")], seed=1)
        history = net.fit(x, y, epochs=50)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_divergence_flagged_and_stopped(self, linear_data):
        x, y = linear_data
        net = Sequential([Dense(8, "relu"), Dense(1, "linear")], seed=1)
        # An absurd learning rate makes MSE explode to inf/NaN.
        history = net.fit(x, y * 1e6, epochs=50, learning_rate=1e9)
        assert history.diverged
        assert history.epochs_run < 50

    def test_1d_targets_accepted(self, linear_data):
        x, y = linear_data
        net = Sequential([Dense(1, "linear")], seed=1)
        history = net.fit(x, y.ravel(), epochs=2)
        assert history.epochs_run == 2

    def test_mismatched_lengths_rejected(self, linear_data):
        x, y = linear_data
        net = Sequential([Dense(1)], seed=1)
        with pytest.raises(ShapeError):
            net.fit(x, y[:10], epochs=1)

    @pytest.mark.parametrize("val_rows", [(0, 0), (10, 9)])
    def test_unusable_validation_rejected(self, linear_data, val_rows):
        x, y = linear_data
        net = Sequential([Dense(1)], seed=1)
        with pytest.raises(ShapeError):
            net.fit(
                x, y, epochs=1,
                validation=(x[: val_rows[0]], y[: val_rows[1]]),
            )

    def test_empty_dataset_rejected(self):
        net = Sequential([Dense(1)], seed=1)
        net.build(4)
        with pytest.raises(ShapeError):
            net.fit(np.empty((0, 4)), np.empty((0, 1)), epochs=1)

    def test_invalid_epochs_rejected(self, linear_data):
        x, y = linear_data
        with pytest.raises(ConfigurationError):
            Sequential([Dense(1)], seed=1).fit(x, y, epochs=0)

    def test_invalid_batch_size_rejected(self):
        assert network.BATCH_SIZE > 0


class TestPredict:
    def test_output_shape(self, linear_data):
        x, _ = linear_data
        net = Sequential([Dense(8, "relu"), Dense(1, "linear")], seed=1)
        assert net.predict(x).shape == (300, 1)

    def test_recurrent_first_promotes_2d_input(self):
        net = Sequential([SimpleRNN(4), Dense(1, "linear")], seed=1)
        out = net.predict(np.random.default_rng(0).random((10, 3)))
        assert out.shape == (10, 1)

    def test_recurrent_accepts_3d_windows(self):
        net = Sequential([SimpleRNN(4), Dense(1, "linear")], seed=1)
        out = net.predict(np.random.default_rng(0).random((10, 5, 3)))
        assert out.shape == (10, 1)

    def test_dense_first_rejects_3d_input(self):
        net = Sequential([Dense(4), Dense(1)], seed=1)
        with pytest.raises(ShapeError):
            net.predict(np.ones((10, 5, 3)))


class TestSplit:
    def test_60_20_20(self):
        x = np.arange(100)[:, None].astype(float)
        y = np.arange(100).astype(float)
        xt, yt, xv, yv, xs, ys = train_val_test_split(x, y)
        assert len(xt) == 60 and len(xv) == 20 and len(xs) == 20

    def test_chronological_order_preserved(self):
        x = np.arange(10)[:, None].astype(float)
        y = np.arange(10).astype(float)
        xt, _, xv, _, xs, _ = train_val_test_split(x, y)
        assert xt.max() < xv.min() < xs.min()

    def test_fractions_must_sum_to_one(self):
        assert sum(network.SPLIT_FRACTIONS) == pytest.approx(1.0)

    def test_negative_fraction_rejected(self):
        assert all(f >= 0 for f in network.SPLIT_FRACTIONS)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ShapeError):
            train_val_test_split(np.ones((10, 1)), np.ones(9))


class TestEarlyStopping:
    def test_no_patience_runs_all_epochs(self):
        """Without ``validation`` ``fit`` has no early stop: a stalling
        loss (noisy targets, long after the signal is fit) never ends the
        run."""
        rng = np.random.default_rng(4)
        x = rng.random((200, 4))
        y = (x.sum(axis=1) + rng.normal(0, 0.3, 200))[:, None]
        net = Sequential([Dense(4, "relu"), Dense(1)], seed=1)
        history = net.fit(x, y, epochs=12)
        assert history.epochs_run == 12
        assert not history.diverged
