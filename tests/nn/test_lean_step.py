"""The bound training step against the original training loop.

``Sequential.fit`` binds each layer's step (and the loss) once per batch
height and runs them over reused arrays; ``tests.oracles.fit_loop.
reference_fit`` allocates everything per step.  Started from equally
seeded models they must end with the same bits: weights, per-epoch
losses, epochs run, divergence -- for every Table-I model, a short last
batch, sample weights, strided input rows, the validation stop and a
learning rate that blows up mid-fit.  A diverged fit keeps the weights it
started with, or its best validated epoch's.
"""

import warnings

import numpy as np
import pytest

from repro.nn import network
from repro.nn.model_zoo import ARCHITECTURES, build_model
from tests.oracles.fit_loop import (
    ReferenceSGD,
    reference_fit,
    reference_predict,
)

Z = 5
DENSE_MODELS = [n for n, specs in ARCHITECTURES.items() if specs[0].kind == "dense"]
#: LSTM, GRU and SimpleRNN first layers, each followed by Dense layers
RECURRENT_MODELS = [n for n in ARCHITECTURES if n not in DENSE_MODELS]


def same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def dataset(rows=330, timesteps=None, seed=0):
    rng = np.random.default_rng(seed)
    shape = (rows, Z) if timesteps is None else (rows, timesteps, Z)
    x = rng.random(shape)
    y = rng.random(rows)
    return x, y


def built(model_number):
    model = build_model(model_number, Z, seed=11)
    model.build(Z)
    return model


def assert_same_training(
    model_number, learning_rate, *, x, y, optimizer=None, **fit_kwargs
):
    lean = build_model(model_number, Z, seed=11)
    ref = build_model(model_number, Z, seed=11)
    got = lean.fit(x, y, learning_rate=learning_rate, **fit_kwargs)
    want = reference_fit(
        ref, x, y, optimizer=optimizer or ReferenceSGD(learning_rate),
        batch_size=network.BATCH_SIZE, **fit_kwargs,
    )
    assert got.epochs_run == want.epochs_run
    assert got.diverged == want.diverged
    assert same_bits(got.train_loss, want.train_loss)
    for layer_a, layer_b in zip(lean.layers, ref.layers):
        for name in layer_a.params:
            assert same_bits(layer_a.params[name], layer_b.params[name]), name
    # the in-place whole-tensor forward serves predict as well
    assert same_bits(lean.predict(x), reference_predict(ref, x))
    return lean, got


@pytest.mark.parametrize("model_number", DENSE_MODELS)
def test_every_dense_zoo_model(model_number):
    x, y = dataset()
    assert_same_training(
        model_number, 0.05, x=x, y=y,
        epochs=4,
    )


@pytest.mark.parametrize("model_number", RECURRENT_MODELS)
def test_recurrent_first_layer(model_number, monkeypatch):
    monkeypatch.setattr(network, "BATCH_SIZE", 16)
    x, y = dataset(rows=90, timesteps=4)
    assert_same_training(
        model_number, 0.05, x=x, y=y,
        epochs=3,
    )


def test_sample_weight():
    x, y = dataset()
    weights = np.random.default_rng(5).random(len(x))
    assert_same_training(
        1, 0.05, x=x, y=y, epochs=4,
        sample_weight=weights,
    )


@pytest.mark.parametrize("model_number", [5, 23])
def test_sample_weight_all_linear_and_recurrent(model_number, monkeypatch):
    """The weighted loss, as ``online_drift``'s replay trains it, through
    linear hidden layers and through an LSTM; the last batch is short."""
    monkeypatch.setattr(network, "BATCH_SIZE", 16)
    x, y = dataset(rows=90, timesteps=4 if model_number == 23 else None)
    weights = np.random.default_rng(5).random(len(x))
    assert_same_training(
        model_number, 0.05, x=x, y=y, epochs=4,
        sample_weight=weights,
    )


def test_non_contiguous_input_rows():
    """Batches are views now: a strided input must still give the same bits."""
    wide, y = dataset()
    wide = np.concatenate((wide, wide), axis=1)
    for x in (wide[:, ::2], wide[:, :Z], wide[::2, :Z]):
        assert not x.flags.c_contiguous
        assert_same_training(
            1, 0.05, x=x, y=y[: len(x)],
            epochs=2,
        )


@pytest.mark.parametrize("model_number", [1, 5])
def test_diverging_fit_reports_divergence_without_warning(model_number):
    """ROADMAP 4e: a diverging fit is an outcome to report, not to warn about.

    At lr 5.0 the weights overflow within an epoch.  Model 1 then sends
    ``inf * 0`` through a hidden ReLU's backward mask (the ``invalid value
    encountered in multiply`` of ``nn/layers.py``); model 5, all linear
    but its head, overflows in the matmuls instead.
    """
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((330, Z)), rng.standard_normal(330)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lean, history = assert_same_training(
            model_number, 5.0, x=x, y=y,
            epochs=30,
        )
    assert history.diverged is True
    assert history.epochs_run < 30
    assert same_bits(lean._theta, built(model_number)._theta)


def rising_validation(seed=0):
    """Learnable training rows, and validation targets of the opposite
    sign: every epoch that fits the one moves away from the other."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(Z)
    x, x_val = rng.random((330, Z)), rng.random((100, Z))
    return x, x @ w, x_val, -3.0 * (x_val @ w)


@pytest.mark.parametrize("model_number", DENSE_MODELS)
def test_validation_stop_matches_the_oracle(model_number):
    x, y = dataset()
    x_val, y_val = dataset(rows=100, seed=1)
    assert_same_training(
        model_number, 0.05, x=x, y=y,
        epochs=20, validation=(x_val, y_val),
    )


def test_validation_stop_matches_the_oracle_recurrent(monkeypatch):
    monkeypatch.setattr(network, "BATCH_SIZE", 16)
    x, y = dataset(rows=90, timesteps=4)
    x_val, y_val = dataset(rows=30, timesteps=4, seed=1)
    assert_same_training(
        23, 0.05, x=x, y=y,
        epochs=12, validation=(x_val, y_val),
    )


def test_rising_validation_loss_stops_on_the_first_epoch_weights():
    x, y, x_val, y_val = rising_validation()
    model, history = assert_same_training(
        1, 0.05, x=x, y=y,
        epochs=30, validation=(x_val, y_val),
    )
    assert history.epochs_run == 1 + network.PATIENCE
    assert not history.diverged
    first = build_model(1, Z, seed=11)
    first.fit(x, y, epochs=1, learning_rate=0.05)
    assert same_bits(model._theta, first._theta)


def test_collapsed_validation_predictions_never_stop_a_fit_early():
    """Constant validation inputs give constant predictions against
    varying targets: every epoch is skipped, so the fit runs its budget
    and ends where a fit without validation ends."""
    x, y, _, y_val = rising_validation()
    x_val = np.full((len(y_val), Z), 0.5)
    model, history = assert_same_training(
        1, 0.05, x=x, y=y,
        epochs=12, validation=(x_val, y_val),
    )
    assert history.epochs_run == 12
    plain = build_model(1, Z, seed=11)
    plain.fit(x, y, epochs=12, learning_rate=0.05)
    assert same_bits(model._theta, plain._theta)


@pytest.mark.parametrize("model_number", [1, 5])
def test_diverging_fit_with_validation_reports_divergence(model_number):
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((330, Z)), rng.standard_normal(330)
    x_val, y_val = rng.standard_normal((100, Z)), rng.standard_normal(100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, history = assert_same_training(
            model_number, 5.0, x=x, y=y,
            epochs=30, validation=(x_val, y_val),
        )
    assert history.diverged is True
    assert history.epochs_run < 30


class BlowUpRate(float):
    """A learning rate that becomes ``blown`` after ``calm_steps`` steps
    (``fit`` multiplies the gradient by it once a step)."""

    def __new__(cls, learning_rate, calm_steps, blown=1e6):
        rate = super().__new__(cls, learning_rate)
        rate.calm_steps, rate.blown = calm_steps, blown
        return rate

    def __mul__(self, grad):
        self.calm_steps -= 1
        return (self.blown if self.calm_steps < 0 else float(self)) * grad


def test_a_nan_stop_restores_the_best_epoch():
    x, y, x_val, y_val = rising_validation()
    steps = -(-len(x) // network.BATCH_SIZE)
    calm = build_model(1, Z, seed=11)
    calm.fit(x, y, epochs=2, learning_rate=0.05, validation=(x_val, y_val))
    model = build_model(1, Z, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        history = model.fit(
            x, y, epochs=30, learning_rate=BlowUpRate(0.05, 2 * steps),
            validation=(x_val, y_val),
        )
    assert history.diverged is True
    assert history.epochs_run == 3
    assert same_bits(model._theta, calm._theta)


@pytest.mark.parametrize("validated", [False, True], ids=["plain", "validated"])
@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
def test_a_diverged_fit_leaves_the_starting_weights(warm, validated):
    """Without a validated epoch to fall back on, a fit whose loss goes
    non-finite keeps the weights it was called with, still says
    ``diverged``, and the model trains on from them."""
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((330, Z)), rng.standard_normal(330)
    x_val, y_val = rng.standard_normal((100, Z)), rng.standard_normal(100)
    model = built(1)
    if warm:
        model.fit(x, y, epochs=2, learning_rate=0.05)
    start = model._theta.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        history = model.fit(
            x, y, epochs=30, learning_rate=5.0,
            validation=(x_val, y_val) if validated else None,
        )
    assert history.diverged is True
    assert not np.isfinite(history.train_loss[-1])
    assert same_bits(model._theta, start)
    history = model.fit(x, y, epochs=1, learning_rate=0.05)
    assert not history.diverged
    assert not same_bits(model._theta, start)


def test_non_finite_weights_after_the_last_step_are_a_divergence():
    """Every epoch loss is finite, but the very last update overflows:
    the fit still reports ``diverged`` and keeps its starting weights."""
    x, y = dataset()
    steps = -(-len(x) // network.BATCH_SIZE)
    model = built(1)
    start = model._theta.copy()
    history = model.fit(
        x, y, epochs=3,
        learning_rate=BlowUpRate(0.05, 3 * steps - 1, blown=np.inf),
    )
    assert np.all(np.isfinite(history.train_loss))
    assert history.diverged is True
    assert same_bits(model._theta, start)


class BlowUpSGD(ReferenceSGD):
    """The oracle's optimizer with :class:`BlowUpRate`'s schedule: its
    rate becomes ``blown`` after ``calm_steps`` steps (a step starts at
    the first parameter, ``layer0/W``)."""

    def __init__(self, learning_rate, calm_steps, blown=1e6):
        super().__init__(learning_rate)
        self.calm_steps, self.blown = calm_steps, blown

    def apply(self, key, param, grad):
        if key == "layer0/W":
            self.calm_steps -= 1
        rate = self.blown if self.calm_steps < 0 else self.learning_rate
        param -= rate * grad


@pytest.mark.parametrize("model_number", [1, 23])
def test_a_nan_stop_matches_the_oracle(model_number, monkeypatch):
    """The first blow-up case against the oracle: the rate blows up in
    epoch 3, the loss goes non-finite, and the best validated epoch
    comes back."""
    timesteps = 4 if model_number == 23 else None
    if timesteps:
        monkeypatch.setattr(network, "BATCH_SIZE", 16)
    x, y, x_val, y_val = rising_validation()
    if timesteps:
        x, x_val = np.repeat(x[:90, None], 4, 1), np.repeat(x_val[:, None], 4, 1)
        y = y[:90]
    steps = -(-len(x) // network.BATCH_SIZE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, history = assert_same_training(
            model_number, BlowUpRate(0.05, 2 * steps), x=x, y=y,
            optimizer=BlowUpSGD(0.05, 2 * steps),
            epochs=30, validation=(x_val, y_val),
        )
    assert history.diverged is True
    assert 3 <= history.epochs_run < 30


def test_a_last_step_overflow_matches_the_oracle():
    """The second blow-up case against the oracle: finite losses, then
    an infinite rate on the very last step."""
    x, y = dataset()
    steps = -(-len(x) // network.BATCH_SIZE)
    calm = 3 * steps - 1
    _, history = assert_same_training(
        1, BlowUpRate(0.05, calm, blown=np.inf), x=x, y=y,
        optimizer=BlowUpSGD(0.05, calm, blown=np.inf), epochs=3,
    )
    assert np.all(np.isfinite(history.train_loss))
    assert history.diverged is True
