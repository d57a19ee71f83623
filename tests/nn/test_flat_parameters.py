"""One parameter vector, one update per step: the invariants behind it.

``Sequential`` keeps every parameter and gradient as a view of two flat
vectors so that one SGD step updates the whole model in one vector
operation.  These tests hold what that rests on: the views survive
everything that touches weights (or ``fit`` re-homes them), and the
fused loss is the old pair of formulas.  Bit equality with the original loop is
``test_lean_step.py``'s job; the cases here reuse its harness.
"""

import copy
import inspect
import pickle

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.losses import MeanSquaredError
from repro.nn.model_zoo import build_model
from repro.nn.network import Sequential
from repro.nn.recurrent import LSTM
from repro.nn.serialization import load_weights, save_weights
from tests.nn.test_lean_step import Z, assert_same_training, dataset, same_bits
from tests.oracles.fit_loop import ReferenceSGD, reference_fit


def assert_homed(model):
    """Every parameter and gradient aliases the model's flat vectors."""
    seen = 0
    for layer in model.layers:
        for name, param in layer.params.items():
            assert np.shares_memory(param, model._theta), name
            assert np.shares_memory(layer.grads[name], model._grad), name
            seen += param.size
    assert seen == model._theta.size == model._grad.size


def assert_fit_moves_predictions(model, x, y):
    before = model.predict(x)
    model.fit(x, y, epochs=1, learning_rate=0.05)
    assert not np.array_equal(before, model.predict(x))
    assert_homed(model)


# -- (a) the views survive everything that touches weights ------------------
@pytest.mark.parametrize("model_number", [1, 23, 17, 18])
def test_views_after_build_fit_and_load_weights(model_number, tmp_path):
    timesteps = None if model_number == 1 else 3
    x, y = dataset(rows=70, timesteps=timesteps)
    model = build_model(model_number, Z, seed=11)
    model.build(Z)
    assert_homed(model)
    flat_before = model._theta.copy()
    model.fit(x, y, epochs=2, learning_rate=0.05)
    assert_homed(model)
    # training moved the vector the layers read, not a detached copy
    assert not np.array_equal(flat_before, model._theta)

    save_weights(model, tmp_path / "w.npz")
    clone = build_model(model_number, Z, seed=12)
    clone.build(Z)
    load_weights(clone, tmp_path / "w.npz")
    assert_homed(clone)
    assert same_bits(clone._theta, model._theta)
    assert_fit_moves_predictions(clone, x, y)


def test_zero_grads_fills_in_place():
    model = build_model(1, Z, seed=11)
    model.build(Z)
    x, y = dataset(rows=40)
    model.fit(x, y, epochs=1)
    assert model._grad.any()
    for layer in model.layers:
        layer.zero_grads()
    assert not model._grad.any()
    assert_homed(model)


# -- (b) what detaches a view is re-homed by the next fit -------------------
def _rebind(model):
    first = model.layers[0]
    first.params["W"] = first.params["W"] * 0.5
    first.grads["b"] = np.zeros_like(first.grads["b"])
    return model


def _pickled(model):
    return pickle.loads(pickle.dumps(model))


@pytest.mark.parametrize("detach", [_rebind, copy.deepcopy, _pickled])
def test_detached_arrays_are_rehomed_by_fit(detach):
    x, y = dataset()
    models = []
    for _ in range(2):
        model = build_model(1, Z, seed=11)
        model.fit(x, y, epochs=1, learning_rate=0.05)
        models.append(detach(model))
    lean, ref = models
    if detach is not _rebind:
        # each array came back on a buffer of its own
        assert not np.shares_memory(lean.layers[0].params["W"], lean._theta)
    got = lean.fit(x, y, epochs=3, learning_rate=0.05)
    want = reference_fit(ref, x, y, epochs=3, optimizer=ReferenceSGD(0.05))
    assert same_bits(got.train_loss, want.train_loss)
    for layer_a, layer_b in zip(lean.layers, ref.layers):
        for name in layer_a.params:
            assert same_bits(layer_a.params[name], layer_b.params[name]), name
    assert_homed(lean)
    assert same_bits(lean.predict(x), ref.predict(x))


def test_rebinding_a_wrong_shape_is_refused():
    from repro.errors import ShapeError

    model = build_model(1, Z, seed=11)
    model.build(Z)
    model.layers[0].params["b"] = np.zeros(3)
    x, y = dataset(rows=40)
    with pytest.raises(ShapeError, match="layer0/b"):
        model.fit(x, y, epochs=1)


@pytest.mark.parametrize("detach", [lambda m: m, _rebind, copy.deepcopy, _pickled])
def test_parameter_vector_freezes_what_the_layers_hold(detach):
    """The parameter vector a diverged fit puts back is copied after
    homing: it is what the layers held, detached or not, and it goes
    back in place, where the next fit trains it."""
    x, y = dataset(rows=40)
    model = build_model(1, Z, seed=11)
    model.fit(x, y, epochs=1, learning_rate=0.05)
    model = detach(model)
    for layer in model.layers:
        for param in layer.params.values():
            param += 1.0
    held_prediction = model.predict(x)
    history = model.fit(x, y, epochs=30, learning_rate=1e6)
    assert history.diverged
    assert_homed(model)
    assert same_bits(model.predict(x), held_prediction)
    assert_fit_moves_predictions(model, x, y)


# -- (c) batch tails ---------------------------------------------------------
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("rows", [320, 321, 336, 20])
def test_batch_tails(rows, weighted):
    """``rows % 32`` of 0, 1 and 16, and fewer rows than one batch."""
    x, y = dataset(rows=rows)
    weights = np.random.default_rng(5).random(rows) if weighted else None
    assert_same_training(
        1, 0.05, x=x, y=y, epochs=3,
        sample_weight=weights,
    )


# -- (c') the step plan: bound once per batch height, arrays reused ---------
@pytest.mark.parametrize("model_number, rows, heights", [
    (1, 320, {32}), (1, 321, {32, 1}), (1, 20, {20}), (23, 70, {32, 6}),
])
def test_fit_binds_each_batch_height_once(
    model_number, rows, heights, monkeypatch
):
    """Every layer, Dense or recurrent, is bound once per distinct batch
    height per fit -- full batches and a short last one -- however many
    epochs run."""
    bound = []
    for cls in (Dense, LSTM):
        shipped = cls.bind
        monkeypatch.setattr(
            cls, "bind",
            lambda self, n, shipped=shipped, **kw: (
                bound.append(n) or shipped(self, n, **kw)
            ),
        )
    x, y = dataset(rows=rows, timesteps=3 if model_number == 23 else None)
    model = build_model(model_number, Z, seed=11)
    model.fit(x, y, epochs=3, learning_rate=0.05)
    assert sorted(bound) == sorted([*heights] * len(model.layers))


@pytest.mark.parametrize("activation", ["relu", "linear", "tanh"])
def test_a_bound_dense_step_reuses_its_arrays(activation):
    """A bound step writes every batch into the same arrays (the generic
    activation branch allocates its output), and each batch gets the bits
    of a step bound for it alone."""
    rng = np.random.default_rng(3)
    layer = Dense(6, activation=activation)
    layer.build(4, rng)
    forward, backward = layer.bind(8)
    outs = []
    for _ in range(3):
        x, grad = rng.standard_normal((8, 4)), rng.standard_normal((8, 6))
        fresh_forward, fresh_backward = layer.bind(8)
        outs.append(forward(x))
        assert same_bits(outs[-1], fresh_forward(x))
        dx = backward(grad).copy()
        grads = {name: g.copy() for name, g in layer.grads.items()}
        assert same_bits(dx, fresh_backward(grad))
        for name, g in layer.grads.items():
            assert same_bits(grads[name], g), name
    assert (outs[0] is outs[1] is outs[2]) == (activation != "tanh")


# -- (d) a restart in the middle changes nothing -----------------------------
def test_save_load_between_fits_equals_two_fits(tmp_path):
    """Plain SGD keeps no state between steps, so the weights are all a
    restart between two fits has to carry."""
    x, y = dataset()
    straight = build_model(1, Z, seed=11)
    straight.fit(x, y, epochs=2)
    straight.fit(x, y, epochs=2)

    first = build_model(1, Z, seed=11)
    first.fit(x, y, epochs=2)
    save_weights(first, tmp_path / "w.npz")
    resumed = build_model(1, Z, seed=99)
    resumed.build(Z)
    load_weights(resumed, tmp_path / "w.npz")
    resumed.fit(x, y, epochs=2)

    assert same_bits(resumed._theta, straight._theta)
    assert same_bits(resumed.predict(x), straight.predict(x))


# -- (e) the fused loss is the old pair of formulas ---------------------------
def _weights_column(weight):
    return np.asarray(weight, dtype=np.float64)[:, None]


def _old_mse(pred, true, weight):
    if weight is None:
        return (
            float(np.mean((pred - true) ** 2)),
            2.0 * (pred - true) / pred.size,
        )
    w = _weights_column(weight)
    return (
        float(np.mean(w * (pred - true) ** 2)),
        2.0 * w * (pred - true) / pred.size,
    )


@pytest.mark.parametrize("columns", [1, 3])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("poison", [None, np.inf, np.nan])
@pytest.mark.parametrize("loss, old", [(MeanSquaredError(), _old_mse)])
def test_value_and_gradient_equals_the_old_formulas(
    loss, old, poison, weighted, columns
):
    rng = np.random.default_rng(2)
    pred = rng.standard_normal((33, columns)) * 1e3
    true = rng.standard_normal((33, columns))
    if poison is not None:
        pred[4, 0] = poison
        true[9, 0] = poison  # inf - inf on the difference
        pred[9, 0] = poison
    weight = rng.random(33) if weighted else None
    with np.errstate(over="ignore", invalid="ignore"):
        want_value, want_grad = old(pred, true, weight)
        if weighted:  # a column of weights, as ``fit`` slices it
            got_value, got_grad = loss.bind(pred.shape)(
                pred, true, weight[:, None]
            )
        else:
            got_value, got_grad = loss.value_and_gradient(pred, true)
        # the form ``fit`` binds once and calls per step
        bound = loss.bind(pred.shape)
        again = bound(pred, true, None if weight is None else weight[:, None])
    assert isinstance(got_value, float)
    assert same_bits(got_value, want_value)
    assert same_bits(got_grad, want_grad)
    assert same_bits(again[0], want_value) and same_bits(again[1], want_grad)


# -- the e2e tracer wraps every public method of the model -------------------
def test_sequential_adds_no_public_method():
    """A public per-step helper would open a span per SGD step under
    ``benchmarks/e2e`` (``Recorder.wrap`` times every public method)."""
    public = {
        name for name, _ in inspect.getmembers(Sequential, inspect.isfunction)
        if not name.startswith("_")
    }
    assert public == {
        "build", "parameter_count", "predict", "fit",
    }
