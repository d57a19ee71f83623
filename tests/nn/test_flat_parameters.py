"""One parameter vector, one update per step: the invariants behind it.

``Sequential`` keeps every parameter and gradient as a view of two flat
vectors so that an elementwise, stateless optimizer updates the whole
model in one call.  These tests hold what that rests on: the views
survive everything that touches weights (or ``fit`` re-homes them), the
slot choice follows the optimizer's rule, and the fused loss is the old
pair of formulas.  Bit equality with the original loop is
``test_lean_step.py``'s job; the cases here reuse its harness.
"""

import copy
import inspect
import pickle

import numpy as np
import pytest

from repro.nn.losses import MeanSquaredError
from repro.nn.model_zoo import build_model
from repro.nn.network import Sequential
from repro.nn.optimizers import SGD, Adam
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
    model.fit(x, y, epochs=1, optimizer=SGD(0.05))
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
    model.fit(x, y, epochs=2, optimizer=SGD(0.05))
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
        model.fit(x, y, epochs=1, optimizer=SGD(0.05))
        models.append(detach(model))
    lean, ref = models
    if detach is not _rebind:
        # each array came back on a buffer of its own
        assert not np.shares_memory(lean.layers[0].params["W"], lean._theta)
    got = lean.fit(x, y, epochs=3, optimizer=SGD(0.05))
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
    from repro.errors import ShapeError

    x, y = dataset(rows=40)
    model = build_model(1, Z, seed=11)
    model.fit(x, y, epochs=1, optimizer=SGD(0.05))
    model = detach(model)
    frozen_prediction = model.predict(x)
    theta = model.parameter_vector()
    assert not np.shares_memory(theta, model._theta)
    assert_homed(model)

    model = detach(model)  # detached again between freeze and restore
    for layer in model.layers:
        for param in layer.params.values():
            param += 1.0
    model.set_parameter_vector(theta)
    assert_homed(model)
    assert same_bits(model.parameter_vector(), theta)
    assert same_bits(model.predict(x), frozen_prediction)
    assert_fit_moves_predictions(model, x, y)
    with pytest.raises(ShapeError, match="parameter vector"):
        model.set_parameter_vector(theta[:-1])


# -- (c) batch tails ---------------------------------------------------------
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("rows", [320, 321, 336, 20])
def test_batch_tails(rows, weighted):
    """``rows % 32`` of 0, 1 and 16, and fewer rows than one batch."""
    x, y = dataset(rows=rows)
    weights = np.random.default_rng(5).random(rows) if weighted else None
    assert_same_training(
        1, SGD(0.05), ReferenceSGD(0.05), x=x, y=y, epochs=3,
        batch_size=32, sample_weight=weights,
    )


# -- (d) a restart in the middle changes nothing -----------------------------
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_save_load_between_fits_equals_two_fits(optimizer, tmp_path):
    """Each fit gets a fresh optimizer (as each engine cycle does), so the
    weights are all a restart between two fits has to carry."""
    x, y = dataset()
    straight = build_model(1, Z, seed=11)
    straight.fit(x, y, epochs=2, optimizer=optimizer)
    straight.fit(x, y, epochs=2, optimizer=optimizer)

    first = build_model(1, Z, seed=11)
    first.fit(x, y, epochs=2, optimizer=optimizer)
    save_weights(first, tmp_path / "w.npz")
    resumed = build_model(1, Z, seed=99)
    resumed.build(Z)
    load_weights(resumed, tmp_path / "w.npz")
    resumed.fit(x, y, epochs=2, optimizer=optimizer)

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
        got_value, got_grad = loss.value_and_gradient(pred, true, weight)
    assert isinstance(got_value, float)
    assert same_bits(got_value, want_value)
    assert same_bits(got_grad, want_grad)
    # a column of weights, as ``fit`` slices it, is the same weights
    if weighted:
        with np.errstate(over="ignore", invalid="ignore"):
            value, grad = loss.value_and_gradient(pred, true, weight[:, None])
        assert same_bits(value, want_value) and same_bits(grad, want_grad)


# -- (f) which optimizers get one slot is observable --------------------------
def _counting(optimizer):
    calls = []
    inner = optimizer.apply

    def apply(key, param, grad):
        calls.append(key)
        inner(key, param, grad)

    optimizer.apply = apply
    return optimizer, calls


@pytest.mark.parametrize(
    "optimizer, per_parameter",
    [
        (SGD(0.05), False),
        (Adam(0.01), True),
    ],
)
def test_one_apply_per_step_only_for_plain_sgd(optimizer, per_parameter):
    x, y = dataset(rows=100)  # four steps an epoch
    model = build_model(1, Z, seed=11)
    model.build(Z)
    names = [
        f"layer{i}/{name}"
        for i, layer in enumerate(model.layers) for name in layer.params
    ]
    optimizer, calls = _counting(optimizer)
    assert optimizer.per_parameter is per_parameter
    model.fit(x, y, epochs=2, optimizer=optimizer)
    steps = 2 * 4
    if per_parameter:
        # Adam keeps its moments under each parameter's key
        assert calls == names * steps
    else:
        assert len(calls) == steps


def test_a_new_optimizer_is_per_parameter_until_it_says_otherwise():
    from repro.nn.optimizers import Optimizer

    assert Optimizer(0.1).per_parameter is True


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
        # the engine's frozen copy: one call per ``FREEZE_EVERY``
        # updates, one per rollback
        "parameter_vector", "set_parameter_vector",
    }
