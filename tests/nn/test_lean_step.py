"""The allocation-lean SGD step against the original training loop.

``Sequential.fit`` and ``tests.oracles.fit_loop.reference_fit`` start
from equally seeded models and must end with the same bits: weights,
per-epoch losses, epochs run, divergence.
"""

import warnings

import numpy as np
import pytest

from repro.nn.model_zoo import ARCHITECTURES, build_model
from repro.nn.optimizers import SGD, Adam
from tests.oracles.fit_loop import (
    ReferenceAdam,
    ReferenceSGD,
    reference_fit,
    reference_predict,
)

Z = 5
DENSE_MODELS = [n for n, specs in ARCHITECTURES.items() if specs[0].kind == "dense"]
#: one each: LSTM, GRU, SimpleRNN (all followed by Dense layers)
RECURRENT_MODELS = [23, 17, 18]


def same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def dataset(rows=330, timesteps=None, seed=0):
    rng = np.random.default_rng(seed)
    shape = (rows, Z) if timesteps is None else (rows, timesteps, Z)
    x = rng.random(shape)
    y = rng.random(rows)
    return x, y


def assert_same_training(model_number, lean_opt, ref_opt, *, x, y, **fit_kwargs):
    lean = build_model(model_number, Z, seed=11)
    ref = build_model(model_number, Z, seed=11)
    got = lean.fit(x, y, optimizer=lean_opt, **fit_kwargs)
    want = reference_fit(ref, x, y, optimizer=ref_opt, **fit_kwargs)
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
        model_number, SGD(0.05), ReferenceSGD(0.05), x=x, y=y,
        epochs=4, batch_size=32,
    )


@pytest.mark.parametrize("model_number", RECURRENT_MODELS)
def test_recurrent_first_layer(model_number):
    x, y = dataset(rows=90, timesteps=4)
    assert_same_training(
        model_number, SGD(0.05), ReferenceSGD(0.05), x=x, y=y,
        epochs=3, batch_size=16,
    )


def test_adam():
    x, y = dataset()
    lean_opt, ref_opt = Adam(0.01), ReferenceAdam(0.01)
    assert_same_training(
        3, lean_opt, ref_opt, x=x, y=y, epochs=5, batch_size=32,
    )
    # per-key moments and step counts, held for the one fit
    assert lean_opt._t == ref_opt.t
    for key in ref_opt.m:
        assert same_bits(lean_opt._m[key], ref_opt.m[key])
        assert same_bits(lean_opt._v[key], ref_opt.v[key])


def test_sample_weight():
    x, y = dataset()
    weights = np.random.default_rng(5).random(len(x))
    assert_same_training(
        1, SGD(0.05), ReferenceSGD(0.05), x=x, y=y, epochs=4,
        batch_size=32, sample_weight=weights,
    )


def test_non_contiguous_input_rows():
    """Batches are views now: a strided input must still give the same bits."""
    wide, y = dataset()
    wide = np.concatenate((wide, wide), axis=1)
    for x in (wide[:, ::2], wide[:, :Z], wide[::2, :Z]):
        assert not x.flags.c_contiguous
        assert_same_training(
            1, SGD(0.05), ReferenceSGD(0.05), x=x, y=y[: len(x)],
            epochs=2, batch_size=32,
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
            model_number, SGD(5.0), ReferenceSGD(5.0), x=x, y=y,
            epochs=30, batch_size=32,
        )
    assert history.diverged is True
    assert history.epochs_run < 30
    assert not np.all(np.isfinite(lean.layers[0].params["W"]))
