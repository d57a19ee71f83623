"""From-scratch numpy neural-network stack used by Geomancy's DRL engine.

The paper trains small Keras models (Dense / SimpleRNN / LSTM / GRU layers,
ReLU or linear activations, SGD) on 12,000-row telemetry batches.  This
package reimplements exactly that surface in pure numpy so the reproduction
has no deep-learning framework dependency:

* :mod:`repro.nn.layers` / :mod:`repro.nn.recurrent` -- trainable layers with
  full backpropagation (through time, for the recurrent ones).
* :mod:`repro.nn.network` -- a Keras-like :class:`Sequential` container with
  ``fit`` / ``predict``.
* :mod:`repro.nn.model_zoo` -- the 23 architectures of Table I.
* :mod:`repro.nn.metrics` -- the paper's accuracy metric (mean absolute
  relative error) and its divergence test.
"""

from repro.nn.activations import Activation, get_activation
from repro.nn.initializers import glorot_uniform, orthogonal, zeros
from repro.nn.layers import Dense, Layer
from repro.nn.losses import MeanSquaredError
from repro.nn.metrics import (
    absolute_relative_error,
    is_diverged,
    mean_absolute_relative_error,
)
from repro.nn.model_zoo import MODEL_NUMBERS, build_model, model_summary
from repro.nn.network import Sequential, TrainingHistory
from repro.nn.optimizers import SGD, Adam, Optimizer, get_optimizer
from repro.nn.recurrent import GRU, LSTM, SimpleRNN
from repro.nn.serialization import load_weights, save_weights

__all__ = [
    "Activation",
    "get_activation",
    "glorot_uniform",
    "orthogonal",
    "zeros",
    "Dense",
    "Layer",
    "MeanSquaredError",
    "absolute_relative_error",
    "mean_absolute_relative_error",
    "is_diverged",
    "MODEL_NUMBERS",
    "build_model",
    "model_summary",
    "Sequential",
    "TrainingHistory",
    "SGD",
    "Adam",
    "Optimizer",
    "get_optimizer",
    "SimpleRNN",
    "LSTM",
    "GRU",
    "load_weights",
    "save_weights",
]
