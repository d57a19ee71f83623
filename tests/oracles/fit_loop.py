"""The training loop as it stood before the allocation-lean SGD step.

``reference_fit`` drives the layers of a ``repro.nn`` model through the
original mini-batch loop: a fancy-index copy per batch, a Dense step that
allocates the bias sum, the activation output, a float mask and the input
gradient of every layer (the first included), and optimizer updates keyed
by an f-string built per parameter per step.  ``Sequential.fit`` must
leave the same weights and losses behind.

Recurrent layers run their own ``forward``/``backward`` (the lean step
did not touch their arithmetic); only ``Dense`` is re-derived here.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Dense
from repro.nn.losses import MeanSquaredError
from repro.nn.network import Sequential, TrainingHistory


class ReferenceSGD:
    """Plain SGD, one parameter at a time."""

    def __init__(self, learning_rate=0.01):
        self.learning_rate = float(learning_rate)

    def apply(self, key, param, grad):
        param -= self.learning_rate * grad


class ReferenceAdam:
    """Adam with per-parameter step counts."""

    def __init__(self, learning_rate=0.001, beta1=0.9, beta2=0.999,
                 epsilon=1e-8):
        self.learning_rate = float(learning_rate)
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.epsilon = float(epsilon)
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}

    def apply(self, key, param, grad):
        m = self.m.get(key)
        if m is None:
            m = np.zeros_like(param)
            self.v[key] = np.zeros_like(param)
            self.t[key] = 0
        v = self.v[key]
        self.t[key] += 1
        t = self.t[key]
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
        self.m[key], self.v[key] = m, v
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def _dense_forward(layer: Dense, x: np.ndarray, cache: dict | None):
    z = x @ layer.params["W"] + layer.params["b"]
    y = layer.activation(z)
    if cache is not None:
        cache.update(x=x, z=z, y=y)
    return y


def _dense_backward(layer: Dense, cache: dict, grad_out: np.ndarray):
    x, z, y = cache["x"], cache["z"], cache["y"]
    dz = grad_out * layer.activation.backward(z, y)
    layer.grads["W"] = x.T @ dz
    layer.grads["b"] = dz.sum(axis=0)
    return dz @ layer.params["W"].T


def reference_predict(model: Sequential, x: np.ndarray) -> np.ndarray:
    """Whole-tensor forward pass through the allocating Dense step."""
    out = model._adapt_input(x)
    for layer in model.layers:
        if isinstance(layer, Dense):
            out = _dense_forward(layer, out, None)
        else:
            out = layer.forward(out, training=False)
    return out


def reference_fit(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    *,
    optimizer,
    epochs: int = 200,
    batch_size: int = 32,
    sample_weight: np.ndarray | None = None,
) -> TrainingHistory:
    """The original ``Sequential.fit`` loop over ``model``'s parameters,
    on mean squared error; ``optimizer`` is a :class:`ReferenceSGD` /
    :class:`ReferenceAdam`.
    """
    x = model._adapt_input(x)
    if not model.built:
        model.build(x.shape[-1])
    y = model._adapt_target(y, model.output_dim)
    if sample_weight is not None:
        sample_weight = np.asarray(sample_weight, dtype=np.float64).ravel()
    history = TrainingHistory()
    indices = np.arange(len(x))
    caches = [{} for _ in model.layers]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, len(x), batch_size):
                batch_idx = indices[start : start + batch_size]
                xb, yb = x[batch_idx], y[batch_idx]
                wb = (
                    sample_weight[batch_idx]
                    if sample_weight is not None else None
                )
                out = xb
                for layer, cache in zip(model.layers, caches):
                    if isinstance(layer, Dense):
                        out = _dense_forward(layer, out, cache)
                    else:
                        out = layer.forward(out, training=True)
                value, grad = MeanSquaredError().value_and_gradient(
                    out, yb, wb
                )
                epoch_loss += value
                n_batches += 1
                for layer, cache in zip(
                    reversed(model.layers), reversed(caches)
                ):
                    if isinstance(layer, Dense):
                        grad = _dense_backward(layer, cache, grad)
                    else:
                        grad = layer.backward(grad)
                for i, layer in enumerate(model.layers):
                    for name, param in layer.params.items():
                        optimizer.apply(
                            f"layer{i}/{name}", param, layer.grads[name]
                        )
            mean_loss = epoch_loss / n_batches
            history.train_loss.append(mean_loss)
            history.epochs_run += 1
            if not np.isfinite(mean_loss):
                history.diverged = True
                break
    return history
