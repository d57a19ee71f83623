"""The training loop as it stood before the allocation-lean SGD step.

``reference_fit`` drives the layers of a ``repro.nn`` model through the
original mini-batch loop: a fancy-index copy per batch, the loss by its
allocating formulas (``reference_mse``), a Dense step that
allocates the bias sum, the activation output, a float mask and the input
gradient of every layer (the first included), and optimizer updates keyed
by an f-string built per parameter per step.  ``Sequential.fit`` must
leave the same weights and losses behind.

Recurrent layers run their own ``forward``/``backward`` (the lean step
did not touch their arithmetic); only ``Dense`` is re-derived here.

With ``validation`` the loop also runs the plateau stop, per layer and
parameter rather than on the flat vector: score the validation MSE after
every epoch, skip an epoch whose predictions are collapsed, keep a copy
of the best epoch's parameters, stop after ``network.PATIENCE`` epochs
without a new best and put the best copy back.

A diverged fit -- a non-finite epoch loss, or non-finite weights once
the loop ends -- never leaves non-finite weights: it puts the best copy
back when there is one, and otherwise the parameters it started with.
"""

from __future__ import annotations

import numpy as np

from repro.nn import network
from repro.nn.layers import Dense
from repro.nn.metrics import is_diverged
from repro.nn.network import Sequential, TrainingHistory


class ReferenceSGD:
    """Plain SGD, one parameter at a time."""

    def __init__(self, learning_rate=0.01):
        self.learning_rate = float(learning_rate)

    def apply(self, key, param, grad):
        param -= self.learning_rate * grad


def reference_mse(pred, true, weight=None):
    """The loss and its gradient by the allocating formulas (``weight``
    is the per-row column ``fit`` slices, or ``None``)."""
    diff = pred - true
    if weight is None:
        return float(np.mean(diff ** 2)), 2.0 * diff / diff.size
    w = weight[:, None]
    return float(np.mean(w * diff ** 2)), 2.0 * w * diff / diff.size


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
    validation: tuple[np.ndarray, np.ndarray] | None = None,
) -> TrainingHistory:
    """The original ``Sequential.fit`` loop over ``model``'s parameters,
    on mean squared error; ``optimizer`` is a :class:`ReferenceSGD`.
    """
    x = model._adapt_input(x)
    if not model.built:
        model.build(x.shape[-1])
    y = model._adapt_target(y, model.output_dim)
    if sample_weight is not None:
        sample_weight = np.asarray(sample_weight, dtype=np.float64).ravel()
    history = TrainingHistory()
    best_loss, best, stale = np.inf, None, 0
    first = _copy_params(model)
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
                value, grad = reference_mse(out, yb, wb)
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
            if validation is None:
                continue
            x_val, y_val = validation
            pred = reference_predict(model, x_val)
            y_val = model._adapt_target(y_val, model.output_dim)
            if is_diverged(pred, y_val):
                continue
            loss, _ = reference_mse(pred, y_val)
            if loss < best_loss:
                best_loss, stale = loss, 0
                best = _copy_params(model)
                continue
            stale += 1
            if stale >= network.PATIENCE:
                break
    if not all(
        np.isfinite(param).all()
        for layer in model.layers for param in layer.params.values()
    ):
        history.diverged = True
    if best is None and history.diverged:
        best = first
    if best is not None:
        for layer, saved in zip(model.layers, best):
            for name, param in layer.params.items():
                param[...] = saved[name]
    return history


def _copy_params(model: Sequential) -> list[dict[str, np.ndarray]]:
    return [
        {name: p.copy() for name, p in layer.params.items()}
        for layer in model.layers
    ]
