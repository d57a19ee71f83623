"""Trainable layers: the :class:`Layer` protocol and :class:`Dense`.

Shapes follow the Keras convention the paper's models use:

* ``Dense`` consumes ``(batch, features)`` and produces ``(batch, units)``.
* Recurrent layers (see :mod:`repro.nn.recurrent`) consume
  ``(batch, timesteps, features)`` and produce the last hidden state
  ``(batch, units)``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ModelError, ShapeError
from repro.nn.activations import Activation, get_activation, linear, relu
from repro.nn.initializers import glorot_uniform, zeros


class Layer:
    """Base class for trainable layers.

    Subclasses implement ``build`` (allocate parameters once the input
    dimension is known), ``forward`` (inference) and ``bind`` (the
    training step).  Parameters and their gradients live in the
    ``params`` / ``grads`` dicts so training can treat all layers
    uniformly.  A layer allocates both at ``build`` and
    from then on only writes *into* them: :class:`~repro.nn.network.
    Sequential` re-homes the arrays as views of its two flat vectors, and
    a layer that rebound an entry would detach itself from the vector each
    SGD step updates.
    """

    #: rank of the input array this layer expects (2 for Dense, 3 for RNNs)
    input_rank: int = 2
    #: feature count fixed by ``build``
    input_dim: int | None = None

    def __init__(self, units: int, activation: str | Activation = "linear") -> None:
        if units <= 0:
            raise ShapeError(f"units must be positive, got {units}")
        self.units = int(units)
        self.activation = get_activation(activation)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.built = False

    # -- lifecycle ---------------------------------------------------------
    def build(self, input_dim: int, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Inference over a whole ``x``."""
        raise NotImplementedError

    def bind(
        self, rows: int, *, input_grad: bool = True
    ) -> tuple[Callable, Callable]:
        """This layer's training step over ``rows``-row batches, bound by
        ``Sequential.fit`` once per batch height and run on every batch.

        Returns ``(forward, backward)``: ``forward(x)`` is a training
        forward pass; ``backward(grad_out)`` sets the parameter gradients
        and returns the input gradient, or ``None`` when bound with
        ``input_grad=False`` (the first layer: nobody reads it).
        """
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------
    @property
    def output_dim(self) -> int:
        return self.units

    def parameter_count(self) -> int:
        """Total number of scalar parameters in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def zero_grads(self) -> None:
        """Zero every gradient in place (allocating it on first use)."""
        for name, p in self.params.items():
            grad = self.grads.get(name)
            if grad is None or grad.shape != p.shape:
                self.grads[name] = np.zeros_like(p)
            else:
                grad.fill(0.0)

    def _require_built(self) -> None:
        if not self.built:
            raise ModelError(f"{type(self).__name__} used before build()")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(units={self.units}, "
            f"activation={self.activation.name!r})"
        )


class Dense(Layer):
    """Fully connected layer: ``y = activation(x @ W + b)``."""

    input_rank = 2

    def build(self, input_dim: int, rng: np.random.Generator) -> None:
        if input_dim <= 0:
            raise ShapeError(f"input_dim must be positive, got {input_dim}")
        self.input_dim = int(input_dim)
        self.params = {
            "W": glorot_uniform(rng, input_dim, self.units),
            "b": zeros((self.units,)),
        }
        self.zero_grads()
        self.built = True

    def bind(
        self, rows: int, *, input_grad: bool = True
    ) -> tuple[Callable, Callable]:
        return self._step(rows, training=True, input_grad=input_grad)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``activation(x @ W + b)`` for a float64 ``(batch, input_dim)``
        array: a forward-only step of its height, run once.  ``Sequential``
        validates its input once per ``predict``; this guard is for direct
        callers."""
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            self._require_built()
            raise ShapeError(
                f"Dense expected (batch, {self.input_dim}), got {x.shape}"
            )
        return self._step(len(x), training=False)[0](x)

    def _step(
        self, rows: int, *, training: bool, input_grad: bool = False
    ) -> tuple[Callable, Callable | None]:
        """Dense's arithmetic over ``rows``-row batches: the views it reads
        and writes (``W``, ``W.T``, ``b``, the gradient windows of the flat
        vector) looked up once, and the arrays it computes in (the
        pre-activation, which a ReLU makes the output in place; for
        training the mask, ``dz`` and, if asked for, the input gradient)
        allocated once.  The bits are the allocating expressions' (``x @
        W``, ``z += b``, ``grad_out * (y > 0.0)``, ``x.T @ dz``,
        ``dz.sum(axis=0)``, ``dz @ W.T``): their ufuncs, and ``np.dot``
        for the products, the BLAS call ``@`` makes at less overhead per
        call.  An activation that only equals ``relu``/``linear`` (a
        deep-copied or unpickled layer's) takes the generic branch: the
        same bits."""
        w, b, act = self.params["W"], self.params["b"], self.activation
        is_relu, is_linear = act is relu, act is linear
        z = np.empty((rows, self.units))
        x = y = None

        def forward(x_in):
            nonlocal x, y
            x = x_in
            np.add(np.dot(x_in, w, out=z), b, out=z)
            if is_relu:
                y = np.maximum(z, 0.0, out=z)
            else:
                y = z if is_linear else act(z)
            return y

        if not training:
            return forward, None
        wt, gw, gb = w.T, self.grads["W"], self.grads["b"]
        mask = np.empty((rows, self.units), dtype=bool)
        dz = np.empty((rows, self.units))
        dx = np.empty((rows, self.input_dim)) if input_grad else None

        def backward(grad_out):
            if is_relu:
                d = np.multiply(grad_out, np.greater(y, 0.0, out=mask), out=dz)
            elif is_linear:
                d = grad_out
            else:
                d = np.multiply(grad_out, act.backward(z, y), out=dz)
            np.dot(x.T, d, out=gw)
            np.add.reduce(d, axis=0, out=gb)
            return np.dot(d, wt, out=dx) if input_grad else None

        return forward, backward
