"""Trainable layers: the :class:`Layer` protocol and :class:`Dense`.

Shapes follow the Keras convention the paper's models use:

* ``Dense`` consumes ``(batch, features)`` and produces ``(batch, units)``.
* Recurrent layers (see :mod:`repro.nn.recurrent`) consume
  ``(batch, timesteps, features)`` and produce the last hidden state
  ``(batch, units)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError, ShapeError
from repro.nn.activations import Activation, get_activation, linear, relu
from repro.nn.initializers import glorot_uniform, zeros


class Layer:
    """Base class for trainable layers.

    Subclasses implement ``build`` (allocate parameters once the input
    dimension is known), ``forward`` and ``backward``.  Parameters and their
    gradients live in the ``params`` / ``grads`` dicts so training can
    treat all layers uniformly.  A layer allocates both at ``build`` and
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

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self, grad_out: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        """Set parameter grads and return the gradient w.r.t. the input.

        ``input_grad=False`` tells the layer nobody reads that gradient
        (it is the first of its network): it may skip computing it and
        return ``None``.
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
    #: input, pre-activation and output of the last training forward pass
    _x: np.ndarray | None = None
    _z: np.ndarray | None = None
    _y: np.ndarray | None = None

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

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """``activation(x @ W + b)`` for a float64 ``(batch, input_dim)`` array.

        The bias add and a ReLU run in place on the one array the matmul
        allocated, so the pre-activation does not survive a ReLU layer;
        its sign pattern -- all :meth:`backward` needs of it -- does, in
        the output.  ``Sequential`` validates its input once per
        ``fit``/``predict`` call; the guard here is for direct callers.
        """
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            self._require_built()
            raise ShapeError(
                f"Dense expected (batch, {self.input_dim}), got {x.shape}"
            )
        z = x @ self.params["W"]
        z += self.params["b"]
        if self.activation is relu:
            y = np.maximum(z, 0.0, out=z)
        else:
            y = self.activation(z)
        if training:
            self._x, self._z, self._y = x, z, y
        return y

    def backward(
        self, grad_out: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        self._require_built()
        x, z, y = self._x, self._z, self._y
        if y is None:
            raise ModelError("backward() called before a training forward pass")
        if grad_out.shape != y.shape:
            raise ShapeError(
                f"grad shape {grad_out.shape} does not match output {y.shape}"
            )
        if self.activation is relu:
            # float64 * bool multiplies by exactly 1.0 / 0.0, as the
            # materialized float mask did.
            dz = grad_out * (y > 0.0)
        elif self.activation is linear:
            dz = grad_out
        else:
            dz = grad_out * self.activation.backward(z, y)
        # Written into the arrays ``build`` allocated (views of the
        # model's flat gradient vector), by the calls ``x.T @ dz`` and
        # ``dz.sum(axis=0)`` make themselves.
        np.matmul(x.T, dz, out=self.grads["W"])
        np.add.reduce(dz, axis=0, out=self.grads["b"])
        return dz @ self.params["W"].T if input_grad else None
