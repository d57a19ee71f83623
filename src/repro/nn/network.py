"""The :class:`Sequential` model container.

Mirrors the slice of the Keras API the paper relies on: stack layers, train
on squared error with an optimizer for N epochs on a chronological 60/20/20
train/validation/test split, then predict.

Recurrent-first models consume ``(batch, timesteps, features)`` windows; a
2-D input is automatically promoted to a single-timestep window so the same
telemetry matrix can be fed to every Table-I architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, ModelError, ShapeError
from repro.nn.layers import Layer
from repro.nn.losses import MeanSquaredError
from repro.nn.optimizers import Optimizer, get_optimizer
from repro.observability import get_observability


@dataclass
class TrainingHistory:
    """Per-epoch record of a ``fit`` call."""

    train_loss: list[float] = field(default_factory=list)
    epochs_run: int = 0
    diverged: bool = False


def _is_window(arr: np.ndarray, flat: np.ndarray, start: int) -> bool:
    """Whether ``arr`` is the contiguous run of ``flat`` that begins at
    element ``start`` (the same memory, not an equal copy of it)."""
    return (
        arr.dtype == flat.dtype
        and arr.flags.c_contiguous
        and arr.__array_interface__["data"][0]
        == flat.__array_interface__["data"][0] + start * flat.itemsize
    )


def train_val_test_split(
    x: np.ndarray,
    y: np.ndarray,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
) -> tuple[np.ndarray, ...]:
    """Chronological 60/20/20 split (the paper's protocol, section V-G).

    No shuffling: throughput telemetry is a time series, so the validation
    and test sets are strictly later than the training set.  Returns
    ``(x_train, y_train, x_val, y_val, x_test, y_test)``.
    """
    if len(x) != len(y):
        raise ShapeError(f"x has {len(x)} rows but y has {len(y)}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigurationError(f"fractions must sum to 1, got {fractions}")
    if any(f < 0 for f in fractions):
        raise ConfigurationError(f"fractions must be non-negative: {fractions}")
    n = len(x)
    n_train = int(n * fractions[0])
    n_val = int(n * fractions[1])
    return (
        x[:n_train],
        y[:n_train],
        x[n_train : n_train + n_val],
        y[n_train : n_train + n_val],
        x[n_train + n_val :],
        y[n_train + n_val :],
    )


class Sequential:
    """A linear stack of layers with fit/predict.

    All parameters live in one flat float64 vector and all gradients in
    another; every ``layer.params[name]`` / ``layer.grads[name]`` is a
    reshaped view into them, laid out in ``layer{i}/{name}`` order (the
    keys of Adam's moments and of the weight archive).  Plain SGD can
    therefore update the whole model in one call.
    """

    def __init__(self, layers: list[Layer], *, seed: int | None = None) -> None:
        if not layers:
            raise ModelError("Sequential needs at least one layer")
        self.layers = list(layers)
        self._rng = np.random.default_rng(seed)
        self.built = False
        self.input_dim: int | None = None
        #: the flat parameter and gradient vectors, allocated by ``build``
        self._theta = self._grad = np.empty(0)
        #: (state key, layer, parameter name, start, shape) per parameter:
        #: where in the flat vectors it lives
        self._slot_table: list[tuple] = []
        metrics = get_observability().metrics
        self._m_epochs = metrics.counter(
            "repro_nn_epochs_total", "training epochs completed"
        )
        self._m_forward = metrics.counter(
            "repro_nn_forward_rows_total",
            "rows pushed through inference forward passes",
        )

    # -- construction ------------------------------------------------------
    def build(self, input_dim: int) -> None:
        """Allocate all layer parameters for a given feature count."""
        if self.built:
            return
        dim = int(input_dim)
        self.input_dim = dim
        for layer in self.layers:
            layer.build(dim, self._rng)
            dim = layer.output_dim
        size = 0
        self._slot_table = []
        for i, layer in enumerate(self.layers):
            for name, param in layer.params.items():
                self._slot_table.append(
                    (f"layer{i}/{name}", layer, name, size, param.shape)
                )
                size += param.size
        self._theta = np.empty(size)
        self._grad = np.empty(size)
        self._home_parameters()
        self.built = True

    def _home_parameters(self) -> None:
        """Make every layer parameter and gradient a view of the flat vectors.

        ``build`` moves the freshly initialized arrays in this way, and
        ``fit`` repeats it as a guard: whoever rebinds ``layer.params[k]``,
        deep-copies or unpickles a built model (each array then comes
        back on a buffer of its own) would otherwise train a vector
        ``predict`` no longer reads.  What a layer holds is the truth; it
        is copied into its window and replaced by the view.
        """
        for key, layer, name, start, shape in self._slot_table:
            for arrays, flat in (
                (layer.params, self._theta), (layer.grads, self._grad)
            ):
                held = arrays[name]
                if _is_window(held, flat, start):
                    continue
                if held.shape != shape:
                    raise ShapeError(
                        f"{key} was built with shape {shape}, "
                        f"now holds {held.shape}"
                    )
                view = flat[start : start + held.size].reshape(shape)
                view[...] = held
                arrays[name] = view

    def parameter_vector(self) -> np.ndarray:
        """A copy of every parameter as one flat vector (slot-table order)."""
        self._home_parameters()
        return self._theta.copy()

    def set_parameter_vector(self, theta: np.ndarray) -> None:
        """Overwrite every parameter from :meth:`parameter_vector` output.

        In place: the layers' arrays stay views of the one vector the
        optimizer updates.
        """
        self._home_parameters()
        if np.shape(theta) != self._theta.shape:
            raise ShapeError(
                f"parameter vector has shape {np.shape(theta)}, "
                f"the model holds {self._theta.shape}"
            )
        self._theta[...] = theta

    def _optimizer_slots(
        self, opt: Optimizer
    ) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """The ``(key, parameters, gradients)`` triples one step updates:
        one per named parameter, or the whole vectors as a single slot
        when the optimizer's rule allows (see ``Optimizer.per_parameter``).
        """
        if not opt.per_parameter:
            return [("all", self._theta, self._grad)]
        return [
            (key, layer.params[name], layer.grads[name])
            for key, layer, name, _, _ in self._slot_table
        ]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim

    def parameter_count(self) -> int:
        return sum(layer.parameter_count() for layer in self.layers)

    # -- shape handling ----------------------------------------------------
    def _adapt_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        first = self.layers[0]
        if first.input_rank == 3 and x.ndim == 2:
            # Promote tabular rows to single-timestep windows.
            x = x[:, None, :]
        if x.ndim != first.input_rank:
            raise ShapeError(
                f"{type(first).__name__} expects rank-{first.input_rank} "
                f"input, got shape {x.shape}"
            )
        if self.built and x.shape[-1] != self.input_dim:
            raise ShapeError(
                f"model was built for {self.input_dim} features, "
                f"got shape {x.shape}"
            )
        return x

    @staticmethod
    def _adapt_target(y: np.ndarray, output_dim: int) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        if y.ndim != 2 or y.shape[1] != output_dim:
            raise ShapeError(
                f"targets must have shape (n, {output_dim}), got {y.shape}"
            )
        return y

    # -- inference ---------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; returns ``(n, output_dim)`` predictions.

        One gemm per layer over all of ``x``: row chunks of arbitrary
        height are not bit-stable, so the one caller that streams
        inference (``DRLEngine._score_locations``) picks aligned blocks.
        """
        x = self._adapt_input(x)
        if not self.built:
            self.build(x.shape[-1])
        self._m_forward.inc(len(x))
        return self._forward(x, training=False)

    def _forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def _backward(self, grad: np.ndarray) -> None:
        for layer in self.layers[:0:-1]:
            grad = layer.backward(grad)
        # Nothing sits below the first layer to read its input gradient.
        self.layers[0].backward(grad, input_grad=False)

    # -- training ----------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 200,
        batch_size: int = 32,
        optimizer: str | Optimizer = "sgd",
        sample_weight: np.ndarray | None = None,
    ) -> TrainingHistory:
        """Train on mean squared error with mini-batch gradient descent.

        The paper's defaults are 200 epochs and standard (plain) SGD; data is
        chronological, so batches are consecutive rows.  When training
        produces a non-finite loss the run stops and the history is flagged
        ``diverged``; nothing is raised -- Table II needs to *report*
        divergence, not crash.

        ``sample_weight`` supplies per-row loss weights (the prioritized
        replay buffer's importance-sampling correction).  ``None`` is
        exactly the unweighted path.
        """
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        x = self._adapt_input(x)
        if not self.built:
            self.build(x.shape[-1])
        y = self._adapt_target(y, self.output_dim)
        if len(x) != len(y):
            raise ShapeError(f"x has {len(x)} rows but y has {len(y)}")
        if len(x) == 0:
            raise ShapeError("cannot fit on an empty dataset")
        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=np.float64).ravel()
            if len(sample_weight) != len(x):
                raise ShapeError(
                    f"x has {len(x)} rows but sample_weight has "
                    f"{len(sample_weight)}"
                )
            # one column, as the loss broadcasts it over the outputs
            sample_weight = sample_weight[:, None]
        loss_fn = MeanSquaredError()
        opt = get_optimizer(optimizer)
        history = TrainingHistory()
        self._home_parameters()
        slots = self._optimizer_slots(opt)
        # Chronological batches are contiguous row ranges: views, not
        # fancy-index copies, sliced once.
        batches = [
            (
                x[start : start + batch_size],
                y[start : start + batch_size],
                None if sample_weight is None
                else sample_weight[start : start + batch_size],
            )
            for start in range(0, len(x), batch_size)
        ]
        # A diverging fit overflows to inf and then multiplies inf by a
        # zero ReLU mask; divergence is an outcome fit reports (Table II),
        # not a numerical accident to warn about.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(epochs):
                epoch_loss = 0.0
                for xb, yb, wb in batches:
                    pred = self._forward(xb, training=True)
                    value, grad = loss_fn.value_and_gradient(pred, yb, wb)
                    epoch_loss += value
                    self._backward(grad)
                    for key, param, param_grad in slots:
                        opt.apply(key, param, param_grad)
                mean_loss = epoch_loss / len(batches)
                history.train_loss.append(mean_loss)
                history.epochs_run += 1
                if not np.isfinite(mean_loss):
                    history.diverged = True
                    break
        self._m_epochs.inc(history.epochs_run)
        return history

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential([{inner}])"
