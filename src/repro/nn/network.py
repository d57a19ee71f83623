"""The :class:`Sequential` model container.

Mirrors the slice of the Keras API the paper relies on: stack layers, train
on squared error with plain gradient descent for N epochs on a
chronological 60/20/20 train/validation/test split, then predict.

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
from repro.nn.metrics import predictions_collapsed

#: chronological train/validation/test shares (the paper's 60/20/20)
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)
#: consecutive rows per mini-batch of ``Sequential.fit``
BATCH_SIZE = 32
#: epochs in a row without a new best validation loss that end a fit
PATIENCE = 4


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
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Chronological 60/20/20 split (the paper's protocol, section V-G).

    No shuffling: throughput telemetry is a time series, so the validation
    and test sets are strictly later than the training set.  Returns
    ``(x_train, y_train, x_val, y_val, x_test, y_test)``.
    """
    if len(x) != len(y):
        raise ShapeError(f"x has {len(x)} rows but y has {len(y)}")
    n = len(x)
    n_train = int(n * SPLIT_FRACTIONS[0])
    n_val = int(n * SPLIT_FRACTIONS[1])
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
    keys of the weight archive).  One SGD step therefore updates the
    whole model in one vector operation.
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
        #: (archive key, layer, parameter name, start, shape) per parameter:
        #: where in the flat vectors it lives
        self._slot_table: list[tuple] = []
        #: epochs every ``fit`` ran and rows every ``predict`` scored
        self.epochs_trained = self.rows_predicted = 0

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
        self.rows_predicted += len(x)
        return self._forward(x)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def _bind(self, rows: int) -> tuple:
        """The training step for ``rows``-row batches: each layer's bound
        forward, the bound loss, and the bound backwards from the top down
        (the first layer's skips the input gradient nothing reads)."""
        steps = [
            layer.bind(rows, input_grad=i > 0)
            for i, layer in enumerate(self.layers)
        ]
        loss = MeanSquaredError().bind((rows, self.output_dim))
        return [f for f, _ in steps], loss, [b for _, b in reversed(steps)]

    # -- training ----------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 200,
        learning_rate: float = 0.01,
        sample_weight: np.ndarray | None = None,
        validation: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> TrainingHistory:
        """Train on mean squared error with mini-batch gradient descent.

        The paper's defaults are 200 epochs and standard (plain) SGD, which
        steps ``theta -= learning_rate * grad`` over the flat parameter
        vector; data is chronological, so batches are :data:`BATCH_SIZE`
        consecutive rows.
        When an epoch's loss is non-finite (or the last step leaves
        non-finite weights) the run stops and the history is flagged
        ``diverged``; nothing is raised -- Table II needs to *report*
        divergence, not crash.  A diverged fit never leaves non-finite
        weights: it keeps the best validated epoch's, if there is one,
        and otherwise the weights it started with.

        ``sample_weight`` supplies per-row loss weights (the prioritized
        replay buffer's importance-sampling correction).  ``None`` is
        exactly the unweighted path.

        ``validation=(x_val, y_val)`` makes ``epochs`` a maximum: after
        each epoch one forward pass scores the validation MSE, the fit
        stops after :data:`PATIENCE` epochs in a row without a new best,
        and however it ends it leaves the best epoch's weights behind.
        An epoch whose validation predictions are collapsed
        (:func:`~repro.nn.metrics.is_diverged`) neither sets a best nor
        counts toward the patience.
        """
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")
        if learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {learning_rate}"
            )
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
        if validation is not None:
            x_val = self._adapt_input(validation[0])
            y_val = self._adapt_target(validation[1], self.output_dim)
            if len(x_val) != len(y_val) or len(x_val) == 0:
                raise ShapeError(
                    f"validation has {len(x_val)} rows of x, {len(y_val)} of y"
                )
        history = TrainingHistory()
        best_loss, best_theta, waited = np.inf, None, 0
        self._home_parameters()
        start_theta = self._theta.copy()
        # Chronological batches are contiguous row ranges: views, not
        # fancy-index copies, sliced once; each runs the step bound for its
        # height (at most two: full batches and a short last one).
        starts = range(0, len(x), BATCH_SIZE)
        steps = {
            rows: self._bind(rows)
            for rows in {min(BATCH_SIZE, len(x) - start) for start in starts}
        }
        batches = [
            (
                x[start : start + BATCH_SIZE],
                y[start : start + BATCH_SIZE],
                None if sample_weight is None
                else sample_weight[start : start + BATCH_SIZE],
                *steps[min(BATCH_SIZE, len(x) - start)],
            )
            for start in starts
        ]
        if validation is not None:
            # A step bound for its height scores it: forwards and loss.
            val_forwards, val_loss, _ = self._bind(len(x_val))
            val_var = float(np.var(y_val))
        # A diverging fit overflows to inf and then multiplies inf by a
        # zero ReLU mask; divergence is an outcome fit reports (Table II),
        # not a numerical accident to warn about.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(epochs):
                epoch_loss = 0.0
                for xb, yb, wb, forwards, loss, backwards in batches:
                    out = xb
                    for forward in forwards:
                        out = forward(out)
                    value, grad = loss(out, yb, wb)
                    epoch_loss += value
                    for backward in backwards:
                        grad = backward(grad)
                    self._theta -= learning_rate * self._grad
                mean_loss = epoch_loss / len(batches)
                history.train_loss.append(mean_loss)
                history.epochs_run += 1
                if not np.isfinite(mean_loss):
                    history.diverged = True
                    break
                if validation is None:
                    continue
                pred = x_val
                for forward in val_forwards:
                    pred = forward(pred)
                if predictions_collapsed(pred, val_var):
                    continue
                value, _ = val_loss(pred, y_val, None)
                if value < best_loss:
                    best_loss, best_theta, waited = value, self._theta.copy(), 0
                else:
                    waited += 1
                    if waited == PATIENCE:
                        break
            if not np.isfinite(self._theta).all():
                history.diverged = True
        if best_theta is not None:
            self._theta[...] = best_theta
        elif history.diverged:
            self._theta[...] = start_theta
        self.epochs_trained += history.epochs_run
        return history

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential([{inner}])"
