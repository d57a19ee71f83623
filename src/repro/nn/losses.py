"""Loss functions with analytic gradients."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError, ShapeError


def _check_shapes(y_pred: np.ndarray, y_true: np.ndarray) -> None:
    if y_pred.shape != y_true.shape:
        raise ShapeError(
            f"prediction shape {y_pred.shape} != target shape {y_true.shape}"
        )


def _row_weights(weight: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """Per-row weights shaped to broadcast over the output columns."""
    w = np.asarray(weight, dtype=np.float64)
    if w.ndim == 1:
        w = w[:, None]
    if w.shape[0] != y_pred.shape[0]:
        raise ShapeError(
            f"weight has {w.shape[0]} rows but predictions have "
            f"{y_pred.shape[0]}"
        )
    return w


class Loss:
    """Base class: value + gradient w.r.t. predictions.

    ``weight`` optionally carries per-row importance weights (prioritized
    replay's bias correction); ``None`` is the exact unweighted
    computation.  A loss implements :meth:`value_and_gradient` -- what a
    training step needs, from one difference and one shape check;
    :meth:`value` and :meth:`gradient` are each one half of its result.
    """

    name = "loss"

    def value_and_gradient(
        self,
        y_pred: np.ndarray,
        y_true: np.ndarray,
        weight: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        """The loss and its gradient w.r.t. ``y_pred``.

        Opens no ``errstate`` of its own: ``Sequential.fit`` calls it once
        per step under the one it holds for the whole fit.
        """
        raise NotImplementedError

    # Divergence (overflow to inf, then inf - inf) is a reportable
    # outcome, not a bug: Table II marks diverged models explicitly.
    def value(
        self,
        y_pred: np.ndarray,
        y_true: np.ndarray,
        weight: np.ndarray | None = None,
    ) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.value_and_gradient(y_pred, y_true, weight)[0]

    def gradient(
        self,
        y_pred: np.ndarray,
        y_true: np.ndarray,
        weight: np.ndarray | None = None,
    ) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.value_and_gradient(y_pred, y_true, weight)[1]


def _mean(values: np.ndarray) -> float:
    """``float(np.mean(values))`` by the ufunc pair ``np.mean`` runs."""
    return float(np.add.reduce(values, axis=None) / values.size)


class MeanSquaredError(Loss):
    """0.5-free MSE: ``mean((pred - true)**2)``; grad is ``2*(pred-true)/N``."""

    name = "mse"

    def value_and_gradient(
        self,
        y_pred: np.ndarray,
        y_true: np.ndarray,
        weight: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        _check_shapes(y_pred, y_true)
        diff = y_pred - y_true
        if weight is None:
            return _mean(diff ** 2), 2.0 * diff / diff.size
        w = _row_weights(weight, y_pred)
        return _mean(w * diff ** 2), 2.0 * w * diff / diff.size


class MeanAbsoluteError(Loss):
    """MAE: ``mean(|pred - true|)``; subgradient sign at zero is 0."""

    name = "mae"

    def value_and_gradient(
        self,
        y_pred: np.ndarray,
        y_true: np.ndarray,
        weight: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        _check_shapes(y_pred, y_true)
        diff = y_pred - y_true
        if weight is None:
            return _mean(np.abs(diff)), np.sign(diff) / diff.size
        w = _row_weights(weight, y_pred)
        return _mean(w * np.abs(diff)), w * np.sign(diff) / diff.size


_REGISTRY: dict[str, type[Loss]] = {
    MeanSquaredError.name: MeanSquaredError,
    MeanAbsoluteError.name: MeanAbsoluteError,
}


def get_loss(name: str | Loss) -> Loss:
    """Resolve a loss by name (``"mse"``, ``"mae"``)."""
    if isinstance(name, Loss):
        return name
    try:
        return _REGISTRY[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ModelError(f"unknown loss {name!r}; known: {known}") from None
