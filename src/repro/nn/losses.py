"""The training loss: mean squared error with its analytic gradient."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ShapeError


def _mean(values: np.ndarray) -> float:
    """``float(np.mean(values))`` by the ufunc pair ``np.mean`` runs."""
    return float(np.add.reduce(values, axis=None) / values.size)


class MeanSquaredError:
    """0.5-free MSE: ``mean((pred - true)**2)``; grad is ``2*(pred-true)/N``.

    Per-row importance weights (prioritized replay's bias correction)
    scale both; ``None`` is the exact unweighted computation.  Neither
    form opens an ``errstate``: ``Sequential.fit`` holds one for the fit.
    """

    def value_and_gradient(
        self, y_pred: np.ndarray, y_true: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """The unweighted loss and its gradient w.r.t. ``y_pred``."""
        if y_pred.shape != y_true.shape:
            raise ShapeError(
                f"prediction shape {y_pred.shape} != target shape {y_true.shape}"
            )
        return self.bind(y_pred.shape)(y_pred, y_true, None)

    def bind(self, shape: tuple[int, ...]) -> Callable:
        """``value_and_gradient(y_pred, y_true, w)`` for ``shape``-d
        predictions and a weight column ``w`` (or ``None``), computed in two
        arrays allocated once -- the gradient is overwritten by the next
        call -- by the ufuncs of the allocating formulas."""
        diff, grad = np.empty(shape), np.empty(shape)

        def value_and_gradient(y_pred, y_true, w):
            np.subtract(y_pred, y_true, out=diff)
            np.square(diff, out=grad)  # what ``diff ** 2`` runs
            if w is None:
                value = _mean(grad)
                np.multiply(2.0, diff, out=grad)
            else:
                value = _mean(np.multiply(w, grad, out=grad))
                np.multiply(2.0 * w, diff, out=grad)
            np.divide(grad, diff.size, out=grad)
            return value, grad

        return value_and_gradient
