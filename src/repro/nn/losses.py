"""The training loss: mean squared error with its analytic gradient."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def _mean(values: np.ndarray) -> float:
    """``float(np.mean(values))`` by the ufunc pair ``np.mean`` runs."""
    return float(np.add.reduce(values, axis=None) / values.size)


class MeanSquaredError:
    """0.5-free MSE: ``mean((pred - true)**2)``; grad is ``2*(pred-true)/N``.

    ``weight`` optionally carries per-row importance weights (prioritized
    replay's bias correction); ``None`` is the exact unweighted
    computation.
    """

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
        if y_pred.shape != y_true.shape:
            raise ShapeError(
                f"prediction shape {y_pred.shape} != target shape {y_true.shape}"
            )
        diff = y_pred - y_true
        if weight is None:
            return _mean(diff ** 2), 2.0 * diff / diff.size
        w = np.asarray(weight, dtype=np.float64)
        if w.ndim == 1:
            w = w[:, None]
        if w.shape[0] != y_pred.shape[0]:
            raise ShapeError(
                f"weight has {w.shape[0]} rows but predictions have "
                f"{y_pred.shape[0]}"
            )
        return _mean(w * diff ** 2), 2.0 * w * diff / diff.size
