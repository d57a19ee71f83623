"""Evaluation metrics used by the paper's model comparison (Table II/III).

The paper scores models by the *mean and standard deviation of the absolute
relative error* between predicted and target throughput, and marks a model
"Diverged" when it "completely failed to capture the mean and variation of
the target value[,] usually resulting in the same prediction happening over
and over again."
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

#: guard against division by ~0 targets when computing relative error
_EPS = 1e-12
#: prediction variance over target variance below which a model is
#: diverged (its predictions are nearly constant)
DIVERGED_VARIANCE_RATIO = 1e-3


def absolute_relative_error(
    y_pred: np.ndarray, y_true: np.ndarray
) -> np.ndarray:
    """Elementwise ``|pred - true| / |true|`` (as a fraction, not percent)."""
    y_pred = np.asarray(y_pred, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.float64)
    if y_pred.shape != y_true.shape:
        raise ShapeError(
            f"prediction shape {y_pred.shape} != target shape {y_true.shape}"
        )
    return np.abs(y_pred - y_true) / np.maximum(np.abs(y_true), _EPS)


def mean_absolute_relative_error(
    y_pred: np.ndarray, y_true: np.ndarray
) -> tuple[float, float]:
    """Mean and standard deviation of the absolute relative error, in percent.

    Returns the ``(mean, std)`` pair reported in Tables II and III.
    """
    are = absolute_relative_error(y_pred, y_true)
    return float(np.mean(are) * 100.0), float(np.std(are) * 100.0)


def signed_relative_error(y_pred: np.ndarray, y_true: np.ndarray) -> float:
    """Mean signed relative error ``(true - pred) / |true|``.

    Positive means the model under-predicts on average; the paper uses this
    sign to decide whether the MAE adjustment should be added or subtracted
    (section V-G).
    """
    y_pred = np.asarray(y_pred, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.float64)
    if y_pred.shape != y_true.shape:
        raise ShapeError(
            f"prediction shape {y_pred.shape} != target shape {y_true.shape}"
        )
    return float(
        np.mean((y_true - y_pred) / np.maximum(np.abs(y_true), _EPS))
    )


def is_diverged(y_pred: np.ndarray, y_true: np.ndarray) -> bool:
    """Whether a model's predictions are useless in the paper's sense.

    A model is considered diverged if its predictions contain non-finite
    values, or if they are (nearly) constant while the targets are not --
    i.e. the ratio of prediction variance to target variance falls below
    :data:`DIVERGED_VARIANCE_RATIO`.
    """
    y_pred = np.asarray(y_pred, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.float64)
    return predictions_collapsed(y_pred, float(np.var(y_true)))


def predictions_collapsed(y_pred: np.ndarray, target_var: float) -> bool:
    """:func:`is_diverged` given the targets' variance, for a caller that
    scores many predictions against one target set (``Sequential.fit``)."""
    if not np.all(np.isfinite(y_pred)):
        return True
    if target_var <= _EPS:
        # Constant targets: any finite prediction is as good as any other.
        return False
    pred_var = float(np.var(y_pred))
    return (pred_var / target_var) < DIVERGED_VARIANCE_RATIO
