"""Smoothing of noisy telemetry (paper section V-E).

"We remove smaller variations from data in the ReplayDB by applying a moving
average. ... Other smoothing methods such as cumulative average can be used,
however they lose short term fluctuations that can indicate a rapid decrease
in performance."
"""

from __future__ import annotations

import numpy as np

from repro.errors import FeatureError


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average, length-preserving.

    Element ``i`` is the mean of ``x[max(0, i-window+1) .. i]``, so early
    elements average over a shorter prefix instead of being dropped -- the
    pipeline needs output aligned 1:1 with its input rows.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if window < 1:
        raise FeatureError(f"window must be >= 1, got {window}")
    if x.size == 0:
        return x.copy()
    if window == 1:
        return x.copy()
    csum = np.cumsum(x)
    out = np.empty_like(x)
    w = min(window, x.size)
    # Full windows.
    out[w - 1 :] = (csum[w - 1 :] - np.concatenate(([0.0], csum[: x.size - w]))) / w
    # Growing prefix windows.
    out[: w - 1] = csum[: w - 1] / np.arange(1, w)
    return out
