"""Min-max scaling with the constant-column mask rebuilt on every call.

The original ``MinMaxNormalizer.transform`` / ``inverse_transform``:
always through two fancy-indexed column subsets, whether or not any
column is constant.
"""

from __future__ import annotations

import numpy as np


def masked_transform(x: np.ndarray, lo: np.ndarray, span: np.ndarray):
    out = np.empty_like(x)
    nonconstant = span > 0
    out[:, nonconstant] = (x[:, nonconstant] - lo[nonconstant]) / span[nonconstant]
    out[:, ~nonconstant] = 0.5
    return out


def masked_inverse_transform(x: np.ndarray, lo: np.ndarray, span: np.ndarray):
    out = np.empty_like(x)
    nonconstant = span > 0
    out[:, nonconstant] = x[:, nonconstant] * span[nonconstant] + lo[nonconstant]
    out[:, ~nonconstant] = lo[~nonconstant]
    return out
