"""Normalization to [0, 1] (paper section V-E).

"The numerical data is normalized by the Interface Daemon to decimal values
between zero and one, and the categorical data into numerical parameters in
the same range."  Every feature the models use is numeric, so only the
numeric half is implemented.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FeatureError


class MinMaxNormalizer:
    """Per-column min-max scaling to [0, 1] with inverse transform.

    :meth:`partial_fit` widens the bounds to the elementwise min/max of
    everything seen so far, so every row it has been given transforms
    into [0, 1] however the stream drifts (a growing timestamp column
    included).  Merging is exact and idempotent: any chunking of a stream
    gives the bounds :meth:`fit` on the concatenation gives, and a batch
    inside the bounds leaves them, and every transform, bit-identical.
    Constant columns map to 0.5 (any constant in [0, 1] would do; the
    midpoint keeps them away from the ReLU dead zone).  Rows outside the
    bounds extrapolate linearly rather than being clipped.
    """

    def __init__(self) -> None:
        self._set_bounds(None, None)

    def _set_bounds(
        self, lo: np.ndarray | None, hi: np.ndarray | None
    ) -> None:
        """Install bounds and derive the span and constant-column mask once."""
        self._min = lo
        self._max = hi
        self._range = hi - lo if hi is not None else None
        self._nonconstant = self._range > 0 if hi is not None else None
        #: no constant column: transforms are one whole-array expression
        self._all_vary = hi is not None and bool(self._nonconstant.all())

    @property
    def fitted(self) -> bool:
        return self._min is not None

    def fit(self, x: np.ndarray) -> "MinMaxNormalizer":
        """Forget any bounds, then take ``x``'s."""
        self._set_bounds(None, None)
        return self.partial_fit(x)

    def partial_fit(self, x: np.ndarray) -> "MinMaxNormalizer":
        """Widen the bounds to cover ``x`` as well; they never narrow."""
        x = self._checked_matrix(x) if self.fitted else self._as_matrix(x)
        if len(x) == 0:
            raise FeatureError("cannot fit normalizer on empty data")
        lo, hi = x.min(axis=0), x.max(axis=0)
        if self.fitted:
            lo, hi = np.minimum(self._min, lo), np.maximum(self._max, hi)
        self._set_bounds(lo, hi)
        return self

    def _checked_matrix(self, x: np.ndarray) -> np.ndarray:
        self._require_fitted()
        x = self._as_matrix(x)
        if x.shape[1] != self._min.shape[0]:
            raise FeatureError(
                f"fitted on {self._min.shape[0]} columns, got {x.shape[1]}"
            )
        return x

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = self._checked_matrix(x)
        if self._all_vary:
            return (x - self._min) / self._range
        out = np.empty_like(x)
        nonconstant = self._nonconstant
        out[:, nonconstant] = (
            x[:, nonconstant] - self._min[nonconstant]
        ) / self._range[nonconstant]
        out[:, ~nonconstant] = 0.5
        return out

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        x = self._checked_matrix(x)
        if self._all_vary:
            return x * self._range + self._min
        out = np.empty_like(x)
        nonconstant = self._nonconstant
        out[:, nonconstant] = (
            x[:, nonconstant] * self._range[nonconstant] + self._min[nonconstant]
        )
        out[:, ~nonconstant] = self._min[~nonconstant]
        return out

    def state_dict(self) -> dict:
        """JSON-serializable bounds (floats round-trip exactly)."""
        return {
            "min": self._min.tolist() if self._min is not None else None,
            "max": self._max.tolist() if self._max is not None else None,
        }

    def load_state_dict(self, state: dict) -> None:
        self._set_bounds(*(
            np.array(state[key], dtype=np.float64)
            if state[key] is not None else None
            for key in ("min", "max")
        ))

    @staticmethod
    def _as_matrix(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise FeatureError(f"expected 1-D or 2-D data, got shape {x.shape}")
        return x

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise FeatureError("normalizer used before fit()")
