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

    Constant columns map to 0.5 (any constant in [0, 1] would do; the
    midpoint keeps them away from the ReLU dead zone).  Transforming data
    outside the fitted range extrapolates linearly, so freshly arriving
    telemetry slightly beyond historical bounds does not get clipped.
    """

    def __init__(self) -> None:
        self._set_bounds(None, None)

    def _set_bounds(
        self, lo: np.ndarray | None, span: np.ndarray | None
    ) -> None:
        """Install fitted bounds and derive the constant-column mask once."""
        self._min = lo
        self._range = span
        self._nonconstant = span > 0 if span is not None else None
        #: no constant column: transforms are one whole-array expression
        self._all_vary = span is not None and bool(self._nonconstant.all())

    @property
    def fitted(self) -> bool:
        return self._min is not None

    def fit(self, x: np.ndarray) -> "MinMaxNormalizer":
        x = self._as_matrix(x)
        if len(x) == 0:
            raise FeatureError("cannot fit normalizer on empty data")
        lo = x.min(axis=0)
        self._set_bounds(lo, x.max(axis=0) - lo)
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
        """JSON-serializable fitted bounds (floats round-trip exactly)."""
        return {
            "min": self._min.tolist() if self._min is not None else None,
            "range": self._range.tolist() if self._range is not None else None,
        }

    def load_state_dict(self, state: dict) -> None:
        self._set_bounds(*(
            np.array(state[key], dtype=np.float64)
            if state[key] is not None else None
            for key in ("min", "range")
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


class RunningNormalizer:
    """Per-column standardization with incrementally updated statistics.

    Online-learning counterpart to :class:`MinMaxNormalizer`: instead of
    freezing min/max bounds at fit time, it keeps Welford/Chan running
    mean and variance aggregates that :meth:`partial_fit` merges batch by
    batch, so normalization tracks the telemetry distribution without a
    refit-on-window pass.  ``transform`` standardizes to zero mean / unit
    variance; constant columns map to 0.0 (the distribution's center,
    mirroring the min-max normalizer's midpoint convention).

    The merged statistics are mathematically identical to a batch refit
    over the concatenation of all batches (Chan et al.'s parallel
    variance update), and numerically agree within ~1e-9 relative error,
    which the hypothesis suite pins down.
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean: np.ndarray | None = None
        self._m2: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        return self._count > 0

    @property
    def count(self) -> int:
        """Rows absorbed so far."""
        return self._count

    @property
    def mean(self) -> np.ndarray:
        self._require_fitted()
        return self._mean.copy()

    @property
    def variance(self) -> np.ndarray:
        """Population variance per column."""
        self._require_fitted()
        return self._m2 / self._count

    def fit(self, x: np.ndarray) -> "RunningNormalizer":
        """Reset the statistics and seed them from ``x``."""
        x = MinMaxNormalizer._as_matrix(x)
        if len(x) == 0:
            raise FeatureError("cannot fit normalizer on empty data")
        self._count = 0
        self._mean = None
        self._m2 = None
        return self.partial_fit(x)

    def partial_fit(self, x: np.ndarray) -> "RunningNormalizer":
        """Merge a batch into the running statistics (Chan's update)."""
        x = MinMaxNormalizer._as_matrix(x)
        m = len(x)
        if m == 0:
            return self
        batch_mean = x.mean(axis=0)
        batch_m2 = np.square(x - batch_mean).sum(axis=0)
        if self._count == 0:
            self._count = m
            self._mean = batch_mean
            self._m2 = batch_m2
            return self
        if x.shape[1] != self._mean.shape[0]:
            raise FeatureError(
                f"fitted on {self._mean.shape[0]} columns, got {x.shape[1]}"
            )
        n = self._count
        total = n + m
        delta = batch_mean - self._mean
        self._mean = self._mean + delta * (m / total)
        self._m2 = self._m2 + batch_m2 + np.square(delta) * (n * m / total)
        self._count = total
        return self

    def _std(self) -> np.ndarray:
        return np.sqrt(self._m2 / self._count)

    def transform(self, x: np.ndarray) -> np.ndarray:
        self._require_fitted()
        x = MinMaxNormalizer._as_matrix(x)
        if x.shape[1] != self._mean.shape[0]:
            raise FeatureError(
                f"fitted on {self._mean.shape[0]} columns, got {x.shape[1]}"
            )
        std = self._std()
        out = np.empty_like(x)
        nonconstant = std > 0
        out[:, nonconstant] = (
            x[:, nonconstant] - self._mean[nonconstant]
        ) / std[nonconstant]
        out[:, ~nonconstant] = 0.0
        return out

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        self._require_fitted()
        x = MinMaxNormalizer._as_matrix(x)
        if x.shape[1] != self._mean.shape[0]:
            raise FeatureError(
                f"fitted on {self._mean.shape[0]} columns, got {x.shape[1]}"
            )
        std = self._std()
        out = np.empty_like(x)
        nonconstant = std > 0
        out[:, nonconstant] = (
            x[:, nonconstant] * std[nonconstant] + self._mean[nonconstant]
        )
        out[:, ~nonconstant] = self._mean[~nonconstant]
        return out

    def state_dict(self) -> dict:
        return {
            "count": self._count,
            "mean": self._mean.tolist() if self._mean is not None else None,
            "m2": self._m2.tolist() if self._m2 is not None else None,
        }

    def load_state_dict(self, state: dict) -> None:
        self._count = int(state["count"])
        self._mean = (
            np.array(state["mean"], dtype=np.float64)
            if state["mean"] is not None else None
        )
        self._m2 = (
            np.array(state["m2"], dtype=np.float64)
            if state["m2"] is not None else None
        )

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise FeatureError("normalizer used before fit()")
