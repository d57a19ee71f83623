"""Weight initializers.

Keras defaults are reproduced so the model zoo behaves like the paper's
setup: Dense kernels use Glorot uniform, recurrent kernels use orthogonal
initialization, and biases start at zero.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialization for a ``(fan_in, fan_out)`` kernel."""
    if fan_in <= 0 or fan_out <= 0:
        raise ShapeError(f"fan_in/fan_out must be positive, got ({fan_in}, {fan_out})")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def orthogonal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Orthogonal initialization (Keras default for recurrent kernels)."""
    if rows <= 0 or cols <= 0:
        raise ShapeError(f"rows/cols must be positive, got ({rows}, {cols})")
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    # Make the decomposition unique (and the distribution uniform) by fixing
    # the signs of the diagonal of R.
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return q[:rows, :cols]


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """Zero initialization (biases)."""
    return np.zeros(shape, dtype=np.float64)
