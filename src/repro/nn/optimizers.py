"""Optimizers: standard gradient descent (the paper's choice) and Adam.

The paper: "all models ... use standard gradient descent as an optimization
function.  We tested out the Adam optimizer but it ended up giving us a
higher mean and standard deviation of the absolute relative error."  Both are
provided so that comparison can be reproduced (see the ablation bench).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ModelError

#: Adam's moment decay rates and denominator guard (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class Optimizer:
    """Base class.  State is keyed by a caller-supplied parameter key so one
    optimizer instance can serve every layer of a network."""

    #: Whether :meth:`apply` must see each named parameter on its own: true
    #: when the rule keeps state under the parameter's key.  An elementwise,
    #: stateless rule sets it false; one call over all parameters laid end
    #: to end is then the same arithmetic, and ``Sequential.fit`` makes
    #: that one call.
    per_parameter = True

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {learning_rate}"
            )
        self.learning_rate = float(learning_rate)

    def apply(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        """Update ``param`` in place given its gradient."""
        raise NotImplementedError


def _check_shapes(param: np.ndarray, grad: np.ndarray) -> None:
    if grad.shape != param.shape:
        raise ModelError(
            f"gradient shape {grad.shape} != parameter shape {param.shape}"
        )


class SGD(Optimizer):
    """Standard gradient descent: ``param -= learning_rate * grad``."""

    per_parameter = False

    def __init__(self, learning_rate: float = 0.01) -> None:
        super().__init__(learning_rate)

    def apply(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        _check_shapes(param, grad)
        param -= self.learning_rate * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba).  Included because the paper explicitly compared
    against it and found SGD produced lower error on their telemetry."""

    def __init__(self, learning_rate: float = 0.001) -> None:
        super().__init__(learning_rate)
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def apply(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        _check_shapes(param, grad)
        m = self._m.get(key)
        if m is None:
            m = np.zeros_like(param)
            self._v[key] = np.zeros_like(param)
            self._t[key] = 0
        v = self._v[key]
        self._t[key] += 1
        t = self._t[key]
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        self._m[key], self._v[key] = m, v
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


_REGISTRY: dict[str, type[Optimizer]] = {"sgd": SGD, "adam": Adam}


def get_optimizer(name: str | Optimizer, **kwargs) -> Optimizer:
    """Resolve an optimizer by name with constructor keyword arguments."""
    if isinstance(name, Optimizer):
        return name
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ModelError(f"unknown optimizer {name!r}; known: {known}") from None
    return cls(**kwargs)
