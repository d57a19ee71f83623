"""Optimizers: standard gradient descent (the paper's choice) and Adam.

The paper: "all models ... use standard gradient descent as an optimization
function.  We tested out the Adam optimizer but it ended up giving us a
higher mean and standard deviation of the absolute relative error."  Both are
provided so that comparison can be reproduced (see the ablation bench).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ModelError


class Optimizer:
    """Base class.  State is keyed by a caller-supplied parameter key so one
    optimizer instance can serve every layer of a network."""

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {learning_rate}"
            )
        self.learning_rate = float(learning_rate)

    @property
    def per_parameter(self) -> bool:
        """Whether :meth:`apply` must see each named parameter on its own.

        True when the rule reads a per-parameter quantity (``clipnorm``'s
        gradient norm) or keeps state under the parameter's key (which is
        also its checkpoint name).  False when it is elementwise and
        stateless: one call over all parameters laid end to end is then
        the same arithmetic, and ``Sequential.fit`` makes that one call.
        """
        return True

    def apply(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        """Update ``param`` in place given its gradient."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear accumulated state (momentum/moments)."""

    def state_dict(self) -> dict[str, np.ndarray]:
        """Accumulated state as flat ``slot/param-key`` arrays.

        The mapping is suitable for checkpointing alongside model weights
        (see :mod:`repro.nn.serialization`); scalar slots are stored as
        0-d arrays.  Stateless optimizers return an empty dict.
        """
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state captured by :meth:`state_dict`."""
        if state:
            raise ModelError(
                f"{type(self).__name__} carries no state but got keys "
                f"{sorted(state)}"
            )


def _split_slots(
    state: dict[str, np.ndarray], expected: tuple[str, ...], owner: str
) -> dict[str, dict[str, np.ndarray]]:
    """Group flat ``slot/param-key`` state by slot, validating slot names."""
    slots: dict[str, dict[str, np.ndarray]] = {name: {} for name in expected}
    for key, value in state.items():
        slot, sep, param_key = key.partition("/")
        if not sep or slot not in slots:
            raise ModelError(
                f"{owner} state has unexpected key {key!r}; "
                f"expected slots {expected}"
            )
        slots[slot][param_key] = value
    return slots


class SGD(Optimizer):
    """Standard gradient descent with optional momentum and gradient clipping.

    ``clipnorm`` caps the per-parameter gradient L2 norm; the paper's tiny
    models train stably without it, but throughput targets are heavy-tailed
    enough that callers may want it.
    """

    def __init__(
        self,
        learning_rate: float = 0.01,
        momentum: float = 0.0,
        clipnorm: float | None = None,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        if clipnorm is not None and clipnorm <= 0:
            raise ConfigurationError(f"clipnorm must be positive, got {clipnorm}")
        self.momentum = float(momentum)
        self.clipnorm = clipnorm
        self._velocity: dict[str, np.ndarray] = {}

    @property
    def per_parameter(self) -> bool:
        return bool(self.momentum) or self.clipnorm is not None

    def apply(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        if grad.shape != param.shape:
            raise ModelError(
                f"gradient shape {grad.shape} != parameter shape {param.shape}"
            )
        if self.clipnorm is not None:
            norm = float(np.linalg.norm(grad))
            if norm > self.clipnorm:
                grad = grad * (self.clipnorm / norm)
        if self.momentum:
            v = self._velocity.get(key)
            if v is None:
                v = np.zeros_like(param)
            v = self.momentum * v - self.learning_rate * grad
            self._velocity[key] = v
            param += v
        else:
            param -= self.learning_rate * grad

    def reset(self) -> None:
        self._velocity.clear()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {
            f"velocity/{key}": np.array(value, dtype=np.float64)
            for key, value in self._velocity.items()
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        slots = _split_slots(state, ("velocity",), "SGD")
        self._velocity = {
            key: np.array(value, dtype=np.float64)
            for key, value in slots["velocity"].items()
        }


class Adam(Optimizer):
    """Adam (Kingma & Ba).  Included because the paper explicitly compared
    against it and found SGD produced lower error on their telemetry."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError("beta1/beta2 must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def apply(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        if grad.shape != param.shape:
            raise ModelError(
                f"gradient shape {grad.shape} != parameter shape {param.shape}"
            )
        m = self._m.get(key)
        if m is None:
            m = np.zeros_like(param)
            self._v[key] = np.zeros_like(param)
            self._t[key] = 0
        v = self._v[key]
        self._t[key] += 1
        t = self._t[key]
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
        self._m[key], self._v[key] = m, v
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def reset(self) -> None:
        self._m.clear()
        self._v.clear()
        self._t.clear()

    def state_dict(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for key, value in self._m.items():
            out[f"m/{key}"] = np.array(value, dtype=np.float64)
        for key, value in self._v.items():
            out[f"v/{key}"] = np.array(value, dtype=np.float64)
        for key, value in self._t.items():
            out[f"t/{key}"] = np.array(value, dtype=np.int64)
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        slots = _split_slots(state, ("m", "v", "t"), "Adam")
        if set(slots["m"]) != set(slots["v"]) or set(slots["m"]) != set(slots["t"]):
            raise ModelError("Adam state slots m/v/t cover different keys")
        self._m = {
            key: np.array(value, dtype=np.float64)
            for key, value in slots["m"].items()
        }
        self._v = {
            key: np.array(value, dtype=np.float64)
            for key, value in slots["v"].items()
        }
        self._t = {key: int(value) for key, value in slots["t"].items()}


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
