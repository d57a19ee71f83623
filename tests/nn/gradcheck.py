"""Numerical gradient checking utilities shared by the nn tests."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer
from repro.nn.losses import MeanSquaredError


def _mse(pred: np.ndarray, target: np.ndarray) -> float:
    return MeanSquaredError().value_and_gradient(pred, target)[0]


def numerical_param_grads(
    layer: Layer, x: np.ndarray, target: np.ndarray, eps: float = 1e-6
) -> dict[str, np.ndarray]:
    """Central-difference gradients of MSE(layer(x), target) w.r.t. params."""
    grads = {}
    for name, param in layer.params.items():
        grad = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + eps
            hi = _mse(layer.forward(x), target)
            param[idx] = orig - eps
            lo = _mse(layer.forward(x), target)
            param[idx] = orig
            grad[idx] = (hi - lo) / (2 * eps)
            it.iternext()
        grads[name] = grad
    return grads


def numerical_input_grad(
    layer: Layer, x: np.ndarray, target: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of MSE(layer(x), target) w.r.t. x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = _mse(layer.forward(x), target)
        x[idx] = orig - eps
        lo = _mse(layer.forward(x), target)
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


def analytic_grads(
    layer: Layer, x: np.ndarray, target: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Backprop gradients of MSE(layer(x), target) for params and input,
    through the training step the layer binds."""
    forward, backward = layer.bind(len(x))
    pred = forward(x)
    dx = backward(MeanSquaredError().value_and_gradient(pred, target)[1])
    return dict(layer.grads), dx


def assert_grads_close(
    layer: Layer,
    x: np.ndarray,
    target: np.ndarray,
    rtol: float = 1e-4,
    atol: float = 1e-7,
) -> None:
    """Assert analytic and numerical gradients agree for params and input."""
    got_params, got_x = analytic_grads(layer, x, target)
    want_params = numerical_param_grads(layer, x, target)
    for name in layer.params:
        np.testing.assert_allclose(
            got_params[name],
            want_params[name],
            rtol=rtol,
            atol=atol,
            err_msg=f"parameter gradient mismatch: {name}",
        )
    want_x = numerical_input_grad(layer, x, target)
    np.testing.assert_allclose(
        got_x, want_x, rtol=rtol, atol=atol, err_msg="input gradient mismatch"
    )
