"""Unit tests for weight initializers."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.initializers import glorot_uniform, orthogonal, zeros


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestGlorotUniform:
    def test_shape(self, rng):
        assert glorot_uniform(rng, 7, 3).shape == (7, 3)

    def test_bounds(self, rng):
        w = glorot_uniform(rng, 10, 10)
        limit = np.sqrt(6.0 / 20)
        assert np.all(np.abs(w) <= limit)

    def test_deterministic_for_seed(self):
        a = glorot_uniform(np.random.default_rng(1), 4, 4)
        b = glorot_uniform(np.random.default_rng(1), 4, 4)
        np.testing.assert_array_equal(a, b)

    def test_rejects_nonpositive_fans(self, rng):
        with pytest.raises(ShapeError):
            glorot_uniform(rng, 0, 3)
        with pytest.raises(ShapeError):
            glorot_uniform(rng, 3, -1)


class TestOrthogonal:
    def test_square_is_orthogonal(self, rng):
        q = orthogonal(rng, 6, 6)
        np.testing.assert_allclose(q @ q.T, np.eye(6), atol=1e-10)

    def test_tall_has_orthonormal_columns(self, rng):
        q = orthogonal(rng, 8, 3)
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)

    def test_wide_has_orthonormal_rows(self, rng):
        q = orthogonal(rng, 3, 8)
        np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-10)

    def test_shape(self, rng):
        assert orthogonal(rng, 5, 20).shape == (5, 20)

    def test_rejects_nonpositive_dims(self, rng):
        with pytest.raises(ShapeError):
            orthogonal(rng, 0, 4)


class TestZeros:
    def test_zeros(self):
        b = zeros((4,))
        np.testing.assert_array_equal(b, np.zeros(4))
        assert b.dtype == np.float64
