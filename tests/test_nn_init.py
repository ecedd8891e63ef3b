"""Unit tests for weight initializers."""

import numpy as np
import pytest

from repro.nn.init import glorot_uniform, zeros


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestGlorotUniform:
    def test_shape_and_dtype(self, rng):
        w = glorot_uniform((64, 32), rng)
        assert w.shape == (64, 32)
        assert w.dtype == np.float32

    def test_bounds(self, rng):
        w = glorot_uniform((100, 50), rng)
        limit = np.sqrt(6.0 / 150)
        assert np.all(w >= -limit)
        assert np.all(w <= limit)

    def test_deterministic_given_seed(self):
        a = glorot_uniform((8, 8), np.random.default_rng(3))
        b = glorot_uniform((8, 8), np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = glorot_uniform((8, 8), np.random.default_rng(1))
        b = glorot_uniform((8, 8), np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_variance_scales_with_fan(self, rng):
        small = glorot_uniform((10, 10), rng)
        large = glorot_uniform((1000, 1000), rng)
        assert small.std() > large.std()


class TestZeros:
    def test_zeros(self):
        b = zeros((17,))
        assert b.shape == (17,)
        assert not b.any()
        assert b.dtype == np.float32


class TestShapes:
    def test_1d_shape_supported(self, rng):
        w = glorot_uniform((16,), rng)
        assert w.shape == (16,)

    def test_empty_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            glorot_uniform((), rng)
