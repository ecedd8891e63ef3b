"""Unit tests for Adam, the server-side update rule."""

import numpy as np
import pytest

from repro.nn.optim import Adam


def _quadratic_descent(optimizer, steps=200, dim=4):
    """Minimize ||x - target||^2; returns the final distance to target."""
    rng = np.random.default_rng(0)
    target = rng.standard_normal(dim).astype(np.float32)
    params = {"x": np.zeros(dim, dtype=np.float32)}
    for _ in range(steps):
        grads = {"x": 2.0 * (params["x"] - target)}
        optimizer.step(params, grads)
    return float(np.linalg.norm(params["x"] - target))


class TestAdam:
    def test_converges(self):
        assert _quadratic_descent(Adam(lr=0.1), steps=400) < 1e-3

    def test_first_step_size_is_lr(self):
        # With bias correction the first Adam step is ~lr regardless of
        # gradient magnitude.
        opt = Adam(lr=0.01)
        params = {"w": np.zeros(1, dtype=np.float32)}
        opt.step(params, {"w": np.array([123.0])})
        assert abs(params["w"][0]) == pytest.approx(0.01, rel=1e-3)

    def test_per_parameter_timestep(self):
        opt = Adam(lr=0.01)
        params = {
            "a": np.zeros(1, dtype=np.float32),
            "b": np.zeros(1, dtype=np.float32),
        }
        opt.step(params, {"a": np.ones(1)})
        opt.step(params, {"a": np.ones(1), "b": np.ones(1)})
        # b's first step should also be ~lr despite a being at t=2.
        assert abs(params["b"][0]) == pytest.approx(0.01, rel=1e-3)

    def test_hyperparameters_are_the_published_constants(self):
        assert (Adam.BETA1, Adam.BETA2, Adam.EPS) == (0.9, 0.999, 1e-8)
        with pytest.raises(TypeError):
            Adam(lr=0.1, beta1=0.5)
        with pytest.raises(TypeError):
            Adam(lr=0.1, weight_decay=0.1)

    def test_two_step_formula(self):
        """Two steps against the textbook recurrences, in float64."""
        opt = Adam(lr=0.1)
        params = {"w": np.array([1.0, -2.0], dtype=np.float64)}
        g1, g2 = np.array([0.5, -3.0]), np.array([1.5, 2.0])
        opt.step(params, {"w": g1})
        opt.step(params, {"w": g2})
        expected = np.array([1.0, -2.0])
        m = np.zeros(2)
        v = np.zeros(2)
        for t, g in enumerate((g1, g2), start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat, v_hat = m / (1 - 0.9 ** t), v / (1 - 0.999 ** t)
            expected -= 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(params["w"], expected, rtol=1e-12)

    def test_unknown_parameter_raises(self):
        opt = Adam(lr=0.1)
        with pytest.raises(KeyError):
            opt.step({"a": np.zeros(1)}, {"b": np.zeros(1)})

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam(lr=0.0)

    def test_missing_gradient_leaves_param_untouched(self):
        opt = Adam(lr=0.1)
        params = {
            "a": np.ones(2, dtype=np.float32),
            "b": np.ones(2, dtype=np.float32),
        }
        opt.step(params, {"a": np.ones(2)})
        np.testing.assert_array_equal(params["b"], [1.0, 1.0])

    def test_deterministic(self):
        results = []
        for _ in range(2):
            opt = Adam(lr=0.05)
            params = {"w": np.zeros(3, dtype=np.float32)}
            for step in range(5):
                opt.step(params, {"w": np.full(3, 0.5 + step)})
            results.append(params["w"].copy())
        np.testing.assert_array_equal(results[0], results[1])
