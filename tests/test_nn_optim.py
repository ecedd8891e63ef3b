"""Unit tests for optimizers (the server-side update rules)."""

import numpy as np
import pytest

from repro.nn.optim import SGD, Adam, AdaGrad, Momentum, make_optimizer


def _quadratic_descent(optimizer, steps=200, dim=4):
    """Minimize ||x - target||^2; returns the final distance to target."""
    rng = np.random.default_rng(0)
    target = rng.standard_normal(dim).astype(np.float32)
    params = {"x": np.zeros(dim, dtype=np.float32)}
    for _ in range(steps):
        grads = {"x": 2.0 * (params["x"] - target)}
        optimizer.step(params, grads)
    return float(np.linalg.norm(params["x"] - target))


class TestSGD:
    def test_converges_on_quadratic(self):
        assert _quadratic_descent(SGD(lr=0.1)) < 1e-4

    def test_single_step_formula(self):
        opt = SGD(lr=0.5)
        params = {"w": np.array([1.0, 2.0], dtype=np.float32)}
        opt.step(params, {"w": np.array([0.2, -0.2])})
        np.testing.assert_allclose(params["w"], [0.9, 2.1], atol=1e-6)

    def test_weight_decay_pulls_toward_zero(self):
        opt = SGD(lr=0.1, weight_decay=1.0)
        params = {"w": np.array([1.0], dtype=np.float32)}
        opt.step(params, {"w": np.array([0.0])})
        assert params["w"][0] < 1.0

    def test_unknown_parameter_raises(self):
        opt = SGD(lr=0.1)
        with pytest.raises(KeyError):
            opt.step({"a": np.zeros(1)}, {"b": np.zeros(1)})

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)

    def test_missing_gradient_leaves_param_untouched(self):
        opt = SGD(lr=0.1)
        params = {
            "a": np.ones(2, dtype=np.float32),
            "b": np.ones(2, dtype=np.float32),
        }
        opt.step(params, {"a": np.ones(2)})
        np.testing.assert_array_equal(params["b"], [1.0, 1.0])


class TestMomentum:
    def test_converges(self):
        assert _quadratic_descent(Momentum(lr=0.05, momentum=0.9)) < 1e-4

    def test_velocity_accumulates(self):
        opt = Momentum(lr=1.0, momentum=0.5)
        params = {"w": np.zeros(1, dtype=np.float32)}
        opt.step(params, {"w": np.array([1.0])})
        first = params["w"].copy()
        opt.step(params, {"w": np.array([1.0])})
        # Second step moves further: grad + 0.5 * previous velocity.
        assert abs(params["w"][0] - first[0]) > abs(first[0])

    def test_invalid_momentum_rejected(self):
        with pytest.raises(ValueError):
            Momentum(lr=0.1, momentum=1.0)

    def test_reset_clears_velocity(self):
        opt = Momentum(lr=0.1)
        opt.step({"w": np.zeros(1, dtype=np.float32)}, {"w": np.ones(1)})
        opt.reset()
        # With the velocity dropped, the next step is a first step.
        after_reset = {"w": np.zeros(1, dtype=np.float32)}
        opt.step(after_reset, {"w": np.ones(1)})
        fresh = {"w": np.zeros(1, dtype=np.float32)}
        Momentum(lr=0.1).step(fresh, {"w": np.ones(1)})
        np.testing.assert_array_equal(after_reset["w"], fresh["w"])


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

    def test_invalid_betas_rejected(self):
        with pytest.raises(ValueError):
            Adam(lr=0.1, beta1=1.0)

    def test_deterministic(self):
        results = []
        for _ in range(2):
            opt = Adam(lr=0.05)
            params = {"w": np.zeros(3, dtype=np.float32)}
            for step in range(5):
                opt.step(params, {"w": np.full(3, 0.5 + step)})
            results.append(params["w"].copy())
        np.testing.assert_array_equal(results[0], results[1])


class TestAdaGrad:
    def test_converges(self):
        assert _quadratic_descent(AdaGrad(lr=1.0), steps=500) < 1e-2

    def test_step_size_shrinks(self):
        opt = AdaGrad(lr=1.0)
        params = {"w": np.zeros(1, dtype=np.float32)}
        opt.step(params, {"w": np.ones(1)})
        first = abs(params["w"][0])
        before = params["w"][0]
        opt.step(params, {"w": np.ones(1)})
        second = abs(params["w"][0] - before)
        assert second < first


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("sgd", SGD), ("momentum", Momentum), ("adam", Adam),
        ("adagrad", AdaGrad), ("ADAM", Adam),
    ])
    def test_make(self, name, cls):
        assert isinstance(make_optimizer(name, lr=0.1), cls)

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="adam"):
            make_optimizer("lamb", lr=0.1)
