"""Optimizers used by the parameter servers.

In EC-Graph the workers push weight gradients to the servers; each server
sums the per-worker gradients and applies the optimizer to the shard of
parameters it owns (paper Algorithm 2, server lines 1-3). The optimizers
here therefore operate on plain named ``numpy`` arrays so a server can run
them over any shard without knowing the model structure.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["Optimizer", "SGD", "Momentum", "Adam", "AdaGrad", "make_optimizer"]

Params = Dict[str, np.ndarray]
Grads = Dict[str, np.ndarray]


class Optimizer:
    """Base class: stateful update rule over named parameter arrays."""

    def __init__(self, lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def step(self, params: Params, grads: Grads) -> None:
        """Update ``params`` in place using ``grads``.

        Parameters missing from ``grads`` are left untouched, which lets a
        server own a superset of what any single round updates.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Drop all accumulated state (used between benchmark runs)."""


class SGD(Optimizer):
    """Vanilla stochastic gradient descent with optional weight decay."""

    def __init__(self, lr: float = 0.01, weight_decay: float = 0.0):
        super().__init__(lr)
        self.weight_decay = weight_decay

    def step(self, params: Params, grads: Grads) -> None:
        for name, grad in grads.items():
            if name not in params:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            if self.weight_decay:
                grad = grad + self.weight_decay * params[name]
            params[name] -= (self.lr * grad).astype(params[name].dtype)


class Momentum(Optimizer):
    """SGD with classical momentum."""

    def __init__(self, lr: float = 0.01, momentum: float = 0.9,
                 weight_decay: float = 0.0):
        super().__init__(lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Params = {}

    def step(self, params: Params, grads: Grads) -> None:
        for name, grad in grads.items():
            if name not in params:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            if self.weight_decay:
                grad = grad + self.weight_decay * params[name]
            vel = self._velocity.get(name)
            if vel is None:
                vel = np.zeros_like(params[name])
            vel = self.momentum * vel + grad
            self._velocity[name] = vel
            params[name] -= (self.lr * vel).astype(params[name].dtype)

    def reset(self) -> None:
        self._velocity.clear()


class Adam(Optimizer):
    """Adam (Kingma & Ba), the optimizer the paper uses for all systems."""

    def __init__(self, lr: float = 0.01, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Params = {}
        self._v: Params = {}
        self._t: Dict[str, int] = {}

    def step(self, params: Params, grads: Grads) -> None:
        for name, grad in grads.items():
            if name not in params:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            if self.weight_decay:
                grad = grad + self.weight_decay * params[name]
            m = self._m.get(name)
            if m is None:
                m = np.zeros_like(params[name], dtype=np.float64)
                self._m[name] = m
                self._v[name] = np.zeros_like(params[name], dtype=np.float64)
                self._t[name] = 0
            v = self._v[name]
            self._t[name] += 1
            t = self._t[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(grad)
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            params[name] -= update.astype(params[name].dtype)

    def reset(self) -> None:
        self._m.clear()
        self._v.clear()
        self._t.clear()


class AdaGrad(Optimizer):
    """AdaGrad: per-coordinate learning rates from accumulated squares."""

    def __init__(self, lr: float = 0.01, eps: float = 1e-10):
        super().__init__(lr)
        self.eps = eps
        self._accum: Params = {}

    def step(self, params: Params, grads: Grads) -> None:
        for name, grad in grads.items():
            if name not in params:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            acc = self._accum.get(name)
            if acc is None:
                acc = np.zeros_like(params[name], dtype=np.float64)
                self._accum[name] = acc
            acc += np.square(grad)
            update = self.lr * grad / (np.sqrt(acc) + self.eps)
            params[name] -= update.astype(params[name].dtype)

    def reset(self) -> None:
        self._accum.clear()


_OPTIMIZERS = {
    "sgd": SGD,
    "momentum": Momentum,
    "adam": Adam,
    "adagrad": AdaGrad,
}

# Public registry surface: the names configs may validate against.
OPTIMIZER_NAMES: tuple[str, ...] = tuple(sorted(_OPTIMIZERS))


def make_optimizer(name: str, lr: float, **kwargs) -> Optimizer:
    """Build an optimizer by registry name (``adam`` is the paper default)."""
    try:
        cls = _OPTIMIZERS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_OPTIMIZERS))
        raise KeyError(f"unknown optimizer {name!r}; known: {known}") from None
    return cls(lr=lr, **kwargs)
