"""The optimizer used by the parameter servers.

In EC-Graph the workers push weight gradients to the servers; each server
sums the per-worker gradients and applies the optimizer to the shard of
parameters it owns (paper Algorithm 2, server lines 1-3). The optimizer
therefore operates on plain named ``numpy`` arrays so a server can run it
over any shard without knowing the model structure. The paper trains
every system with Adam, so Adam is the one update rule.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["Optimizer", "Adam"]

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


class Adam(Optimizer):
    """Adam (Kingma & Ba) at its published hyperparameters."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, lr: float = 0.01):
        super().__init__(lr)
        self._m: Params = {}
        self._v: Params = {}
        self._t: Dict[str, int] = {}

    def step(self, params: Params, grads: Grads) -> None:
        for name, grad in grads.items():
            if name not in params:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            m = self._m.get(name)
            if m is None:
                m = np.zeros_like(params[name], dtype=np.float64)
                self._m[name] = m
                self._v[name] = np.zeros_like(params[name], dtype=np.float64)
                self._t[name] = 0
            v = self._v[name]
            self._t[name] += 1
            t = self._t[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * grad
            v *= self.BETA2
            v += (1.0 - self.BETA2) * np.square(grad)
            m_hat = m / (1.0 - self.BETA1 ** t)
            v_hat = v / (1.0 - self.BETA2 ** t)
            update = self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)
            params[name] -= update.astype(params[name].dtype)
