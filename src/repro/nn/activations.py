"""Activation functions and their derivatives.

The distributed backward pass (paper Eqs. 4-5) needs ``sigma'(Z)`` evaluated
at the *pre-activation* matrix of each worker's forward pass, so every
activation here exposes both ``forward(z)`` and ``derivative(z)`` where
``z`` is the pre-activation input. Where ``sigma'`` depends only on the
sign of ``Z`` (ReLU, leaky ReLU), a layer keeps the one-byte mask
``Z > 0`` instead of ``Z``; :meth:`Activation.scale_by_derivative` is the
one backward rule for either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Activation",
    "relu",
    "leaky_relu",
    "tanh",
    "sigmoid",
    "identity",
    "elu",
    "get_activation",
]


@dataclass(frozen=True)
class Activation:
    """An activation function paired with its derivative.

    Attributes:
        name: Registry name of the activation.
        forward: Maps pre-activations ``Z`` to activations ``H``.
        derivative: Maps pre-activations ``Z`` to ``dH/dZ`` evaluated
            element-wise (the Hadamard factor in the backward pass).
        forward_into: ``forward`` computed straight into a destination
            ``(z, out)``, for the activations one ufunc expresses; the
            others copy their result in.
        negative_slope: For an activation whose ``sigma'`` is 1 where
            ``Z > 0`` and this constant elsewhere (ReLU 0, leaky ReLU
            its slope): ``sigma'`` then reads only the sign of ``Z``, so
            a hidden layer keeps the bool mask ``Z > 0`` rather than the
            float ``Z`` (:attr:`reads_sign`). None when ``sigma'`` reads
            the values of ``Z``.
    """

    name: str
    forward: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    forward_into: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    negative_slope: float | None = None

    def __call__(
        self, z: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``forward(z)``, written into ``out`` (same shape) when given."""
        if out is None:
            return self.forward(z)
        if self.forward_into is not None:
            return self.forward_into(z, out)
        out[...] = self.forward(z)
        return out

    @property
    def reads_sign(self) -> bool:
        """Whether ``sigma'`` depends only on the sign of ``Z``."""
        return self.negative_slope is not None

    def scale_by_derivative(
        self, dh: np.ndarray, kept: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``dh * sigma'(Z)`` into ``out`` (``dh`` itself when None).

        ``kept`` is what the layer kept for ``sigma'``
        (``LayerForwardCache.derivative_input``): the float ``Z``, or,
        for an activation that :attr:`reads_sign`, the bool mask
        ``Z > 0``. The mask gives the same float products as the factors
        ``derivative(Z)``: ReLU multiplies by the mask itself (no factor
        array at all), leaky ReLU by its float32 factors ``{slope, 1}``
        looked up from it.
        """
        if out is None:
            out = dh
        if kept.dtype != np.bool_:
            return np.multiply(dh, self.derivative(kept), out=out)
        if self.negative_slope == 0.0:
            return np.multiply(dh, kept, out=out)
        factors = np.array([self.negative_slope, 1.0], dtype=np.float32)
        return np.multiply(dh, factors.take(kept.view(np.uint8)), out=out)


def _relu_fwd(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _relu_into(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0, out=out)


def _relu_bwd(z: np.ndarray) -> np.ndarray:
    return (z > 0.0).astype(z.dtype)


_LEAKY_SLOPE = 0.01


def _leaky_relu_fwd(z: np.ndarray, slope: float = _LEAKY_SLOPE) -> np.ndarray:
    return np.where(z > 0.0, z, slope * z)


def _leaky_relu_bwd(z: np.ndarray, slope: float = _LEAKY_SLOPE) -> np.ndarray:
    return np.where(z > 0.0, 1.0, slope).astype(z.dtype)


def _tanh_fwd(z: np.ndarray) -> np.ndarray:
    return np.tanh(z)


def _tanh_bwd(z: np.ndarray) -> np.ndarray:
    t = np.tanh(z)
    return 1.0 - t * t


def _sigmoid_fwd(z: np.ndarray) -> np.ndarray:
    # Numerically stable split over sign to avoid overflow in exp().
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sigmoid_bwd(z: np.ndarray) -> np.ndarray:
    s = _sigmoid_fwd(z)
    return s * (1.0 - s)


def _identity_fwd(z: np.ndarray) -> np.ndarray:
    return z


def _identity_bwd(z: np.ndarray) -> np.ndarray:
    return np.ones_like(z)


def _elu_fwd(z: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    return np.where(z > 0.0, z, alpha * (np.exp(np.minimum(z, 0.0)) - 1.0))


def _elu_bwd(z: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    return np.where(z > 0.0, 1.0, alpha * np.exp(np.minimum(z, 0.0)))


relu = Activation("relu", _relu_fwd, _relu_bwd, _relu_into, 0.0)
leaky_relu = Activation(
    "leaky_relu", _leaky_relu_fwd, _leaky_relu_bwd, negative_slope=_LEAKY_SLOPE
)
tanh = Activation("tanh", _tanh_fwd, _tanh_bwd, np.tanh)
sigmoid = Activation("sigmoid", _sigmoid_fwd, _sigmoid_bwd)
identity = Activation("identity", _identity_fwd, _identity_bwd)
elu = Activation("elu", _elu_fwd, _elu_bwd)

_REGISTRY = {
    act.name: act for act in (relu, leaky_relu, tanh, sigmoid, identity, elu)
}

# Public registry surface: the names configs may validate against.
ACTIVATION_NAMES: tuple[str, ...] = tuple(sorted(_REGISTRY))


def get_activation(name: str) -> Activation:
    """Look up an activation by name, failing loudly on typos."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown activation {name!r}; known: {known}") from None
