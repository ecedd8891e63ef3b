"""Weight initialization schemes for dense GNN layers.

All initializers take an explicit :class:`numpy.random.Generator` so that
distributed workers can reproduce identical parameter tensors from a shared
seed (the parameter servers broadcast the seed, not the weights).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["glorot_uniform", "zeros"]


def _fan(shape: tuple[int, ...]) -> tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a weight tensor shape.

    For 2-D weights ``(in_dim, out_dim)`` this is simply the two axes. For
    higher-rank tensors the trailing axes are folded into the receptive
    field, matching the convention used by PyTorch and Keras.
    """
    if len(shape) < 1:
        raise ValueError("weight shape must have at least one axis")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = 1
    for dim in shape[2:]:
        receptive *= dim
    return shape[0] * receptive, shape[1] * receptive


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization, the GCN paper's default."""
    fan_in, fan_out = _fan(shape)
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def zeros(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    """All-zero initialization (used for biases)."""
    del rng
    return np.zeros(shape, dtype=np.float32)
