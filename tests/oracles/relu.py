"""ReLU as the oracles call it, now that ``src/`` has no activation object.

``repro.nn.activations.relu`` was an object with ``relu(z, out=None)``
and ``relu.derivative(z)``; the oracles that took it as an argument (or
read it off ``ctx.params.activation``) are fed this stand-in, with the
same float operations: ``np.maximum(z, 0.0)`` forward and the factors
``(z > 0.0).astype(z.dtype)`` backward.
"""

from __future__ import annotations

import numpy as np


class ReLU:
    def __call__(self, z: np.ndarray, out: np.ndarray | None = None):
        return np.maximum(z, 0.0, out=out)

    @staticmethod
    def derivative(z: np.ndarray) -> np.ndarray:
        return (z > 0.0).astype(z.dtype)


relu = ReLU()
