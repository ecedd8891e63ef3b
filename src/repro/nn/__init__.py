"""Dense neural-network substrate: initializers, losses, the optimizer
and metrics.

This package replaces the PyTorch computation backend of the original
EC-Graph implementation with plain numpy (see DESIGN.md section 2).
"""

from repro.nn.init import glorot_uniform
from repro.nn.losses import LossResult, log_softmax, softmax_cross_entropy
from repro.nn.metrics import accuracy
from repro.nn.optim import Adam, Optimizer

__all__ = [
    "glorot_uniform",
    "LossResult",
    "log_softmax",
    "softmax_cross_entropy",
    "accuracy",
    "Adam",
    "Optimizer",
]
