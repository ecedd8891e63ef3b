"""Dense neural-network substrate: initializers, activations, losses,
optimizers and metrics.

This package replaces the PyTorch computation backend of the original
EC-Graph implementation with plain numpy (see DESIGN.md section 2).
"""

from repro.nn.activations import ACTIVATION_NAMES, Activation, get_activation
from repro.nn.init import glorot_uniform
from repro.nn.losses import LossResult, log_softmax, softmax_cross_entropy
from repro.nn.metrics import accuracy
from repro.nn.optim import (
    OPTIMIZER_NAMES,
    SGD,
    Adam,
    AdaGrad,
    Momentum,
    Optimizer,
    make_optimizer,
)

__all__ = [
    "ACTIVATION_NAMES",
    "OPTIMIZER_NAMES",
    "Activation",
    "get_activation",
    "glorot_uniform",
    "LossResult",
    "log_softmax",
    "softmax_cross_entropy",
    "accuracy",
    "SGD",
    "Adam",
    "AdaGrad",
    "Momentum",
    "Optimizer",
    "make_optimizer",
]
