"""GNN model parameterization.

A model here is just the layer dimension ladder: every layer adds a
learned bias and every hidden layer is ReLU, as in the paper. The
distributed forward/backward math lives in :mod:`repro.core.gcn_math` and
is shared by GCN and GraphSAGE-mean (they differ only in the adjacency
normalization, chosen when the trainer normalizes the graph). Parameters
are created with a shared seed so every worker and server can agree on the
initial values without broadcasting them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ModelConfig
from repro.nn.init import glorot_uniform, zeros

__all__ = ["GNNParameters", "build_parameters", "weight_name", "bias_name"]


def weight_name(layer: int) -> str:
    """Parameter-server key of the layer's weight matrix ``W^l``."""
    return f"W{layer}"


def bias_name(layer: int) -> str:
    """Parameter-server key of the layer's bias vector ``b^l``."""
    return f"b{layer}"


@dataclass
class GNNParameters:
    """Initial parameters plus the metadata the trainer needs.

    Attributes:
        dims: ``[d0, d1, ..., dL]`` layer dimension ladder.
        tensors: Name -> initial value for every learnable tensor.
    """

    dims: list[int]
    tensors: dict[str, np.ndarray]

    @property
    def num_layers(self) -> int:
        return len(self.dims) - 1

    def layer_param_names(self, layer: int) -> list[str]:
        """Names of the tensors used by layer ``layer`` (0-based)."""
        return [weight_name(layer), bias_name(layer)]

    def all_param_names(self) -> list[str]:
        names: list[str] = []
        for layer in range(self.num_layers):
            names.extend(self.layer_param_names(layer))
        return names


def build_parameters(
    config: ModelConfig,
    input_dim: int,
    num_classes: int,
    seed: int = 0,
) -> GNNParameters:
    """Initialize all layer weights/biases from a single seed."""
    rng = np.random.default_rng(seed)
    dims = config.layer_dims(input_dim, num_classes)
    tensors: dict[str, np.ndarray] = {}
    for layer in range(len(dims) - 1):
        tensors[weight_name(layer)] = glorot_uniform(
            (dims[layer], dims[layer + 1]), rng
        )
        tensors[bias_name(layer)] = zeros((dims[layer + 1],))
    return GNNParameters(dims=dims, tensors=tensors)
