"""Unit tests for parameter construction."""

import dataclasses

import numpy as np

from repro.core.config import ModelConfig
from repro.core.models import bias_name, build_parameters, weight_name


class TestNames:
    def test_naming(self):
        assert weight_name(0) == "W0"
        assert bias_name(2) == "b2"


class TestBuildParameters:
    def test_shapes(self):
        params = build_parameters(ModelConfig(num_layers=3, hidden_dim=8),
                                  input_dim=20, num_classes=4)
        assert params.tensors["W0"].shape == (20, 8)
        assert params.tensors["W1"].shape == (8, 8)
        assert params.tensors["W2"].shape == (8, 4)
        assert params.tensors["b2"].shape == (4,)

    def test_same_seed_same_weights(self):
        a = build_parameters(ModelConfig(), 10, 3, seed=5)
        b = build_parameters(ModelConfig(), 10, 3, seed=5)
        np.testing.assert_array_equal(a.tensors["W0"], b.tensors["W0"])

    def test_different_seed_differs(self):
        a = build_parameters(ModelConfig(), 10, 3, seed=5)
        b = build_parameters(ModelConfig(), 10, 3, seed=6)
        assert not np.array_equal(a.tensors["W0"], b.tensors["W0"])

    def test_biases_start_zero(self):
        params = build_parameters(ModelConfig(), 10, 3)
        assert not params.tensors["b0"].any()

    def test_all_param_names_ordered_by_layer(self):
        params = build_parameters(ModelConfig(num_layers=2), 10, 3)
        assert params.all_param_names() == ["W0", "b0", "W1", "b1"]

    def test_dims_property(self):
        params = build_parameters(
            ModelConfig(num_layers=2, hidden_dim=8), 10, 3
        )
        assert params.dims == [10, 8, 3]
        assert params.num_layers == 2


class TestModelConfig:
    def test_three_fields_relu_with_bias_is_not_a_choice(self):
        # Every hidden layer is ReLU after a learned bias: neither is a
        # field, and every layer pulls its bias.
        assert [f.name for f in dataclasses.fields(ModelConfig)] == [
            "num_layers", "hidden_dim", "model",
        ]
        params = build_parameters(ModelConfig(num_layers=3), 10, 3)
        for layer in range(3):
            assert params.layer_param_names(layer) == [
                weight_name(layer), bias_name(layer),
            ]
