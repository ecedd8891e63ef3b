"""Unit tests for parameter construction."""

import numpy as np
import pytest

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

    def test_no_bias_option(self):
        params = build_parameters(
            ModelConfig(num_layers=2, use_bias=False), 10, 3
        )
        assert "b0" not in params.tensors
        assert params.layer_param_names(0) == ["W0"]

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

    def test_activation_resolved(self):
        params = build_parameters(
            ModelConfig(activation="tanh"), 10, 3
        )
        assert params.activation.name == "tanh"

    def test_unknown_activation_fails_fast(self):
        # Typos are rejected at config construction (ECG007 in
        # tests/test_invariants.py: every config field is validated),
        # before any model is built.
        with pytest.raises(ValueError, match="swishy"):
            ModelConfig(activation="swishy")
