"""Unit tests for configuration objects."""

import dataclasses

import pytest

from repro.compression.quantization import SUPPORTED_BITS
from repro.core.config import ECGraphConfig, ModelConfig


class TestModelConfig:
    def test_layer_dims(self):
        config = ModelConfig(num_layers=3, hidden_dim=16)
        assert config.layer_dims(100, 7) == [100, 16, 16, 7]

    def test_single_layer(self):
        config = ModelConfig(num_layers=1)
        assert config.layer_dims(10, 3) == [10, 3]

    @pytest.mark.parametrize("kwargs", [
        {"num_layers": 0},
        {"hidden_dim": 0},
        {"model": "gat2"},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)


class TestECGraphConfig:
    def test_paper_defaults(self):
        config = ECGraphConfig()
        assert config.fp_mode == "reqec"
        assert config.bp_mode == "resec"
        assert config.trend_period == 10
        assert config.selector_granularity == "vertex"
        assert config.tuner_raise == 0.6
        assert config.tuner_lower == 0.4

    @pytest.mark.parametrize("kwargs", [
        {"fp_mode": "zip"},
        {"bp_mode": "zip"},
        {"selector_granularity": "edge"},
        {"trend_period": 1},
        {"tuner_raise": 0.3, "tuner_lower": 0.4},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ECGraphConfig(**kwargs)

    @pytest.mark.parametrize("field", ["fp_bits", "bp_bits"])
    @pytest.mark.parametrize(
        "bits", [b for b in range(1, 17) if b not in SUPPORTED_BITS]
    )
    def test_width_off_the_ladder_refused_at_construction(self, field, bits):
        """Only the quantizer's widths construct, whatever the modes: the
        trainer would refuse the rest in ``setup()`` or carry them unread."""
        with pytest.raises(ValueError, match=field):
            ECGraphConfig(**{field: bits})
        with pytest.raises(ValueError, match=field):
            ECGraphConfig(fp_mode="raw", bp_mode="raw", **{field: bits})

    @pytest.mark.parametrize(
        "name", [
            "table_mode", "codec_speedup", "delayed_rounds", "optimizer",
            "weight_decay",
        ]
    )
    def test_retired_knob_is_gone(self, name):
        with pytest.raises(TypeError):
            ECGraphConfig(**{name: 1})

    def test_field_count(self):
        assert len(dataclasses.fields(ECGraphConfig)) == 16

    def test_presets(self):
        base = ECGraphConfig()
        assert base.as_non_cp().fp_mode == "raw"
        assert base.as_non_cp().bp_mode == "raw"
        cp = base.as_cp_only()
        assert cp.fp_mode == "compress" and cp.bp_mode == "compress"
        assert not cp.adaptive_bits

    def test_presets_keep_other_fields(self):
        base = ECGraphConfig(fp_bits=8, learning_rate=0.5)
        assert base.as_cp_only().fp_bits == 8
        assert base.as_non_cp().learning_rate == 0.5

    def test_frozen(self):
        config = ECGraphConfig()
        with pytest.raises(AttributeError):
            config.fp_bits = 8
