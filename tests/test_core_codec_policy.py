"""Unit tests for the CodecPolicy adapter and trainer policy injection."""

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.compression import Float16Codec, OneBitCodec, TopKCodec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.messages import ChannelKey
from repro.core.policies import CodecPolicy
from repro.core.trainer import ECGraphTrainer

KEY = ChannelKey(layer=1, responder=0, requester=1)


@pytest.fixture
def rows():
    rng = np.random.default_rng(0)
    return rng.standard_normal((15, 8)).astype(np.float32)


class TestCodecPolicy:
    def test_float16_roundtrip(self, rows):
        policy = CodecPolicy(Float16Codec())
        result = policy.receive(KEY, policy.respond(KEY, rows, 0), 0)
        np.testing.assert_allclose(result.rows, rows, atol=0.01)

    def test_topk_zeroes_small_entries(self, rows):
        policy = CodecPolicy(TopKCodec(k=2))
        result = policy.receive(KEY, policy.respond(KEY, rows, 0), 0)
        nonzero_per_row = (result.rows != 0).sum(axis=1)
        assert (nonzero_per_row <= 2).all()

    def test_onebit_extreme_ratio(self, rows):
        policy = CodecPolicy(OneBitCodec())
        message = policy.respond(KEY, rows, 0)
        assert message.nbytes < rows.nbytes / 10

    def test_name_includes_codec(self):
        assert CodecPolicy(OneBitCodec()).name == "codec:onebit"


class TestTrainerInjection:
    def test_fp_override_wins_over_config(self, small_graph):
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=4),
            ClusterSpec(num_workers=2),
            ECGraphConfig(fp_mode="raw", bp_mode="raw"),
            fp_policy=CodecPolicy(Float16Codec()),
        )
        trainer.setup()
        assert trainer._fp_policy.name == "codec:float16"
        run = trainer.train(3)
        assert np.isfinite(run.epochs[-1].loss)

    def test_bp_override(self, small_graph):
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=4),
            ClusterSpec(num_workers=2),
            ECGraphConfig(fp_mode="raw", bp_mode="raw"),
            bp_policy=CodecPolicy(OneBitCodec()),
        )
        run = trainer.train(3)
        assert np.isfinite(run.epochs[-1].loss)

    def test_float16_fp_matches_raw_closely(self, small_graph):
        """float16 forward exchange is near-lossless: losses track raw."""
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=1)
        raw = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=4),
            ClusterSpec(num_workers=2), config,
        ).train(5)
        f16 = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=4),
            ClusterSpec(num_workers=2), config,
            fp_policy=CodecPolicy(Float16Codec()),
        ).train(5)
        for a, b in zip(raw.epochs, f16.epochs):
            assert a.loss == pytest.approx(b.loss, rel=1e-2)
