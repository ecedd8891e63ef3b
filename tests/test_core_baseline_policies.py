"""Unit tests for the compression-baseline exchange policies (float16,
top-k, 1-bit) and trainer policy injection."""

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.cluster.serialize import MATRIX_PREFIX_BYTES, encode_raw
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.messages import ChannelKey
from repro.core.policies import Float16Policy, OneBitPolicy, TopKPolicy
from repro.core.trainer import ECGraphTrainer
from repro.engine.transport import _CODEC_KINDS

KEY = ChannelKey(layer=1, responder=0, requester=1)


@pytest.fixture
def rows():
    rng = np.random.default_rng(0)
    return rng.standard_normal((30, 16)).astype(np.float32)


def roundtrip(policy, rows):
    return policy.receive(KEY, policy.respond(KEY, rows, 0), 0)


class TestFloat16:
    def test_half_size(self, rows):
        message = Float16Policy().respond(KEY, rows, 0)
        assert message.nbytes == rows.nbytes // 2 + 24

    def test_small_error(self, rows):
        decoded = roundtrip(Float16Policy(), rows)
        assert np.abs(decoded - rows).max() < 0.01
        assert decoded.dtype == np.float32

    def test_half_representable_values_are_exact(self):
        x = np.array([[0.5, -1.25, 3.0, 0.0]], dtype=np.float32)
        np.testing.assert_array_equal(roundtrip(Float16Policy(), x), x)

    def test_refuses_an_indexed_block(self, rows):
        """A Delayed block frame is not a Float16 message: its row ids
        must not be dropped in silence."""
        message = Float16Policy().respond(KEY, rows, 0)
        message.frame = encode_raw(rows[:3], index=np.arange(3))
        with pytest.raises(ValueError, match="flag bits"):
            Float16Policy().receive(KEY, message, 0)


class TestTopK:
    def test_keeps_largest_magnitudes(self):
        x = np.array([[0.1, -5.0, 0.3, 2.0]], dtype=np.float32)
        decoded = roundtrip(TopKPolicy(k=2), x)
        np.testing.assert_allclose(decoded, [[0.0, -5.0, 0.0, 2.0]])

    def test_zeroes_small_entries(self, rows):
        decoded = roundtrip(TopKPolicy(k=2), rows)
        assert ((decoded != 0).sum(axis=1) <= 2).all()

    def test_k_at_least_cols_is_lossless(self, rows):
        np.testing.assert_allclose(
            roundtrip(TopKPolicy(k=64), rows), rows, atol=1e-6
        )

    def test_size_scales_with_k(self, rows):
        small = TopKPolicy(k=2).respond(KEY, rows, 0).nbytes
        large = TopKPolicy(k=8).respond(KEY, rows, 0).nbytes
        assert large > small

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TopKPolicy(k=0)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            TopKPolicy(k=1).respond(KEY, np.zeros(5, dtype=np.float32), 0)


class TestOneBit:
    def test_signs_preserved(self, rows):
        decoded = roundtrip(OneBitPolicy(), rows)
        np.testing.assert_array_equal(
            np.sign(decoded), np.where(rows >= 0, 1.0, -1.0)
        )

    def test_mean_magnitude_reconstruction(self):
        x = np.array([[1.0, 3.0], [-2.0, -4.0]], dtype=np.float32)
        np.testing.assert_allclose(
            roundtrip(OneBitPolicy(), x), [[2.0, 2.0], [-3.0, -3.0]]
        )

    def test_extreme_compression_ratio(self, rows):
        assert OneBitPolicy().respond(KEY, rows, 0).nbytes < rows.nbytes / 20

    def test_all_positive(self):
        x = np.ones((2, 4), dtype=np.float32)
        np.testing.assert_allclose(roundtrip(OneBitPolicy(), x), 1.0)

    def test_all_negative(self):
        x = np.full((3, 2), -2.5, dtype=np.float32)
        np.testing.assert_allclose(roundtrip(OneBitPolicy(), x), -2.5)

    def test_zero_matrix_decodes_to_zero(self):
        x = np.zeros((4, 3), dtype=np.float32)
        np.testing.assert_array_equal(roundtrip(OneBitPolicy(), x), x)


BASELINES = [Float16Policy(), TopKPolicy(k=2), OneBitPolicy()]


class TestRoundTripContract:
    """What the transport relies on from any policy: the decoded rows
    never alias the sender's rows, and the baselines keep no
    per-channel state."""

    @pytest.mark.parametrize("policy", BASELINES, ids=lambda p: p.name)
    def test_sender_rows_untouched_and_not_aliased(self, policy, rows):
        before = rows.copy()
        decoded = roundtrip(policy, rows)
        np.testing.assert_array_equal(rows, before)
        assert not np.shares_memory(decoded, rows)

    @pytest.mark.parametrize("policy", BASELINES, ids=lambda p: p.name)
    def test_stateless_across_channels_and_iterations(self, policy, rows):
        first = roundtrip(policy, rows)
        other = ChannelKey(layer=2, responder=1, requester=0)
        policy.receive(other, policy.respond(other, -rows, 3), 3)
        again = policy.receive(KEY, policy.respond(KEY, rows, 7), 7)
        np.testing.assert_array_equal(again, first)


class TestWireAccounting:
    """Every baseline frame is a matrix frame: the 16-byte header plus
    the 8-byte shape word its decoder needs, then its own payload; the
    decoded rows keep the served shape and are float32."""

    @staticmethod
    def _payload_bytes(policy, rows):
        num_rows, cols = rows.shape
        if isinstance(policy, Float16Policy):
            return rows.size * 2
        if isinstance(policy, TopKPolicy):
            return num_rows * min(policy.k, cols) * (4 + 4)
        return (rows.size + 7) // 8 + 2 * 4  # sign bits + two means

    @pytest.mark.parametrize("policy", BASELINES, ids=lambda p: p.name)
    @pytest.mark.parametrize("shape", [(30, 16), (7, 3), (1, 1), (0, 5)])
    def test_nbytes_counts_header_and_shape_word(self, policy, shape):
        rows = np.random.default_rng(1).standard_normal(shape).astype(
            np.float32
        )
        message = policy.respond(KEY, rows, 0)
        assert message.nbytes == (
            MATRIX_PREFIX_BYTES + self._payload_bytes(policy, rows)
        )
        decoded = policy.receive(KEY, message, 0)
        assert decoded.shape == shape
        assert decoded.dtype == np.float32

    @pytest.mark.parametrize("policy", BASELINES, ids=lambda p: p.name)
    def test_frames_are_charged_as_codec_work(self, policy, rows):
        kind = policy.respond(KEY, rows, 0).kind
        assert kind == "quant"
        assert kind in _CODEC_KINDS


class TestTrainerInjection:
    def test_fp_override_wins_over_config(self, small_graph):
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=4),
            ClusterSpec(num_workers=2),
            ECGraphConfig(fp_mode="raw", bp_mode="raw"),
            fp_policy=Float16Policy(),
        )
        trainer.setup()
        assert trainer._fp_policy.name == "float16"
        run = trainer.train(3)
        assert np.isfinite(run.epochs[-1].loss)

    def test_bp_override(self, small_graph):
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=4),
            ClusterSpec(num_workers=2),
            ECGraphConfig(fp_mode="raw", bp_mode="raw"),
            bp_policy=OneBitPolicy(),
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
            fp_policy=Float16Policy(),
        ).train(5)
        for a, b in zip(raw.epochs, f16.epochs):
            assert a.loss == pytest.approx(b.loss, rel=1e-2)
