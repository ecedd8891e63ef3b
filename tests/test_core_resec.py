"""Unit + property tests for ResEC-BP error feedback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frames import payload
from repro.compression.quantization import SUPPORTED_BITS, BucketQuantizer
from repro.core.messages import ChannelKey
from repro.core.resec_bp import ResECPolicy

KEY = ChannelKey(layer=2, responder=0, requester=1)


class TestErrorFeedback:
    def test_single_roundtrip_close(self):
        policy = ResECPolicy(bits=8)
        rows = np.random.default_rng(0).standard_normal((10, 4)).astype(np.float32)
        result = policy.receive(KEY, policy.respond(KEY, rows, t=0), t=0)
        span = rows.max() - rows.min()
        assert np.abs(result - rows).max() <= span / 512 + 1e-5

    def test_residual_carries_into_next_iteration(self):
        """Eq. 11/12: what was lost at t is added back at t+1, so the
        *cumulative* delivered sum tracks the cumulative true sum."""
        policy = ResECPolicy(bits=2)
        rng = np.random.default_rng(1)
        true_sum = np.zeros((6, 3), dtype=np.float64)
        sent_sum = np.zeros((6, 3), dtype=np.float64)
        for t in range(30):
            rows = rng.standard_normal((6, 3)).astype(np.float32)
            result = policy.receive(KEY, policy.respond(KEY, rows, t), t)
            true_sum += rows
            sent_sum += result
        # Telescoping: |sum difference| == |last residual|, bounded by
        # the one-step quantization error, NOT growing with T.
        residual = policy.residual_norm(KEY)
        gap = np.linalg.norm(true_sum - sent_sum)
        assert gap == pytest.approx(residual, rel=1e-3)

    def test_without_feedback_errors_accumulate(self):
        """Plain quantization drifts; error feedback does not."""
        rng = np.random.default_rng(2)
        quantizer = BucketQuantizer(1)
        rows_stream = [
            rng.standard_normal((8, 4)).astype(np.float32) for _ in range(40)
        ]

        policy = ResECPolicy(bits=1)
        fed_gap = np.zeros((8, 4), dtype=np.float64)
        plain_gap = np.zeros((8, 4), dtype=np.float64)
        for t, rows in enumerate(rows_stream):
            delivered = policy.receive(
                KEY, policy.respond(KEY, rows, t), t
            )
            fed_gap += rows - delivered
            plain_gap += rows - quantizer.quantize(rows)
        assert np.linalg.norm(fed_gap) < np.linalg.norm(plain_gap)

    def test_constant_gradient_converges_in_mean(self):
        """For a constant input the delivered average approaches the truth."""
        policy = ResECPolicy(bits=1)
        rows = np.full((4, 4), 0.37, dtype=np.float32)
        delivered = np.zeros_like(rows, dtype=np.float64)
        steps = 64
        for t in range(steps):
            delivered += policy.receive(
                KEY, policy.respond(KEY, rows, t), t
            )
        np.testing.assert_allclose(delivered / steps, 0.37, atol=0.02)

    def test_channels_independent(self):
        policy = ResECPolicy(bits=2)
        other = ChannelKey(layer=3, responder=0, requester=1)
        rows = np.ones((4, 2), dtype=np.float32)
        policy.respond(KEY, rows, t=0)
        assert policy.residual_norm(other) == 0.0

    def test_reset(self):
        policy = ResECPolicy(bits=2)
        rows = np.random.default_rng(3).random((4, 2)).astype(np.float32)
        policy.respond(KEY, rows, t=0)
        policy.reset()
        assert policy.residual_norm(KEY) == 0.0


def _mask(size, rows):
    mask = np.zeros(size, dtype=bool)
    mask[rows] = True
    return mask


class TestSampledMode:
    def test_masked_respond_sizes_a_fresh_channel(self):
        """The first masked respond allocates the full-channel residual
        from ``mask.size``; only the masked rows are updated, the rest
        stay zero."""
        policy = ResECPolicy(bits=4)
        mask = _mask(10, [1, 4, 7])
        rows = np.random.default_rng(4).standard_normal((3, 3)).astype(
            np.float32
        )
        message = policy.respond(KEY, rows, t=0, rows_mask=mask)
        residual = policy._residual[KEY]
        assert residual.shape == (10, 3)
        assert residual.dtype == np.float32
        assert not residual[~mask].any()
        assert residual[mask].any()
        assert policy.receive(KEY, message, t=0).shape == (3, 3)

    def test_subset_residual_rows_updated_only(self):
        policy = ResECPolicy(bits=1)
        rows = np.full((2, 2), 0.9, dtype=np.float32)
        policy.respond(KEY, rows, t=0, rows_mask=_mask(6, [0, 1]))
        residual = policy._residual[KEY]
        assert residual[2:].sum() == 0.0


@given(
    bits=st.sampled_from([1, 2, 4]),
    steps=st.integers(5, 25),
    seed=st.integers(0, 1000),
)
@settings(max_examples=25, deadline=None)
def test_property_telescoping_gap_equals_residual(bits, steps, seed):
    """Invariant: sum(true) - sum(delivered) == current residual, exactly
    (up to float32 accumulation)."""
    policy = ResECPolicy(bits=bits)
    key = ChannelKey(layer=2, responder=0, requester=1)
    rng = np.random.default_rng(seed)
    gap = np.zeros((5, 3), dtype=np.float64)
    for t in range(steps):
        rows = rng.standard_normal((5, 3)).astype(np.float32)
        delivered = policy.receive(
            key, policy.respond(key, rows, t), t
        )
        gap += rows.astype(np.float64) - delivered.astype(np.float64)
    assert np.linalg.norm(gap) == pytest.approx(
        policy.residual_norm(key), rel=1e-2, abs=1e-3
    )


@pytest.mark.parametrize("bits", SUPPORTED_BITS)
def test_residual_is_exactly_compensated_minus_delivered(bits):
    """Eq. 11 to the last bit at every width: the residual equals the
    compensated rows minus what the requester decodes."""
    policy = ResECPolicy(bits=bits)
    rng = np.random.default_rng(bits)
    rows = rng.standard_normal((37, 5)).astype(np.float32)
    first = policy.respond(KEY, rows, t=0)
    np.testing.assert_array_equal(
        policy._residual[KEY], rows - payload(first).decode()
    )
    carried = policy._residual[KEY].copy()
    second = policy.respond(KEY, rows, t=1)
    np.testing.assert_array_equal(
        policy._residual[KEY], (rows + carried) - payload(second).decode()
    )


class TestNoAliasing:
    """The residual is formed in place from the decoded rows; neither the
    caller's gradient rows, nor the message, nor the decoded rows may
    share memory with it."""

    def test_full_channel_residual_is_private(self):
        policy = ResECPolicy(bits=8)  # 8-bit packing is a view of the ids
        rng = np.random.default_rng(20)
        rows = rng.standard_normal((9, 4)).astype(np.float32)
        original = rows.copy()
        policy.respond(KEY, rows, t=0)
        carried = policy._residual[KEY].copy()
        message = policy.respond(KEY, rows, t=1)
        np.testing.assert_array_equal(rows, original)  # input untouched
        residual = policy._residual[KEY].copy()

        result = policy.receive(KEY, message, t=1)
        expected = result.copy()
        rows[:] = np.nan
        result[:] = np.nan
        np.testing.assert_array_equal(policy._residual[KEY], residual)
        np.testing.assert_array_equal(
            policy.receive(KEY, message, t=1), expected
        )

        payload(message).packed[:] = 0
        payload(message).bucket_values[:] = 0.0
        np.testing.assert_array_equal(policy._residual[KEY], residual)
        # Eq. 11 on the untouched inputs: residual + delivered == truth.
        np.testing.assert_allclose(
            residual + expected, original + carried, atol=1e-6
        )

    def test_sampled_rows_mask_branch(self):
        policy = ResECPolicy(bits=4)
        rng = np.random.default_rng(21)
        idx = np.array([1, 4, 7])
        rows = rng.standard_normal((3, 3)).astype(np.float32)
        original = rows.copy()
        message = policy.respond(KEY, rows, t=0, rows_mask=_mask(10, idx))
        np.testing.assert_array_equal(rows, original)
        residual = policy._residual[KEY].copy()
        untouched = np.setdiff1d(np.arange(10), idx)
        assert not residual[untouched].any()
        np.testing.assert_allclose(
            residual[idx] + payload(message).decode(), original, atol=1e-6
        )

        result = policy.receive(KEY, message, t=0)
        rows[:] = np.nan
        result[:] = np.nan
        payload(message).packed[:] = 0
        payload(message).bucket_values[:] = 0.0
        np.testing.assert_array_equal(policy._residual[KEY], residual)

