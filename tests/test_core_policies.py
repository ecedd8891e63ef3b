"""Unit tests for the raw, compress and delayed exchange policies."""

import numpy as np
import pytest

from repro.cluster.serialize import decode_rows, encode_raw
from repro.core.messages import ChannelKey, RawPolicy
from repro.core.policies import CompressPolicy, DelayedPolicy

KEY = ChannelKey(layer=1, responder=0, requester=1)


@pytest.fixture
def rows():
    rng = np.random.default_rng(0)
    return rng.standard_normal((20, 8)).astype(np.float32)


class TestRawPolicy:
    def test_lossless(self, rows):
        policy = RawPolicy()
        message = policy.respond(KEY, rows, t=0)
        result = policy.receive(KEY, message, t=0)
        np.testing.assert_array_equal(result, rows)

    def test_size_is_raw(self, rows):
        message = RawPolicy().respond(KEY, rows, t=0)
        assert message.nbytes == rows.nbytes + 24


class TestCompressPolicy:
    def test_bounded_error(self, rows):
        policy = CompressPolicy(bits=8)
        message = policy.respond(KEY, rows, t=0)
        result = policy.receive(KEY, message, t=0)
        span = rows.max() - rows.min()
        assert np.abs(result - rows).max() <= span / 512 + 1e-5

    def test_smaller_than_raw(self, rows):
        policy = CompressPolicy(bits=2)
        assert policy.respond(KEY, rows, t=0).nbytes < rows.nbytes / 4

    def test_name(self):
        assert CompressPolicy(bits=4).name == "compress4"


class TestDelayedPolicy:
    def test_first_iteration_full(self, rows):
        policy = DelayedPolicy(rounds=4)
        message = policy.respond(KEY, rows, t=0)
        result = policy.receive(KEY, message, t=0)
        np.testing.assert_array_equal(result, rows)

    def test_block_refresh_partial(self, rows):
        policy = DelayedPolicy(rounds=4)
        policy.receive(KEY, policy.respond(KEY, rows, t=0), t=0)
        fresh = rows + 100.0
        result = policy.receive(KEY, policy.respond(KEY, fresh, t=1), t=1)
        block = np.arange(20) % 4 == 1
        np.testing.assert_array_equal(result[block], fresh[block])
        np.testing.assert_array_equal(result[~block], rows[~block])

    def test_full_refresh_after_r_rounds(self, rows):
        policy = DelayedPolicy(rounds=3)
        policy.receive(KEY, policy.respond(KEY, rows, t=0), t=0)
        fresh = rows * -1.0
        for t in range(1, 4):
            result = policy.receive(KEY, policy.respond(KEY, fresh, t=t), t=t)
        np.testing.assert_array_equal(result, fresh)

    def test_block_message_smaller(self, rows):
        policy = DelayedPolicy(rounds=4)
        full = policy.respond(KEY, rows, t=0)
        policy.receive(KEY, full, t=0)
        block = policy.respond(KEY, rows, t=1)
        assert block.nbytes < full.nbytes

    def test_block_before_full_raises(self, rows):
        policy = DelayedPolicy(rounds=2)
        message = policy.respond(KEY, rows, t=1)  # t=1: block message
        # But first refresh at t=0 never happened on requester side:
        # responder sent full at t=1 because cache is empty, so simulate
        # a block payload against an empty cache directly.
        policy.respond(KEY, rows, t=1)
        policy._cache.clear()
        message.frame = encode_raw(rows[:1], index=np.array([0]))
        with pytest.raises(RuntimeError):
            policy.receive(KEY, message, t=1)

    def test_refuses_half_width_rows(self, rows):
        """A Float16 frame is not a Delayed refresh: the cache holds
        float32 rows and ``receive`` returns float32."""
        policy = DelayedPolicy(rounds=2)
        message = policy.respond(KEY, rows, t=0)
        message.frame = encode_raw(rows.astype(np.float16))
        with pytest.raises(ValueError, match="flag bits"):
            policy.receive(KEY, message, t=0)

    @pytest.mark.parametrize("row", [-1, 10**6])
    def test_block_rows_outside_the_channel_raise(self, rows, row):
        """A block's row ids are wire data: one outside the channel is a
        ValueError, never an IndexError or a negative index that wraps."""
        policy = DelayedPolicy(rounds=2)
        policy.receive(KEY, policy.respond(KEY, rows, t=0), t=0)
        message = policy.respond(KEY, rows, t=1)
        message.frame = encode_raw(rows[:1], index=np.array([row]))
        with pytest.raises(ValueError, match="outside"):
            policy.receive(KEY, message, t=1)

    def test_reset_clears_cache(self, rows):
        policy = DelayedPolicy(rounds=2)
        policy.receive(KEY, policy.respond(KEY, rows, t=0), t=0)
        policy.reset()
        # After reset, the responder sends full again.
        message = policy.respond(KEY, rows, t=5)
        assert decode_rows(message.frame)[0] is None  # full: no row ids

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            DelayedPolicy(rounds=0)

    def test_independent_channels(self, rows):
        policy = DelayedPolicy(rounds=2)
        other = ChannelKey(layer=2, responder=0, requester=1)
        policy.receive(KEY, policy.respond(KEY, rows, t=0), t=0)
        message = policy.respond(other, rows, t=3)
        # Other channel still cold: a full refresh carries no row ids.
        assert decode_rows(message.frame)[0] is None
