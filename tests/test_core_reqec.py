"""Unit tests for ReqEC-FP: trend groups, the Selector and reconstruction."""

import numpy as np
import pytest

from reqec_owners import bind
from frames import payload
from repro.core.bit_tuner import BitTuner
from repro.core.messages import ChannelKey
from repro.core.reqec_fp import (
    SELECT_AVERAGE,
    SELECT_COMPRESSED,
    SELECT_PREDICTED,
    ReqECPolicy,
)

KEY = ChannelKey(layer=1, responder=0, requester=1)


def _policy(rows, bits=4, period=4, granularity="vertex", adaptive=False):
    """A policy whose owner serves ``KEY`` ``rows`` rows."""
    tuner = BitTuner(initial_bits=bits, enabled=adaptive)
    policy = ReqECPolicy(tuner, trend_period=period, granularity=granularity)
    return bind(policy, {KEY.pair: rows})


def _trend(policy, key=KEY):
    """The channel's ``(H_last, M_cr, boundary_t)`` as its table holds
    them (copies: the table is updated in place at each boundary)."""
    channel = policy._channels[key]
    table_key, idx = policy._locate(key)
    table = policy._tables[table_key]
    m_cr = table.m_cr[idx].copy()
    if channel.zero_rate:
        m_cr[:] = 0.0
    return table.h_last[idx].copy(), m_cr, channel.boundary_t


def _roundtrip(policy, rows, t):
    message = policy.respond(KEY, rows, t)
    return policy.receive(KEY, message, t), message


class TestSchedule:
    def test_boundary_iteration_exact(self):
        policy = _policy(6, period=4)
        rows = np.random.default_rng(0).random((6, 3)).astype(np.float32)
        result, message = _roundtrip(policy, rows, t=3)  # (3+1) % 4 == 0
        assert message.kind == "exact"
        np.testing.assert_array_equal(result, rows)

    def test_pre_boundary_is_compressed_only(self):
        policy = _policy(6, period=4)
        rows = np.random.default_rng(0).random((6, 3)).astype(np.float32)
        _, message = _roundtrip(policy, rows, t=0)
        assert message.kind == "quant"

    def test_post_boundary_uses_selector(self):
        policy = _policy(6, period=4)
        rng = np.random.default_rng(0)
        rows = rng.random((6, 3)).astype(np.float32)
        _roundtrip(policy, rows, t=3)  # boundary primes the trend
        _, message = _roundtrip(policy, rows, t=4)
        assert message.kind == "selector"

    def test_requester_derives_changing_rate(self):
        """The boundary message carries the rows and a flag, no matrix;
        the *requester's* state ends up ``(rows1 - rows0) / T_tr``."""
        policy = _policy(4, period=2)
        rows0 = np.zeros((4, 2), dtype=np.float32)
        rows1 = np.ones((4, 2), dtype=np.float32) * 2.0
        _, first = _roundtrip(policy, rows0, t=1)  # first boundary
        assert payload(first)[1] is False  # no base: both ends use zeros
        np.testing.assert_array_equal(
            _trend(policy)[1], np.zeros_like(rows0)
        )
        _, message = _roundtrip(policy, rows1, t=3)  # second boundary
        sent, has_base = payload(message)
        assert (message.kind, has_base) == ("exact", True)
        np.testing.assert_array_equal(sent, rows1)
        np.testing.assert_array_equal(
            _trend(policy)[1], (rows1 - rows0) / 2
        )

    def test_separate_processes_derive_the_same_rate(self):
        """With one policy object per end (the real system's layout) the
        requester keeps its own table, derived from the rows it received
        and bit-equal to the responder's."""
        responder, requester = _policy(6, period=2), _policy(6, period=2)
        rng = np.random.default_rng(9)
        for t in (1, 3, 5):
            rows = rng.standard_normal((6, 3)).astype(np.float32)
            requester.receive(KEY, responder.respond(KEY, rows, t), t)
            (table_key,) = requester._tables
            assert (requester._tables[table_key]
                    is not responder._tables[table_key])
            mine, theirs = _trend(requester), _trend(responder)
            np.testing.assert_array_equal(mine[0], theirs[0])
            np.testing.assert_array_equal(mine[1], theirs[1])
            assert mine[2] == theirs[2] == t


class TestSelector:
    def test_linear_trend_selects_predicted(self):
        """Embeddings moving at a constant rate are perfectly predicted,
        so the Selector should pick `predicted` and send no payload."""
        policy = _policy(8, period=4, bits=1)
        base = np.random.default_rng(0).random((8, 4)).astype(np.float32)
        step = np.full_like(base, 0.01)
        # Two boundaries establish the rate.
        _roundtrip(policy, base, t=3)
        _roundtrip(policy, base + 4 * step, t=7)
        result, message = _roundtrip(policy, base + 5 * step, t=8)
        selection = payload(message)[0]
        assert (selection == SELECT_PREDICTED).mean() > 0.9
        assert message.meta["proportion"] > 0.9
        np.testing.assert_allclose(
            result, base + 5 * step, atol=1e-3
        )

    def test_static_then_jump_selects_compressed(self):
        """After an abrupt change the prediction is stale; the quantized
        rows win."""
        policy = _policy(8, period=4, bits=8)
        rng = np.random.default_rng(1)
        rows = rng.random((8, 4)).astype(np.float32)
        _roundtrip(policy, rows, t=3)
        _roundtrip(policy, rows, t=7)  # rate == 0
        jumped = rows + rng.random((8, 4)).astype(np.float32) * 5.0
        _, message = _roundtrip(policy, jumped, t=8)
        selection = payload(message)[0]
        assert (selection == SELECT_COMPRESSED).mean() > 0.5

    def test_reconstruction_matches_selected_candidates(self):
        policy = _policy(10, period=4, bits=4)
        rng = np.random.default_rng(2)
        rows = rng.random((10, 3)).astype(np.float32)
        _roundtrip(policy, rows, t=3)
        drifted = rows + rng.normal(0, 0.05, rows.shape).astype(np.float32)
        result, message = _roundtrip(policy, drifted, t=4)
        # Reconstruction error must be no worse than pure quantization
        # over the full matrix (the Selector picks the best per vertex).
        from repro.compression.quantization import BucketQuantizer

        cps_err = np.abs(
            BucketQuantizer(4).quantize(drifted) - drifted
        ).sum(axis=1)
        rec_err = np.abs(result - drifted).sum(axis=1)
        assert (rec_err <= cps_err + 1e-4).all()

    def test_average_candidate_reconstruction(self):
        policy = _policy(30, period=4, bits=2)
        rng = np.random.default_rng(3)
        rows = rng.random((30, 4)).astype(np.float32)
        _roundtrip(policy, rows, t=3)
        drifted = rows + 0.08
        result, message = _roundtrip(policy, drifted, t=4)
        selection = payload(message)[0]
        if (selection == SELECT_AVERAGE).any():
            # Averaged rows must equal (predicted + compressed) / 2.
            avg_rows = np.flatnonzero(selection == SELECT_AVERAGE)
            assert np.abs(result[avg_rows] - drifted[avg_rows]).max() < 0.5


class TestGranularities:
    @pytest.mark.parametrize("granularity", ["vertex", "matrix", "element"])
    def test_all_granularities_reconstruct(self, granularity):
        policy = _policy(12, period=3, granularity=granularity, bits=8)
        rng = np.random.default_rng(4)
        rows = rng.random((12, 5)).astype(np.float32)
        _roundtrip(policy, rows, t=2)
        drifted = rows + rng.normal(0, 0.02, rows.shape).astype(np.float32)
        result, _ = _roundtrip(policy, drifted, t=3)
        assert np.abs(result - drifted).max() < 0.1

    def test_matrix_granularity_single_choice(self):
        policy = _policy(10, period=3, granularity="matrix")
        rng = np.random.default_rng(5)
        rows = rng.random((10, 4)).astype(np.float32)
        _roundtrip(policy, rows, t=2)
        _, message = _roundtrip(policy, rows + 0.01, t=3)
        selection = payload(message)[0]
        assert len(np.unique(selection)) == 1

    def test_element_selection_shape(self):
        policy = _policy(7, period=3, granularity="element")
        rng = np.random.default_rng(6)
        rows = rng.random((7, 5)).astype(np.float32)
        _roundtrip(policy, rows, t=2)
        _, message = _roundtrip(policy, rows + 0.01, t=3)
        assert payload(message)[0].shape == (7, 5)

    def test_unknown_granularity_rejected(self):
        with pytest.raises(ValueError):
            _policy(6, granularity="row")


class TestCosts:
    def test_predicted_rows_save_bytes(self):
        """A channel with perfectly predictable rows ships less than one
        with unpredictable rows."""
        rng = np.random.default_rng(7)
        base = rng.random((64, 16)).astype(np.float32)
        step = np.full_like(base, 0.01)

        predictable = _policy(64, period=4, bits=8)
        for t, rows in [(3, base), (7, base + 4 * step)]:
            predictable.respond(KEY, rows, t)
        good = predictable.respond(KEY, base + 5 * step, 8)

        noisy = _policy(64, period=4, bits=8)
        for t, rows in [(3, base), (7, base + 4 * step)]:
            noisy.respond(KEY, rows, t)
        random_rows = rng.random((64, 16)).astype(np.float32) * 3.0
        bad = noisy.respond(KEY, random_rows, 8)
        assert good.nbytes < bad.nbytes

    def test_exact_message_is_header_plus_raw_size(self):
        policy = _policy(10, period=2)
        rows = np.zeros((10, 8), dtype=np.float32)
        for t in (1, 3):  # without and with a base: the same size
            message = policy.respond(KEY, rows, t=t)
            assert message.nbytes == 24 + rows.nbytes


class TestErrors:
    def test_selector_before_boundary_on_requester_raises(self):
        responder = _policy(4, period=4)
        rows = np.random.default_rng(8).random((4, 2)).astype(np.float32)
        responder.respond(KEY, rows, t=3)  # prime responder only
        message = responder.respond(KEY, rows, t=4)
        fresh_requester = _policy(4, period=4)
        with pytest.raises(RuntimeError, match="exact trend snapshot"):
            fresh_requester.receive(KEY, message, t=4)

    def test_flagged_boundary_without_requester_snapshot_raises(self):
        """A set ``has_base`` flag the requester cannot honour is a
        protocol error, never a silent zeros fallback."""
        responder = _policy(4, period=2)
        rows = np.random.default_rng(8).random((4, 2)).astype(np.float32)
        responder.respond(KEY, rows, t=1)
        message = responder.respond(KEY, rows + 1.0, t=3)
        assert payload(message)[1] is True
        with pytest.raises(RuntimeError, match="does not hold"):
            _policy(4, period=2).receive(KEY, message, t=3)
        # A snapshot of another shape: the requester's owner served two
        # rows at t=1, then a re-plan (a new serve plan object) serves
        # four — the old snapshot is no base for them.
        stale_shape = _policy(2, period=2)
        stale_shape.receive(
            KEY, _policy(2, period=2).respond(KEY, rows[:2], t=1), t=1
        )
        owner = stale_shape._workers[KEY.responder]
        owner.serves = {KEY.requester: np.arange(4)}
        owner.sub.local_vertices = np.arange(4)
        with pytest.raises(RuntimeError, match="does not hold"):
            stale_shape.receive(KEY, message, t=3)

    def test_disagreeing_ends_raise(self):
        """Both ends in one process: table rows that differ from the
        rows the requester received are caught at the boundary, not
        trained on."""
        policy = _policy(4, period=2)
        rows = np.random.default_rng(8).random((4, 2)).astype(np.float32)
        _roundtrip(policy, rows, t=1)
        message = policy.respond(KEY, rows * 2.0, t=3)
        (table,) = policy._tables.values()
        table.h_last[0, 0] += 1.0
        with pytest.raises(RuntimeError, match="different trend snapshots"):
            policy.receive(KEY, message, t=3)

    def test_shared_rows_that_differ_raise(self):
        """Two channels of one owner share a row: the second channel to
        reach it at a boundary must bring the same bits."""
        from types import SimpleNamespace

        owner = SimpleNamespace(
            serves={1: np.array([0, 1]), 2: np.array([1, 2])},
            sub=SimpleNamespace(local_vertices=np.array([10, 11, 12])),
        )
        policy = ReqECPolicy(BitTuner(initial_bits=4, enabled=False), 2)
        policy.bind_plan([owner], lossy=False)
        rows = np.ones((2, 3), dtype=np.float32)
        policy.respond(ChannelKey(1, 0, 1), rows, t=1)
        with pytest.raises(RuntimeError, match="differ at boundary"):
            policy.respond(ChannelKey(1, 0, 2), rows * 2.0, t=1)

    def test_unbound_policy_raises(self):
        """Trend tables are keyed by owner: a policy never bound to a
        worker list refuses its first boundary instead of guessing."""
        policy = ReqECPolicy(BitTuner(initial_bits=4, enabled=False), 2)
        rows = np.zeros((4, 2), dtype=np.float32)
        with pytest.raises(RuntimeError, match="bind_plan"):
            policy.respond(KEY, rows, t=1)

    def test_sampled_subset_unsupported(self):
        policy = _policy(4)
        rows = np.zeros((4, 2), dtype=np.float32)
        with pytest.raises(NotImplementedError):
            policy.respond(KEY, rows, t=0, rows_mask=np.array([True, True, False, False]))

    def test_reset_clears_trend(self):
        policy = _policy(4, period=2)
        rows = np.zeros((4, 2), dtype=np.float32)
        policy.respond(KEY, rows, t=1)
        policy.reset()
        message = policy.respond(KEY, rows, t=2)
        assert message.kind == "quant"


def _assert_trend_unchanged(policy, before):
    after = _trend(policy)
    np.testing.assert_array_equal(after[0], before[0])
    np.testing.assert_array_equal(after[1], before[1])
    assert after[2] == before[2]


@pytest.mark.parametrize("granularity", ["vertex", "matrix", "element"])
class TestNoAliasingBetweenEnds:
    """In-place candidate math and the boundary snapshot must not couple
    the caller, the message on the wire and the trend table both ends
    share: whatever either side does to an array it was handed, the
    table stays what the protocol put there."""

    def _primed(self, granularity):
        policy = _policy(12, period=4, granularity=granularity, bits=4)
        rng = np.random.default_rng(11)
        rows = rng.random((12, 5)).astype(np.float32)
        _roundtrip(policy, rows, t=3)
        drifted = rows + rng.normal(0, 0.05, rows.shape).astype(np.float32)
        return policy, rows, drifted

    def test_boundary_snapshot_is_shared_read_only(self, granularity):
        policy, _, drifted = self._primed(granularity)
        original = drifted.copy()
        message = policy.respond(KEY, drifted, t=7)
        result = policy.receive(KEY, message, t=7)
        before = _trend(policy)

        drifted += 100.0  # the caller reuses its buffer
        _assert_trend_unchanged(policy, before)
        np.testing.assert_array_equal(before[0], original)
        sent_rows, has_base = payload(message)
        assert has_base is True
        # The RSS invariant: both ends read the one table; what they
        # hand out is the read-only frame payload, never the table
        # itself, and no copy of it.
        (table,) = policy._tables.values()
        assert np.shares_memory(result, sent_rows)
        assert not np.shares_memory(sent_rows, table.h_last)
        for shared in (sent_rows, result):
            assert not shared.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                shared[0, 0] = -1.0
        _assert_trend_unchanged(policy, before)

    def test_in_group_roundtrip_leaves_trend_alone(self, granularity):
        policy, _, drifted = self._primed(granularity)
        before = _trend(policy)
        original = drifted.copy()

        message = policy.respond(KEY, drifted, t=4)
        np.testing.assert_array_equal(drifted, original)  # input untouched
        result = policy.receive(KEY, message, t=4)
        _assert_trend_unchanged(policy, before)

        # The halo matrix the kernels read is the requester's to keep.
        expected = result.copy()
        result[:] = np.nan
        drifted[:] = np.nan
        _assert_trend_unchanged(policy, before)

        # Decoding the same message again rebuilds the same rows ...
        again = policy.receive(KEY, message, t=4)
        np.testing.assert_array_equal(again, expected)

        # ... and scribbling over the payload cannot reach either end.
        selection, quantized, _ = payload(message)
        selection[:] = 0
        quantized.packed[:] = 0
        quantized.bucket_values[:] = 0.0
        _assert_trend_unchanged(policy, before)

    def test_compressed_only_roundtrip_holds_no_state(self, granularity):
        policy = _policy(6, period=4, granularity=granularity, bits=8)
        rows = np.random.default_rng(12).random((6, 3)).astype(np.float32)
        original = rows.copy()
        result, message = _roundtrip(policy, rows, t=0)
        np.testing.assert_array_equal(rows, original)
        result[:] = 0.0
        payload(message).packed[:] = 0
        assert not policy._channels and not policy._tables
