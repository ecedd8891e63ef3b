"""Unit tests for the halo transport (the paper's Neighbor Access
Controller): forward and reverse exchanges on bare worker states."""

import itertools

import numpy as np
import pytest

from repro.cluster.engine import ClusterRuntime
from repro.cluster.serialize import decode_raw, encode_raw
from repro.cluster.topology import ClusterSpec
from repro.core.messages import (
    ChannelKey,
    ChannelMessage,
    ExchangePolicy,
    RawPolicy,
)
from repro.core.policies import (
    CompressPolicy,
    DelayedPolicy,
    Float16Policy,
    OneBitPolicy,
    TopKPolicy,
)
from repro.core.worker import build_worker_states
from repro.engine.transport import HaloTransport
from repro.graph.normalize import normalized_adjacency
from repro.partition.hashing import HashPartitioner


@pytest.fixture
def setup(small_graph):
    normalized = normalized_adjacency(small_graph.adjacency)
    partition = HashPartitioner().partition(small_graph.adjacency, 3)
    workers = build_worker_states(small_graph, normalized, partition)
    runtime = ClusterRuntime(ClusterSpec(num_workers=3))
    transport = HaloTransport(runtime, workers)
    return small_graph, workers, runtime, transport


class TestForwardExchange:
    def test_raw_exchange_delivers_owner_rows(self, setup):
        graph, workers, runtime, transport = setup
        rng = np.random.default_rng(0)
        values = [rng.random((s.num_local, 5)).astype(np.float32)
                  for s in workers]
        halos = transport.exchange(
            layer=1, t=0,
            rows_of=lambda s: values[s.worker_id],
            policy=RawPolicy(), category="fp_embeddings", dim=5,
        )
        for state in workers:
            for owner, slots in state.halo_slots.items():
                owner_rows = workers[owner].serves[state.worker_id]
                np.testing.assert_array_equal(
                    halos[state.worker_id][slots],
                    values[owner][owner_rows],
                )

    def test_traffic_charged_per_channel(self, setup):
        graph, workers, runtime, transport = setup
        values = [np.zeros((s.num_local, 4), dtype=np.float32)
                  for s in workers]
        transport.exchange(
            layer=1, t=0, rows_of=lambda s: values[s.worker_id],
            policy=RawPolicy(), category="fp_embeddings", dim=4,
        )
        assert runtime.meter.epoch_bytes() > 0
        assert "fp_embeddings" in runtime.meter.epoch_category_bytes()

    def test_compressed_exchange_close(self, setup):
        graph, workers, runtime, transport = setup
        rng = np.random.default_rng(1)
        values = [rng.random((s.num_local, 6)).astype(np.float32)
                  for s in workers]
        halos = transport.exchange(
            layer=1, t=0, rows_of=lambda s: values[s.worker_id],
            policy=CompressPolicy(bits=8), category="fp_embeddings", dim=6,
        )
        for state in workers:
            for owner, slots in state.halo_slots.items():
                owner_rows = workers[owner].serves[state.worker_id]
                np.testing.assert_allclose(
                    halos[state.worker_id][slots],
                    values[owner][owner_rows],
                    atol=0.01,
                )

    def test_codec_time_discounted(self, setup):
        graph, workers, runtime, transport = setup
        values = [np.random.default_rng(2).random(
            (s.num_local, 64)).astype(np.float32) for s in workers]
        transport.exchange(
            layer=1, t=0, rows_of=lambda s: values[s.worker_id],
            policy=CompressPolicy(bits=8), category="x", dim=64,
        )
        # Compute was charged, but far less than a full undiscounted
        # Python quantization pass would cost.
        breakdown = runtime.end_epoch()
        assert breakdown.compute_seconds > 0


# Wall seconds of every call under the stepped clock, and what the
# transport charges for it per frame kind (CODEC_SPEEDUP = 20).
_STEP = 20.0
_CHARGE = {"raw": 20.0, "exact": 20.0, "selector": 1.0, "quant": 1.0,
           "codec": 1.0, "delayed": 20.0}


class _FramePolicy(ExchangePolicy):
    """Ships the served rows in a RAW frame under a fixed ledger kind
    and does no work."""

    name = "frame"

    def __init__(self, kind):
        self.kind = kind

    def respond(self, key, rows, t, rows_mask=None):
        return ChannelMessage(kind=self.kind, frame=encode_raw(rows))

    def receive(self, key, message, t):
        return decode_raw(message.frame)


def _charged_policy(case):
    """The policy whose calls ``case`` charges: a bare frame of one of the
    four kinds, the bucket codec's ``quant`` frame, or DelayedPolicy's
    first full refresh, a ``raw`` frame."""
    if case == "codec":
        return CompressPolicy(bits=8)
    if case == "delayed":
        return DelayedPolicy()
    return _FramePolicy(case)


class TestPolicyCallCharge:
    """Every ``respond``/``receive`` call is timed once by the transport
    and charged by the frame kind of its message: ``quant``/``selector``
    frames at ``1 / CODEC_SPEEDUP`` of the wall time, the rest at face
    value. Policies report no time of their own."""

    @pytest.mark.parametrize("kind", sorted(_CHARGE))
    def test_charge_per_frame_kind(self, setup, kind, monkeypatch):
        graph, workers, runtime, transport = setup
        clock = itertools.count(0.0, _STEP)
        monkeypatch.setattr(
            "repro.engine.transport.monotonic_now", lambda: next(clock)
        )
        values = [np.ones((s.num_local, 4), dtype=np.float32)
                  for s in workers]
        transport.exchange(
            layer=1, t=0, rows_of=lambda s: values[s.worker_id],
            policy=_charged_policy(kind), category="x", dim=4,
        )
        # One respond per channel a worker serves, one receive per
        # channel it requests.
        calls = [
            len(s.serves) + len(s.halo_slots) for s in workers
        ]
        assert runtime.compute_snapshot().tolist() == [
            n * _CHARGE[kind] for n in calls
        ]


_BASELINES = [Float16Policy(), TopKPolicy(k=2), OneBitPolicy()]


class TestBaselinePoliciesOverTransport:
    """The compression baselines are plain exchange policies: the
    transport delivers what they decode, meters what they report and
    charges their calls as codec work."""

    @staticmethod
    def _values(workers, dim=6):
        rng = np.random.default_rng(3)
        return [rng.standard_normal((s.num_local, dim)).astype(np.float32)
                for s in workers]

    @pytest.mark.parametrize("policy", _BASELINES, ids=lambda p: p.name)
    def test_delivers_decoded_owner_rows(self, setup, policy):
        graph, workers, runtime, transport = setup
        values = self._values(workers)
        halos = transport.exchange(
            layer=1, t=0, rows_of=lambda s: values[s.worker_id],
            policy=policy, category="fp_embeddings", dim=6,
        )
        for state in workers:
            for owner, slots in state.halo_slots.items():
                served = values[owner][workers[owner].serves[state.worker_id]]
                key = ChannelKey(
                    layer=1, responder=owner, requester=state.worker_id
                )
                expected = policy.receive(
                    key, policy.respond(key, served, 0), 0
                )
                np.testing.assert_array_equal(
                    halos[state.worker_id][slots], expected
                )

    @pytest.mark.parametrize("policy", _BASELINES, ids=lambda p: p.name)
    def test_metered_bytes_are_the_message_sizes(self, setup, policy):
        graph, workers, runtime, transport = setup
        values = self._values(workers)
        transport.exchange(
            layer=1, t=0, rows_of=lambda s: values[s.worker_id],
            policy=policy, category="fp_embeddings", dim=6,
        )
        expected = sum(
            policy.respond(
                ChannelKey(layer=1, responder=s.worker_id, requester=peer),
                values[s.worker_id][served], 0,
            ).nbytes
            for s in workers for peer, served in s.serves.items()
        )
        assert runtime.meter.epoch_bytes() == expected

    @pytest.mark.parametrize("policy", _BASELINES, ids=lambda p: p.name)
    def test_calls_charged_at_codec_rate(self, setup, policy, monkeypatch):
        graph, workers, runtime, transport = setup
        clock = itertools.count(0.0, _STEP)
        monkeypatch.setattr(
            "repro.engine.transport.monotonic_now", lambda: next(clock)
        )
        values = self._values(workers)
        transport.exchange(
            layer=1, t=0, rows_of=lambda s: values[s.worker_id],
            policy=policy, category="x", dim=6,
        )
        calls = [len(s.serves) + len(s.halo_slots) for s in workers]
        assert runtime.compute_snapshot().tolist() == [
            n * _CHARGE["quant"] for n in calls
        ]


class TestReverseExchange:
    def test_partials_summed_at_owner(self, setup):
        """Owners receive the exact sum of the per-consumer partials."""
        graph, workers, runtime, transport = setup
        rng = np.random.default_rng(3)
        partials = [rng.random((s.num_halo, 4)).astype(np.float32)
                    for s in workers]
        sums = transport.reverse_exchange(
            layer=2, t=0,
            halo_rows_of=lambda s: partials[s.worker_id],
            policy=RawPolicy(), category="bp_gradients", dim=4,
        )
        # Reference: accumulate manually.
        expected = [np.zeros((s.num_local, 4), dtype=np.float32)
                    for s in workers]
        for consumer in workers:
            for owner, slots in consumer.halo_slots.items():
                rows = workers[owner].serves[consumer.worker_id]
                np.add.at(expected[owner], rows,
                          partials[consumer.worker_id][slots])
        for got, want in zip(sums, expected):
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_reverse_traffic_charged(self, setup):
        graph, workers, runtime, transport = setup
        partials = [np.ones((s.num_halo, 4), dtype=np.float32)
                    for s in workers]
        runtime.meter.reset_epoch()
        transport.reverse_exchange(
            layer=2, t=0, halo_rows_of=lambda s: partials[s.worker_id],
            policy=RawPolicy(), category="bp_gradients", dim=4,
        )
        assert runtime.meter.epoch_category_bytes().get("bp_gradients", 0) > 0

    def test_forward_and_reverse_same_bytes_for_raw(self, setup):
        """Symmetric plans: the reverse path moves the same row counts."""
        graph, workers, runtime, transport = setup
        values = [np.zeros((s.num_local, 4), dtype=np.float32)
                  for s in workers]
        transport.exchange(layer=1, t=0, rows_of=lambda s: values[s.worker_id],
                     policy=RawPolicy(), category="fwd", dim=4)
        fwd = runtime.meter.epoch_category_bytes()["fwd"]
        partials = [np.zeros((s.num_halo, 4), dtype=np.float32)
                    for s in workers]
        transport.reverse_exchange(layer=1, t=0,
                             halo_rows_of=lambda s: partials[s.worker_id],
                             policy=RawPolicy(), category="rev", dim=4)
        rev = runtime.meter.epoch_category_bytes()["rev"]
        assert fwd == rev

