"""Both ends of a ReqEC-FP channel agree on the trend state — under faults.

The boundary frame carries the exact rows once and a ``has_base`` flag;
the requesting end derives ``M_cr`` from the snapshot it already holds.
That is only lossless while both ends agree on *whether* a previous
snapshot exists, so this suite drives whole training runs through
scripted fault schedules that hit boundary frames (a lost boundary then a
delivered one, two consecutive lost boundaries, retry exhaustion then
``fallback_rows`` degradation, a corrupt first attempt that a retry
repairs), crash recovery, and an elastic membership change — and audits every boundary message:

* after every *delivered* boundary both ends read one state: the
  channel's entry in ``_channels`` (``boundary_t`` = this boundary) and
  its rows of the owner's trend table, bit-equal to the rows sent; the
  requester hands on a view of the frame's read-only rows (the RSS
  invariant: no end keeps a copy of its own);
* the flag is clear exactly when the channel held no snapshot: before
  the first boundary, or after ``on_delivery_failure`` /
  ``invalidate_worker`` cleared its bit;
* when the flag is set, the channel's base is the snapshot of its last
  delivered boundary; when it is clear, an older requester snapshot may
  still exist (a channel that lost its boundary keeps a private copy of
  the last one it received; it feeds ``fallback_rows``) but the derived
  rate is zero — a stale snapshot is never used as a base.
"""

from __future__ import annotations

import numpy as np
import pytest

from frames import payload
from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.faults import FaultConfig
from repro.faults.config import MAX_RETRIES
from repro.faults.injector import FATE_CORRUPT, FATE_DROP, FATE_OK
from repro.graph.generators import GraphSpec
from repro.graph.streaming import stream_graph

PERIOD = 3
EPOCHS = 13  # boundaries at t = 2, 5, 8, 11
WORKERS = 3


@pytest.fixture(scope="module")
def graph():
    return stream_graph(GraphSpec(
        name="boundary-faults", num_vertices=96, avg_degree=6.0,
        feature_dim=12, num_classes=3, homophily=0.9, feature_noise=0.8,
        train=40, val=16, test=32, seed=7,
    ))


def _trend(policy, key):
    """The channel's ``(H_last, M_cr, boundary_t)`` as its table holds
    them (copies: the table is updated in place at each boundary)."""
    channel = policy._channels[key]
    table_key, idx = policy._locate(key)
    table = policy._tables[table_key]
    m_cr = table.m_cr[idx].copy()
    if channel.zero_rate:
        m_cr[:] = 0.0
    return table.h_last[idx].copy(), m_cr, channel.boundary_t


class BoundaryAuditor:
    """Wraps one live ``ReqECPolicy`` and checks every boundary message
    against a shadow model of what each end should believe."""

    def __init__(self, policy):
        self.policy = policy
        # key -> (rows, t) sent at the last delivered boundary the
        # channel has not been rolled back from (absent: no base).
        self.base: dict = {}
        # key -> (rows, M_cr, t) of the last boundary the requester
        # received and was not crashed out of: what it still holds.
        self.received: dict = {}
        self.delivered = 0
        self.lost = 0
        self.flag_set = 0
        self.stale_snapshots_ignored = 0
        self.rollbacks = 0
        self._pending: dict = {}
        for name in ("respond", "receive", "on_delivery_failure",
                     "invalidate_worker"):
            setattr(self, f"_{name}", getattr(policy, name))
            setattr(policy, name, getattr(self, name))

    def respond(self, key, rows, t, rows_mask=None):
        # The boundary the channel held a snapshot of before this one.
        held = self.policy._channels.get(key)
        before = None if held is None else held.boundary_t
        message = self._respond(key, rows, t, rows_mask=rows_mask)
        if message.kind == "exact":
            sent, has_base = payload(message)
            assert has_base is (key in self.base), (key, t)
            if has_base:
                # The base is the last delivered boundary's snapshot.
                assert before == self.base[key][1]
            assert message.nbytes == 24 + sent.nbytes
            self._pending[key] = (t, before)
        else:
            # In-group traffic follows the responder's state: selector
            # messages only on a channel whose boundary was delivered.
            assert (message.kind == "selector") is (key in self.base)
        return message

    def receive(self, key, message, t):
        policy = self.policy
        if message.kind != "exact":
            return self._receive(key, message, t)
        sent, has_base = payload(message)
        pending_t, before = self._pending.pop(key)
        assert pending_t == t
        if has_base:
            self.flag_set += 1
            assert before == self.base[key][1]
        # An older snapshot the requester still holds privately.
        stale = key in policy._private
        assert stale is (key in self.received and key not in self.base)
        result = self._receive(key, message, t)
        # No copy of its own: the rows handed on are the frame's.
        assert np.shares_memory(result, sent)
        assert not sent.flags.writeable and not result.flags.writeable
        h_last, m_cr, boundary_t = _trend(policy, key)
        assert boundary_t == t
        assert np.array_equal(h_last.view(np.uint32), sent.view(np.uint32))
        assert policy._channels[key].zero_rate is not has_base
        if has_base:
            expected = (sent - self.base[key][0]) / np.float32(PERIOD)
            np.testing.assert_array_equal(m_cr, expected)
        else:
            assert not m_cr.any()
            if stale:
                self.stale_snapshots_ignored += 1
        assert key not in policy._private
        self.base[key] = (sent, t)
        self.received[key] = (sent, m_cr, t)
        self.delivered += 1
        return result

    def on_delivery_failure(self, key, message, rows_mask=None):
        handled = self._on_delivery_failure(key, message, rows_mask=rows_mask)
        if message.kind == "exact":
            assert key not in self.policy._channels
            # The requester keeps the last snapshot it received, bit
            # for bit, as its private copy.
            private = self.policy._private.get(key)
            if key in self.received:
                rows, m_cr, t = self.received[key]
                assert private[2] == t
                for got, want in zip(private[:2], (rows, m_cr)):
                    assert np.array_equal(got.view(np.uint32),
                                          want.view(np.uint32))
            else:
                assert private is None
            assert self._pending.pop(key) is not None
            self.base.pop(key, None)
            self.lost += 1
            self.rollbacks += 1
        return handled

    def invalidate_worker(self, worker):
        self._invalidate_worker(worker)
        for key in [k for k in self.base
                    if worker in (k.responder, k.requester)]:
            del self.base[key]
            self.rollbacks += 1
        for key in [k for k in self.received
                    if worker in (k.responder, k.requester)]:
            del self.received[key]
        for state in (self.policy._channels, self.policy._private):
            assert not any(
                worker in (k.responder, k.requester) for k in state
            )

    def finish(self):
        assert not self._pending  # every boundary delivered or failed
        assert sorted(self.policy._channels) == sorted(self.base)
        assert sorted(self.policy._private) == sorted(
            set(self.received) - set(self.base)
        )
        for key, (sent, _) in self.base.items():
            h_last = _trend(self.policy, key)[0]
            assert np.array_equal(h_last.view(np.uint32),
                                  sent.view(np.uint32))


def _script_fates(injector, script):
    """Force the fate of fp messages named by ``script``: ``(epoch,
    responder, requester) -> fates per attempt`` (past the list: OK);
    everything else is delivered."""
    def message_fate(layer, responder, requester, category, attempt):
        fates = ()
        if category == "fp_embeddings":
            fates = script.get((injector.epoch, responder, requester), ())
        fate = fates[attempt] if attempt < len(fates) else FATE_OK
        if fate == FATE_DROP:
            injector.counters.drops += 1
        elif fate == FATE_CORRUPT:
            injector.counters.corruptions += 1
        return fate

    injector.message_fate = message_fate


def _pairs(seed, count):
    """``count`` seeded (responder, requester) pairs."""
    rng = np.random.default_rng(seed)
    every = [(a, b) for a in range(WORKERS) for b in range(WORKERS) if a != b]
    return [every[i] for i in rng.permutation(len(every))[:count]]


LOST = (FATE_DROP,) * (MAX_RETRIES + 1)  # retries exhausted -> degrade


def _schedule(name, seed):
    pairs = _pairs(seed, 3)
    if name == "lost_then_delivered":
        return {(5, a, b): LOST for a, b in pairs}
    if name == "two_consecutive_lost":
        return {(t, a, b): LOST for a, b in pairs for t in (5, 8)}
    if name == "corrupt_then_retry_delivers":
        return {(t, a, b): (FATE_CORRUPT, FATE_DROP)
                for a, b in pairs for t in (5, 8)}
    if name == "first_boundary_lost":
        return {(2, a, b): (FATE_CORRUPT,) * (MAX_RETRIES + 1)
                for a, b in pairs}
    raise AssertionError(name)


def _run(graph, execution, faults, script=None):
    trainer = ECGraphTrainer(
        graph, ModelConfig(num_layers=2, hidden_dim=16),
        ClusterSpec(num_workers=WORKERS, num_servers=1),
        ECGraphConfig(
            seed=0, trend_period=PERIOD, execution=execution, faults=faults
        ),
    )
    try:
        trainer.setup()
        auditor = BoundaryAuditor(trainer.engine.ctx.fp_policy)
        if script is not None:
            _script_fates(trainer.transport.injector, script)
        losses = [trainer.run_epoch(t).loss for t in range(EPOCHS)]
        auditor.finish()
        counters = trainer.transport.injector.counters
        return auditor, losses, counters
    finally:
        trainer.close()


@pytest.mark.parametrize("execution", ["sync", "multiprocess"])
class TestBothEndsAgreeUnderFaults:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", [
        "lost_then_delivered", "two_consecutive_lost", "first_boundary_lost",
    ])
    def test_lost_boundaries(self, graph, execution, name, seed):
        script = _schedule(name, seed)
        faults = FaultConfig(enabled=True, seed=seed)
        auditor, losses, counters = _run(graph, execution, faults, script)
        assert np.isfinite(losses).all()
        # 4 boundaries x 6 channels of the one exchanged layer (the
        # first layer's halo features are cached, not exchanged).
        assert auditor.lost == len(script) == auditor.rollbacks
        assert auditor.delivered + auditor.lost == 4 * 6
        # The flag is clear on each channel's first delivered boundary
        # and on the delivered boundary after a lost one (for the three
        # channels of first_boundary_lost those are the same message).
        clear = 6 if name == "first_boundary_lost" else 6 + 3
        assert auditor.flag_set == auditor.delivered - clear
        if name != "first_boundary_lost":
            # The requester still held the t=2 snapshot at that point:
            # it fed fallback_rows while the boundary was lost.
            assert auditor.stale_snapshots_ignored == 3
            assert counters.degraded_predicted == auditor.lost
        else:
            # Nothing to predict from: cached rows or zeros.
            assert auditor.stale_snapshots_ignored == 0
            assert counters.degraded_predicted == 0
            assert counters.degraded == auditor.lost

    def test_retry_repairs_a_corrupt_boundary(self, graph, execution):
        script = _schedule("corrupt_then_retry_delivers", 0)
        faults = FaultConfig(enabled=True)
        auditor, losses, counters = _run(graph, execution, faults, script)
        assert np.isfinite(losses).all()
        # Delivered on the third attempt: no rollback, the flag stays
        # set on every boundary after the first, nothing degrades.
        assert auditor.lost == auditor.rollbacks == 0
        assert counters.retries == 2 * len(script)
        assert auditor.flag_set == auditor.delivered - 6
        assert counters.degraded == 0

    def test_faults_off_twin_is_bit_identical_when_nothing_is_lost(
        self, graph, execution
    ):
        """Retries cost bytes and stall time, not numerics: a schedule
        whose every boundary is eventually delivered trains to the same
        losses as an empty schedule."""
        faults = FaultConfig(enabled=True)
        _, clean, _ = _run(graph, execution, faults, {})
        _, retried, _ = _run(
            graph, execution, faults,
            _schedule("corrupt_then_retry_delivers", 1),
        )
        assert [repr(x) for x in retried] == [repr(x) for x in clean]

    def test_crash_recovery(self, graph, execution):
        # Worker 1 crashes before epoch 6 (mid trend group) and again
        # right before the boundary epoch 11; a boundary towards it was
        # lost at t=5 as well.
        faults = FaultConfig(enabled=True, crash_schedule=((6, 1), (11, 1)))
        script = {(5, 0, 1): LOST, (5, 1, 2): LOST}
        auditor, losses, counters = _run(graph, execution, faults, script)
        assert np.isfinite(losses).all()
        assert counters.crashes == 2
        assert auditor.lost == 2
        # Every channel touching worker 1 restarts from a clear flag
        # after each crash: 4 channels x 2 crashes, minus the two
        # already rolled back by the lost boundary at the first.
        assert auditor.rollbacks == 2 + (4 - 2) + 4
        assert auditor.delivered == 4 * 6 - auditor.lost

    @pytest.mark.parametrize("seed", [4, 5])
    def test_random_drop_and_corrupt_schedule(self, graph, execution, seed):
        """The injector's own seeded fates, heavy enough that boundary
        frames are retried, lost and degraded."""
        # An attempt fails (drop : corrupt = 3 : 2) with the probability
        # at which a message spends every attempt one time in four.
        fail = 0.25 ** (1 / (MAX_RETRIES + 1))
        faults = FaultConfig(
            enabled=True, seed=seed, drop_prob=0.6 * fail,
            corrupt_prob=0.4 * fail,
        )
        auditor, losses, counters = _run(graph, execution, faults)
        assert np.isfinite(losses).all()
        assert auditor.lost > 0 and auditor.delivered > auditor.lost
        assert auditor.stale_snapshots_ignored > 0
        assert auditor.flag_set > 0


class TestMembershipChange:
    """Elastic membership runs under ``execution="sync"`` only (the
    trainer refuses the combination with multiprocess)."""

    def test_both_ends_restart_after_adoption_and_rejoin(self, graph):
        faults = FaultConfig(
            enabled=True, elastic=True,
            permanent_failures=((4, 2),), rejoin_schedule=((9, 2),),
        )
        script = {(5, 0, 1): LOST}
        auditor, losses, counters = _run(graph, "sync", faults, script)
        assert np.isfinite(losses).all()
        assert counters.permanent_failures == 1
        assert auditor.rollbacks > auditor.lost == 1
        # Channels rebuilt by the membership change carry new shapes; a
        # surviving snapshot of the old shape must never be a base.
        assert auditor.delivered > 0 and auditor.flag_set > 0
